package experiments

import (
	"fmt"
	"strings"

	"centurion/internal/metrics"
)

// Table1Row is one model's row of Table I.
type Table1Row struct {
	Model       Model
	Settling    metrics.Summary // ms
	RelativePct metrics.Summary // % of the reference median
	Runs        int
}

// Table1Result reproduces Table I: performance reached after settling time
// without fault injection, relative to the No-Intelligence median.
type Table1Result struct {
	Rows []Table1Row
	// ReferenceRate is the No-Intelligence median steady throughput
	// (instances per ms) that defines 100%.
	ReferenceRate float64
	Runs          int
}

// Table1 runs the Table I experiment: `runs` independent runs per model,
// no faults. Seeds are seedBase..seedBase+runs-1 for every model.
func Table1(runs int, seedBase uint64) Table1Result {
	if runs <= 0 {
		runs = 100
	}
	perModel := make(map[Model][]Result, len(Models))
	for _, m := range Models {
		perModel[m] = RunMany(DefaultSpec(m, 0), runs, seedBase)
	}
	ref := referenceRate(perModel[ModelNone])

	out := Table1Result{ReferenceRate: ref, Runs: runs}
	for _, m := range Models {
		res := perModel[m]
		settling := make([]float64, 0, len(res))
		rel := make([]float64, 0, len(res))
		for i := range res {
			settling = append(settling, res[i].SettlingMs)
			rel = append(rel, 100*res[i].SteadyRate/ref)
			res[i].Release() // series reduced to scalars; recycle the buffers
		}
		out.Rows = append(out.Rows, Table1Row{
			Model:       m,
			Settling:    metrics.Quartiles(settling),
			RelativePct: metrics.Quartiles(rel),
			Runs:        runs,
		})
	}
	return out
}

// referenceRate returns the median steady rate of the reference runs.
func referenceRate(res []Result) float64 {
	rates := make([]float64, 0, len(res))
	for _, r := range res {
		rates = append(rates, r.SteadyRate)
	}
	ref := metrics.Percentile(rates, 0.5)
	if ref <= 0 {
		ref = 1e-9 // avoid division by zero on pathological configs
	}
	return ref
}

// Render prints the table in the paper's layout.
func (t Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I — performance reached after settling time, no fault injection\n")
	fmt.Fprintf(&b, "(%d runs per model; relative to No-Intelligence median = %.2f instances/ms)\n\n", t.Runs, t.ReferenceRate)
	fmt.Fprintf(&b, "%-22s | %-23s | %-23s\n", "", "Settling Time (ms)", "Relative Performance (%)")
	fmt.Fprintf(&b, "%-22s | %7s %7s %7s | %7s %7s %7s\n", "Model", "Q1", "Q2", "Q3", "Q1", "Q2", "Q3")
	fmt.Fprintln(&b, strings.Repeat("-", 76))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s | %7.0f %7.0f %7.0f | %6.0f%% %6.0f%% %6.0f%%\n",
			r.Model, r.Settling.Q1, r.Settling.Q2, r.Settling.Q3,
			r.RelativePct.Q1, r.RelativePct.Q2, r.RelativePct.Q3)
	}
	return b.String()
}

// Table2Row is one (model, fault-count) cell of Table II.
type Table2Row struct {
	Model       Model
	Faults      int
	Recovery    metrics.Summary // ms; zero-fault rows have no recovery time
	HasRecovery bool
	RelativePct metrics.Summary
	Runs        int
}

// Table2Result reproduces Table II: performance reached after recovery time
// following fault injection at 500 ms.
type Table2Result struct {
	Rows          []Table2Row
	FaultCounts   []int
	ReferenceRate float64
	Runs          int
}

// DefaultFaultCounts are the paper's Table II fault levels.
var DefaultFaultCounts = []int{0, 2, 4, 8, 16, 32}

// Table2 runs the Table II experiment: for every model and fault count,
// `runs` runs with fault injection at 500 ms. The 100% reference is the
// No-Intelligence zero-fault median, as in the paper's highlighted row.
func Table2(runs int, seedBase uint64, faultCounts []int) Table2Result {
	if runs <= 0 {
		runs = 100
	}
	if len(faultCounts) == 0 {
		faultCounts = DefaultFaultCounts
	}
	out := Table2Result{FaultCounts: faultCounts, Runs: runs}

	// Reference: No-Intelligence without faults.
	refRuns := RunMany(DefaultSpec(ModelNone, 0), runs, seedBase)
	out.ReferenceRate = referenceRate(refRuns)
	for i := range refRuns {
		refRuns[i].Release()
	}

	for _, m := range Models {
		for _, k := range faultCounts {
			spec := DefaultSpec(m, 0)
			spec.NumFaults = k
			if k > 0 {
				spec.FaultAtMs = 500
			}
			res := RunMany(spec, runs, seedBase)
			rel := make([]float64, 0, runs)
			rec := make([]float64, 0, runs)
			for i := range res {
				rel = append(rel, 100*res[i].PostFaultRate/out.ReferenceRate)
				if k > 0 {
					rec = append(rec, res[i].RecoveryMs)
				}
				res[i].Release()
			}
			row := Table2Row{Model: m, Faults: k, RelativePct: metrics.Quartiles(rel), Runs: runs}
			if k > 0 {
				row.Recovery = metrics.Quartiles(rec)
				row.HasRecovery = true
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Render prints the table in the paper's layout.
func (t Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II — performance reached after recovery time, faults injected at 500 ms\n")
	fmt.Fprintf(&b, "(%d runs per cell; relative to No-Intelligence zero-fault median = %.2f instances/ms)\n\n", t.Runs, t.ReferenceRate)
	fmt.Fprintf(&b, "%-22s | %6s | %-23s | %-23s\n", "", "", "Recovery Time (ms)", "Relative Performance (%)")
	fmt.Fprintf(&b, "%-22s | %6s | %7s %7s %7s | %7s %7s %7s\n", "Model", "Faults", "Q1", "Q2", "Q3", "Q1", "Q2", "Q3")
	fmt.Fprintln(&b, strings.Repeat("-", 90))
	for _, r := range t.Rows {
		if r.HasRecovery {
			fmt.Fprintf(&b, "%-22s | %6d | %7.0f %7.0f %7.0f | %6.0f%% %6.0f%% %6.0f%%\n",
				r.Model, r.Faults, r.Recovery.Q1, r.Recovery.Q2, r.Recovery.Q3,
				r.RelativePct.Q1, r.RelativePct.Q2, r.RelativePct.Q3)
		} else {
			fmt.Fprintf(&b, "%-22s | %6d | %7s %7s %7s | %6.0f%% %6.0f%% %6.0f%%\n",
				r.Model, r.Faults, "-", "-", "-",
				r.RelativePct.Q1, r.RelativePct.Q2, r.RelativePct.Q3)
		}
	}
	return b.String()
}
