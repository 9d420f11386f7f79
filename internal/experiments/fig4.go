package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"centurion/internal/metrics"
)

// Fig4Case is the time-series data of one model under one fault scenario —
// one panel row of the paper's Figure 4.
type Fig4Case struct {
	Model  Model
	Faults int
	Result Result
}

// Fig4Result holds all panels for one fault count (the paper shows 5-fault
// and 42-fault columns).
type Fig4Result struct {
	Faults    int
	FaultAtMs int
	Cases     []Fig4Case
}

// Fig4 runs the Figure 4 experiment: one run per model with the given fault
// count injected at 500 ms, sampled per millisecond.
func Fig4(faultCount int, seed uint64) Fig4Result {
	out := Fig4Result{Faults: faultCount, FaultAtMs: 500}
	for _, m := range Models {
		spec := DefaultSpec(m, seed)
		spec.FaultAtMs = 500
		spec.NumFaults = faultCount
		out.Cases = append(out.Cases, Fig4Case{Model: m, Faults: faultCount, Result: Run(spec)})
	}
	return out
}

// Release recycles every case's series buffers into the shared run pools.
// Call it once the figure has been rendered or written out; the series are
// invalid afterwards (summary scalars in each Result remain usable). Figure
// sweeps that skip this run the measurement layer allocation-per-panel
// instead of allocation-free.
func (f *Fig4Result) Release() {
	for i := range f.Cases {
		f.Cases[i].Result.Release()
	}
}

// DefaultFig4Faults are the paper's two Figure 4 scenarios: 5 faults (local
// application faults) and 42 faults (one third of the 128 nodes, e.g. a
// failed global clock buffer).
var DefaultFig4Faults = []int{5, 42}

// WriteCSV emits the panel data as CSV: one row per window with throughput,
// nodes-active and task-switch columns for every model.
func (f Fig4Result) WriteCSV(w io.Writer) error {
	header := []string{"time_ms"}
	for _, c := range f.Cases {
		name := c.Model.Name()
		header = append(header,
			name+"_throughput", name+"_nodes_active", name+"_switches")
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	if len(f.Cases) == 0 {
		return nil
	}
	n := f.Cases[0].Result.Throughput.Len()
	row := make([]byte, 0, 16*len(header))
	for i := 0; i < n; i++ {
		row = strconv.AppendFloat(row[:0], float64(i)*f.Cases[0].Result.Throughput.WindowMs, 'f', 0, 64)
		for _, c := range f.Cases {
			row = strconv.AppendFloat(append(row, ','), c.Result.Throughput.Values[i], 'f', 0, 64)
			row = strconv.AppendFloat(append(row, ','), c.Result.NodesActive.Values[i], 'f', 0, 64)
			row = strconv.AppendFloat(append(row, ','), c.Result.Switches.Values[i], 'f', 0, 64)
		}
		row = append(row, '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderASCII draws the figure's panels as terminal sparklines so the shape
// (settling, fault dip at 500 ms, recovery) is visible without a plotting
// tool.
func (f Fig4Result) RenderASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 4 — %d faults injected at %d ms\n\n", f.Faults, f.FaultAtMs)
	for _, c := range f.Cases {
		fmt.Fprintf(&b, "%-22s throughput (inst/ms, smoothed):\n", c.Model)
		fmt.Fprintf(&b, "  %s\n", sparkline(metrics.MovingAverage(c.Result.Throughput.Values, 10), 100))
		fmt.Fprintf(&b, "%-22s task switches /ms (smoothed):\n", "")
		fmt.Fprintf(&b, "  %s\n\n", sparkline(metrics.MovingAverage(c.Result.Switches.Values, 10), 100))
	}
	return b.String()
}

// sparkline down-samples xs to width columns of eight-level block glyphs.
func sparkline(xs []float64, width int) string {
	if len(xs) == 0 {
		return ""
	}
	if width > len(xs) {
		width = len(xs)
	}
	buckets := make([]float64, width)
	for i := range buckets {
		lo := i * len(xs) / width
		hi := (i + 1) * len(xs) / width
		if hi <= lo {
			hi = lo + 1
		}
		buckets[i] = metrics.Mean(xs[lo:hi])
	}
	maxVal := 0.0
	for _, v := range buckets {
		if v > maxVal {
			maxVal = v
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range buckets {
		idx := int(v / maxVal * float64(len(glyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
