package experiments

import (
	"strings"
	"testing"

	"centurion/internal/metrics"
)

// Short runs keep the suite fast; shapes are asserted loosely here and
// tightly in EXPERIMENTS.md (full 100-run sweeps).

func TestRunBaseline(t *testing.T) {
	spec := DefaultSpec(ModelNone, 1)
	spec.DurationMs = 300
	r := Run(spec)
	if r.Throughput.Len() != 300 {
		t.Fatalf("throughput windows = %d", r.Throughput.Len())
	}
	if r.SteadyRate < 1.5 || r.SteadyRate > 3 {
		t.Errorf("baseline steady rate = %.2f inst/ms, want ~2.2", r.SteadyRate)
	}
	if !r.Settled {
		t.Error("baseline did not settle")
	}
	if r.SettlingMs > 100 {
		t.Errorf("baseline settling = %.0f ms, want fast pipe-fill", r.SettlingMs)
	}
	if r.Counters.TaskSwitches != 0 {
		t.Error("baseline switched tasks")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	// Same spec + seed twice must reproduce not just the counters but the
	// full throughput/activity/switch series, for every model, fault-free
	// and faulted — the spec-level face of the stepping determinism
	// contract (see internal/centurion's TestSteppingEquivalence for the
	// production-versus-dense-oracle half).
	sameSeries := func(a, b *metrics.Series) bool {
		if len(a.Values) != len(b.Values) {
			return false
		}
		for i := range a.Values {
			if a.Values[i] != b.Values[i] {
				return false
			}
		}
		return true
	}
	for _, model := range Models {
		for _, faults := range []int{0, 16} {
			spec := DefaultSpec(model, 7)
			spec.DurationMs = 200
			if faults > 0 {
				spec.FaultAtMs = 100
				spec.NumFaults = faults
			}
			a, b := Run(spec), Run(spec)
			if a.Counters != b.Counters {
				t.Errorf("%v faults=%d: counters diverged: %+v vs %+v",
					model, faults, a.Counters, b.Counters)
			}
			for _, s := range []struct {
				name string
				x, y *metrics.Series
			}{
				{"throughput", a.Throughput, b.Throughput},
				{"nodes-active", a.NodesActive, b.NodesActive},
				{"switches", a.Switches, b.Switches},
			} {
				if !sameSeries(s.x, s.y) {
					t.Errorf("%v faults=%d: %s series diverged", model, faults, s.name)
				}
			}
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	spec := DefaultSpec(ModelNone, 3)
	spec.DurationMs = 600
	spec.FaultAtMs = 300
	spec.NumFaults = 32
	r := Run(spec)
	if r.PostFaultRate >= r.SteadyRate {
		t.Errorf("32 faults did not reduce throughput: pre %.2f post %.2f",
			r.SteadyRate, r.PostFaultRate)
	}
	if r.PostFaultRate <= 0 {
		t.Error("post-fault throughput is zero")
	}
}

func TestAdaptiveModelsSwitch(t *testing.T) {
	for _, m := range []Model{ModelNI, ModelFFW} {
		spec := DefaultSpec(m, 2)
		spec.DurationMs = 400
		r := Run(spec)
		if r.Counters.TaskSwitches == 0 {
			t.Errorf("%v made no task switches from a random mapping", m)
		}
		if r.Counters.InstancesCompleted == 0 {
			t.Errorf("%v completed nothing", m)
		}
	}
}

func TestRandomStaticWorseThanFFW(t *testing.T) {
	// The random mapping without intelligence must not beat FFW from the
	// same mapping (the whole point of the adaptation).
	var static, ffw float64
	for seed := uint64(1); seed <= 3; seed++ {
		s1 := DefaultSpec(ModelRandomStatic, seed)
		s1.DurationMs = 600
		static += Run(s1).PostFaultRate
		s2 := DefaultSpec(ModelFFW, seed)
		s2.DurationMs = 600
		ffw += Run(s2).PostFaultRate
	}
	if ffw <= static {
		t.Errorf("FFW (%.2f) did not beat its own static start (%.2f)", ffw/3, static/3)
	}
}

func TestRunManyOrderingAndParallelism(t *testing.T) {
	spec := DefaultSpec(ModelNone, 0)
	spec.DurationMs = 100
	res := RunMany(spec, 4, 10)
	if len(res) != 4 {
		t.Fatalf("RunMany returned %d results", len(res))
	}
	for i, r := range res {
		if r.Spec.Seed != uint64(10+i) {
			t.Errorf("result %d has seed %d", i, r.Spec.Seed)
		}
	}
	// Parallel execution must be deterministic.
	res2 := RunMany(spec, 4, 10)
	for i := range res {
		if res[i].Counters != res2[i].Counters {
			t.Errorf("parallel RunMany not deterministic at %d", i)
		}
	}
}

func TestTable1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t1 := Table1(6, 1)
	if len(t1.Rows) != 3 {
		t.Fatalf("Table1 rows = %d", len(t1.Rows))
	}
	if t1.ReferenceRate <= 0 {
		t.Fatal("reference rate not positive")
	}
	// Reference row median is 100% by construction.
	ref := t1.Rows[0]
	if ref.Model != ModelNone || ref.RelativePct.Q2 < 99 || ref.RelativePct.Q2 > 101 {
		t.Errorf("reference row = %+v", ref)
	}
	text := t1.Render()
	for _, want := range []string{"TABLE I", "No Intelligence", "Network Interaction", "Foraging For Work"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t2 := Table2(4, 1, []int{0, 16})
	if len(t2.Rows) != 6 {
		t.Fatalf("Table2 rows = %d", len(t2.Rows))
	}
	for _, row := range t2.Rows {
		if row.Faults == 0 && row.HasRecovery {
			t.Error("zero-fault row has recovery time")
		}
		if row.Faults > 0 && !row.HasRecovery {
			t.Error("faulted row missing recovery time")
		}
	}
	// Degradation: every model's 16-fault median must be below its 0-fault
	// median.
	medians := map[Model]map[int]float64{}
	for _, row := range t2.Rows {
		if medians[row.Model] == nil {
			medians[row.Model] = map[int]float64{}
		}
		medians[row.Model][row.Faults] = row.RelativePct.Q2
	}
	// The static baseline must degrade strictly; the adaptive models recover
	// some of the loss and their 4-run medians are noisy, so only insist they
	// do not *gain* more than noise from losing 16 nodes.
	if medians[ModelNone][16] >= medians[ModelNone][0] {
		t.Errorf("No Intelligence: 16-fault median %.0f%% >= 0-fault %.0f%%",
			medians[ModelNone][16], medians[ModelNone][0])
	}
	for _, m := range []Model{ModelNI, ModelFFW} {
		if medians[m][16] > medians[m][0]*1.1 {
			t.Errorf("%v: 16-fault median %.0f%% implausibly above 0-fault %.0f%%",
				m, medians[m][16], medians[m][0])
		}
	}
	if !strings.Contains(t2.Render(), "TABLE II") {
		t.Error("render missing header")
	}
}

func TestFig4SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := Fig4(5, 1)
	if len(f.Cases) != 3 {
		t.Fatalf("Fig4 cases = %d", len(f.Cases))
	}
	var csv strings.Builder
	if err := f.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1001 {
		t.Errorf("CSV has %d lines, want header+1000", len(lines))
	}
	if !strings.Contains(lines[0], "none_throughput") || !strings.Contains(lines[0], "ffw_switches") {
		t.Errorf("CSV header = %q", lines[0])
	}
	art := f.RenderASCII()
	if !strings.Contains(art, "FIGURE 4") || len(art) < 200 {
		t.Error("ASCII rendering too small")
	}
}

func TestModelStrings(t *testing.T) {
	names := map[string]bool{}
	for _, m := range []Model{ModelNone, ModelNI, ModelFFW, ModelRandomStatic, ModelNIPB} {
		n := m.String()
		if n == "" || n == "unknown" || names[n] {
			t.Errorf("model %d name %q", m, n)
		}
		names[n] = true
	}
}

func TestSparkline(t *testing.T) {
	s := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Errorf("sparkline width = %d", len([]rune(s)))
	}
	if sparkline(nil, 10) != "" {
		t.Error("empty sparkline not empty")
	}
	flat := sparkline([]float64{0, 0, 0}, 3)
	if len([]rune(flat)) != 3 {
		t.Error("flat sparkline wrong width")
	}
}
