package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestContractMatchesTables pins BENCHMARK.json to the tables in metrics.go
// and checks the limits the driver refuses a file for.
func TestContractMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contractJSON()) {
		t.Fatal("BENCHMARK.json differs from `bench -contract`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in seconds, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", d)
		}
	}
}

// checkResult reads the contract line the way the driver does: exactly the
// four keys, every listed metric present once with its unit and finite.
func checkResult(t *testing.T, res *result, defs []metricDef, positive bool) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result line has keys %v", keys)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(res.notes, "\n"))
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, contract lists %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite", d.Name)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %g, end-to-end metrics are never 0", d.Name, m.Value)
		}
	}
}

// TestQuickSmoke runs all four workloads at smoke size, untraced, against
// the pinned seed-1 digests.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runBenchmark(options{workload: w.Name, seed: goldenSeed, seconds: calibratedSeconds,
			quick: true, tmpdir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkResult(t, res, endToEnd, true)
	}
}

// TestQuickSecondSeed checks the benchmark's own consistency rules on a seed
// without a golden digest.
func TestQuickSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("second seed skipped in -short")
	}
	for _, w := range workloads {
		res, err := runBenchmark(options{workload: w.Name, seed: 7, seconds: calibratedSeconds,
			quick: true, tmpdir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkResult(t, res, endToEnd, true)
	}
}

// TestQuickTraced runs one traced smoke: every per-layer metric once, and a
// span file whose spans nest.
func TestQuickTraced(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	res, err := runBenchmark(options{workload: "dispatch_sweep", seed: goldenSeed, seconds: calibratedSeconds,
		quick: true, trace: 1, tmpdir: dir, traceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer, false)
	if res.Metrics["dispatch.requeues"].Value != 0 {
		t.Errorf("dispatch.requeues = %g, want 0", res.Metrics["dispatch.requeues"].Value)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if err := checkNesting(tf.Spans); err != nil {
		t.Error(err)
	}
	children := map[string]int{}
	for _, s := range tf.Spans {
		if s.Parent != 0 {
			children[s.Name]++
		}
	}
	for _, want := range []string{"server.handler.sweep", "dispatch.execute", "store.put"} {
		if children[want] == 0 {
			t.Errorf("no %s span is attached to a client span", want)
		}
	}
}

func TestCheckNestingRejects(t *testing.T) {
	ok := []span{{ID: 1, Op: "a", Name: "outer", StartNs: 10, EndNs: 100}, {ID: 2, Parent: 1, Op: "a", Name: "inner", StartNs: 20, EndNs: 90}}
	if err := checkNesting(ok); err != nil {
		t.Fatal(err)
	}
	escapes := []span{ok[0], {ID: 2, Parent: 1, Op: "a", Name: "inner", StartNs: 20, EndNs: 101}}
	otherOp := []span{ok[0], {ID: 2, Parent: 1, Op: "b", Name: "inner", StartNs: 20, EndNs: 90}}
	open := []span{{ID: 1, Op: "a", Name: "outer", StartNs: 10}}
	for _, bad := range [][]span{escapes, otherOp, open} {
		if checkNesting(bad) == nil {
			t.Errorf("checkNesting accepted %+v", bad)
		}
	}
}

// TestScheduleIsAFunctionOfTheSeed: same seed, same inputs.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	_, a := serveSchedule(3, 2, 8, 20)
	_, b := serveSchedule(3, 2, 8, 20)
	_, c := serveSchedule(4, 2, 8, 20)
	if !reflect.DeepEqual(a, b) {
		t.Error("two schedules for one seed differ")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("schedules for different seeds are equal")
	}
	if len(a) != clients*2*100 {
		t.Errorf("schedule has %d requests", len(a))
	}
	for cl := 0; cl < clients; cl++ {
		if a[cl*len(a)/clients].class != classHit {
			t.Errorf("client %d does not start with a hit", cl)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spreadOf(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spreadOf = %g, want 1", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.Name] = metricValue{1, d.Unit}
			}
			m["ops_per_s"] = metricValue{opsPerS, "1/s"}
			line, _ := json.Marshal(record{Workload: w.Name, Seed: 1, Correct: true, Metrics: m})
			f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append(line, '\n')); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		return path
	}
	base, same, slower := write("a", 100), write("b", 95), write("c", 80)
	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 {
		t.Errorf("5%% slower exits %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slower); code != 1 || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("20%% slower exits %d, want 1\n%s", code, out.String())
	}
	if code := compareFiles(&out, slower, base); code != 0 {
		t.Errorf("an improvement exits %d, want 0", code)
	}
}
