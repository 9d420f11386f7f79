package main

import "testing"

func f(v float64) *float64 { return &v }

func TestParseBench(t *testing.T) {
	lines := []string{
		"goos: linux",
		"BenchmarkPlatformStep/ni-4         \t  568759\t      4113 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkRouterTickLoaded \t10064269\t       230.5 ns/op\t       0 B/op\t       0 allocs/op",
		"PASS",
	}
	got := parseBench(lines)
	ni, ok := got["BenchmarkPlatformStep/ni"]
	if !ok || ni.nsPerOp != 4113 || !ni.hasMem || ni.allocsPerOp != 0 {
		t.Fatalf("ni parsed as %+v (ok=%v)", ni, ok)
	}
	if rt := got["BenchmarkRouterTickLoaded"]; rt.nsPerOp != 230.5 {
		t.Fatalf("RouterTickLoaded parsed as %+v", rt)
	}
}

func TestGate(t *testing.T) {
	base := map[string]baselineEntry{
		"BenchmarkA": {NsPerOp: f(1000), BPerOp: f(0), AllocsPerOp: f(0)},
		"BenchmarkB": {NsPerOp: f(1000)},
		"BenchmarkC": {SPerOp: f(0.5)},
		"BenchmarkD": {NsPerOp: f(1000)},
	}
	meas := map[string]measurement{
		"BenchmarkA": {nsPerOp: 1200, bPerOp: 4, allocsPerOp: 1, hasMem: true}, // within 25% + slack
		"BenchmarkB": {nsPerOp: 1300},                                          // 30% over: fail
		"BenchmarkC": {nsPerOp: 0.5e9 * 1.1},                                   // s_per_op baseline, within
	}
	failures, _ := gate(meas, base, 0.25, []string{"BenchmarkA", "BenchmarkD"})
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want ns/op regression on B and missing required D", failures)
	}

	// Alloc regression beyond slack fails even when timing is fine.
	meas["BenchmarkA"] = measurement{nsPerOp: 1000, allocsPerOp: 5, hasMem: true}
	failures, _ = gate(meas, base, 0.25, nil)
	if len(failures) != 2 { // B's timing + A's allocs
		t.Fatalf("failures = %v, want alloc failure on A and timing failure on B", failures)
	}
}

func TestFlatness(t *testing.T) {
	meas := map[string]measurement{
		"BenchmarkDirectoryNearest/16x8/Nearest":      {nsPerOp: 40},
		"BenchmarkDirectoryNearest/64x64/Nearest":     {nsPerOp: 500}, // not an end of the axis
		"BenchmarkDirectoryNearest/256x256/Nearest":   {nsPerOp: 80},  // exactly 2x: passes
		"BenchmarkDirectoryNearest/16x8/NearestK8":    {nsPerOp: 200},
		"BenchmarkDirectoryNearest/256x256/NearestK8": {nsPerOp: 401},
		"BenchmarkDirectoryNearest/256x256/Orphan":    {nsPerOp: 1},
	}
	failures := flatness(meas)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want NearestK8 over 2x and Orphan without a 16x8 row", failures)
	}
	if flatness(map[string]measurement{"BenchmarkPlatformStep/none": {nsPerOp: 1}}) != nil {
		t.Fatal("flatness gated a run without directory rows")
	}
}
