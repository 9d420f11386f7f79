// Command benchgate compares `go test -bench` output against the repo's
// BENCH_platform.json snapshot and fails when a benchmark regressed beyond a
// relative tolerance — the CI perf gate guarding the simulator's hot paths
// (not just their allocation counts). It also holds the task directory to a
// cost that is flat in fabric size: each BenchmarkDirectoryNearest/256x256/*
// row must stay within twice its 16x8 row, whatever the snapshot says.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkPlatformStep -benchmem . > bench.out
//	go run ./cmd/benchgate -bench bench.out -baseline BENCH_platform.json -tol 0.25
//
// Only benchmarks present in both inputs are gated: ns/op must stay within
// (1+tol)× the snapshot, allocs/op within the snapshot plus a small warm-up
// slack, and B/op within the snapshot plus a few bytes of amortised growth.
// Improvements are reported but never fail the gate (refresh the snapshot to
// bank them).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// baselineEntry mirrors one "benchmarks" record of BENCH_platform.json.
type baselineEntry struct {
	NsPerOp     *float64 `json:"ns_per_op"`
	SPerOp      *float64 `json:"s_per_op"`
	BPerOp      *float64 `json:"b_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// SpecsPerS is a throughput floor (sweep specs per second, reported by
	// the distributed-sweep benchmark via b.ReportMetric): unlike the ns/op
	// ceiling, the gate fails when the measurement falls BELOW the snapshot
	// by more than the tolerance.
	SpecsPerS *float64 `json:"specs_per_s"`
}

// baselineFile is the subset of BENCH_platform.json the gate reads.
type baselineFile struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	nsPerOp     float64
	bPerOp      float64
	allocsPerOp float64
	specsPerS   float64
	hasMem      bool
}

// benchLine matches `BenchmarkName[-P]  N  X ns/op [...]` output lines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts the ns/op, B/op and allocs/op figures from `go test
// -bench` output. Sub-benchmark names keep their slashes; the -GOMAXPROCS
// suffix is stripped so names match the snapshot's keys.
func parseBench(lines []string) map[string]measurement {
	out := make(map[string]measurement)
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name, rest := m[1], m[2]
		fields := strings.Fields(rest)
		var meas measurement
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				meas.nsPerOp = v
				seen = true
			case "B/op":
				meas.bPerOp = v
				meas.hasMem = true
			case "allocs/op":
				meas.allocsPerOp = v
				meas.hasMem = true
			case "specs/s":
				meas.specsPerS = v
			}
		}
		if seen {
			out[name] = meas
		}
	}
	return out
}

// gate compares measurements against the snapshot, returning human-readable
// failures. Benchmarks missing from either side are skipped; `require`
// names must all have been gated.
func gate(meas map[string]measurement, base map[string]baselineEntry, tol float64, require []string) (failures, notes []string) {
	gated := make(map[string]bool)
	for name, b := range base {
		got, ok := meas[name]
		if !ok {
			continue
		}
		want := 0.0
		switch {
		case b.NsPerOp != nil:
			want = *b.NsPerOp
		case b.SPerOp != nil:
			want = *b.SPerOp * 1e9
		}
		if want > 0 {
			gated[name] = true
			limit := want * (1 + tol)
			switch {
			case got.nsPerOp > limit:
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%% (limit %.0f)",
					name, got.nsPerOp, want, tol*100, limit))
			case got.nsPerOp < want/(1+tol):
				notes = append(notes, fmt.Sprintf(
					"%s: %.0f ns/op is >%.0f%% faster than baseline %.0f — consider refreshing BENCH_platform.json",
					name, got.nsPerOp, tol*100, want))
			}
		}
		if b.SpecsPerS != nil && got.specsPerS > 0 {
			gated[name] = true
			floor := *b.SpecsPerS / (1 + tol)
			switch {
			case got.specsPerS < floor:
				failures = append(failures, fmt.Sprintf(
					"%s: %.1f specs/s falls below baseline %.1f specs/s by more than %.0f%% (floor %.1f)",
					name, got.specsPerS, *b.SpecsPerS, tol*100, floor))
			case got.specsPerS > *b.SpecsPerS*(1+tol):
				notes = append(notes, fmt.Sprintf(
					"%s: %.1f specs/s is >%.0f%% faster than baseline %.1f — consider refreshing BENCH_platform.json",
					name, got.specsPerS, tol*100, *b.SpecsPerS))
			}
		}
		if got.hasMem && b.AllocsPerOp != nil {
			// Allow a couple of allocations of warm-up slack, exactly like
			// the historical awk guard.
			if allowed := *b.AllocsPerOp + 2; got.allocsPerOp > allowed {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f allocs/op exceeds baseline %.0f (+2 slack)",
					name, got.allocsPerOp, *b.AllocsPerOp))
			}
		}
		if got.hasMem && b.BPerOp != nil {
			if allowed := *b.BPerOp*(1+tol) + 16; got.bPerOp > allowed {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f B/op exceeds baseline %.0f (tolerance %.0f%% + 16 B slack)",
					name, got.bPerOp, *b.BPerOp, tol*100))
			}
		}
	}
	for _, name := range require {
		if !gated[name] {
			failures = append(failures, fmt.Sprintf(
				"%s: required benchmark missing from the measurements or the baseline", name))
		}
	}
	return failures, notes
}

// flatSmall and flatLarge name the two ends of the directory's size axis.
const (
	flatSmall = "BenchmarkDirectoryNearest/16x8/"
	flatLarge = "BenchmarkDirectoryNearest/256x256/"
)

// flatness fails every 256x256 directory row that costs more than twice its
// 16x8 counterpart from the same run: a nearest-owner lookup searches
// outward from the asking node, so a 512-fold larger fabric must not make it
// dearer. Relative within one run, so it needs no snapshot and no tolerance
// for the hardware.
func flatness(meas map[string]measurement) (failures []string) {
	for name, large := range meas {
		variant, ok := strings.CutPrefix(name, flatLarge)
		if !ok {
			continue
		}
		small, ok := meas[flatSmall+variant]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no %s%s row to compare with", name, flatSmall, variant))
		} else if large.nsPerOp > 2*small.nsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: %.1f ns/op is more than twice the %.1f ns/op of %s%s — lookup cost grows with fabric size",
				name, large.nsPerOp, small.nsPerOp, flatSmall, variant))
		}
	}
	slices.Sort(failures)
	return failures
}

func run() error {
	benchPath := flag.String("bench", "", "path to `go test -bench` output")
	basePath := flag.String("baseline", "BENCH_platform.json", "path to the benchmark snapshot")
	tol := flag.Float64("tol", 0.25, "relative ns/op tolerance before the gate fails")
	require := flag.String("require", "", "comma-separated benchmark names that must be gated")
	flag.Parse()
	if *benchPath == "" {
		return fmt.Errorf("-bench is required")
	}

	bf, err := os.Open(*benchPath)
	if err != nil {
		return err
	}
	defer bf.Close()
	var lines []string
	sc := bufio.NewScanner(bf)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return err
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *basePath, err)
	}

	var req []string
	if *require != "" {
		for _, r := range strings.Split(*require, ",") {
			if r = strings.TrimSpace(r); r != "" {
				req = append(req, r)
			}
		}
	}

	meas := parseBench(lines)
	failures, notes := gate(meas, base.Benchmarks, *tol, req)
	failures = append(failures, flatness(meas)...)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond the ±%.0f%% gate", len(failures), *tol*100)
	}
	fmt.Println("benchgate: all gated benchmarks within tolerance")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
