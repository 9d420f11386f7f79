// Command bench is the repository's fixed-work benchmark: four workloads
// driven through exported functions only, six end-to-end metrics per
// workload from an untraced run, and a traced mode that reports per-layer
// metrics from the benchmark's own wrappers. See README.md beside this file.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds the seed-1 digest of every workload at the calibrated size
// ("full") and at the smoke size ("quick").
type golden struct {
	Full  map[string]string `json:"full"`
	Quick map[string]string `json:"quick"`
}

// goldenSeed is the seed the golden digests were taken at.
const goldenSeed = 1

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	tmpdir   string
	traceOut string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", goldenSeed, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", calibratedSeconds, "nominal length of the timed phase; scales the fixed operation counts")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.quick, "quick", false, "smoke size: one rep, a twentieth of the operations")
	flag.StringVar(&o.tmpdir, "tmpdir", filepath.Join(".bench_build", "tmp"), "directory for stores, journals and probes")
	flag.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default <tmpdir>/../trace-<workload>.json)")
	flag.StringVar(&o.out, "out", "", "append this run's result as one JSON line to the file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 when any metric is worse beyond its bound")
	updateGolden := flag.String("update-golden", "", "run every workload at seed 1 in both sizes and write the digests to this file")
	contract := flag.Bool("contract", false, "print BENCHMARK.json as this build defines it")
	flag.Parse()

	switch {
	case *contract:
		os.Stdout.Write(contractJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.jsonl B.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *updateGolden != "":
		if err := writeGolden(*updateGolden, o.tmpdir); err != nil {
			fatal(err.Error())
		}
		return
	}
	res, err := runBenchmark(o)
	if err != nil {
		fatal(err.Error())
	}
	res.print(os.Stdout)
	if o.out != "" {
		if err := res.appendTo(o.out, o); err != nil {
			fatal(err.Error())
		}
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// runWorkload executes one workload at the given size.
func runWorkload(name string, seed uint64, z sizing, tr *tracer, tmp string) (*outcome, error) {
	switch name {
	case "paper16x8_cold":
		return runPaper(seed, z, tr), nil
	case "fabric64_ffw":
		return runFabric(seed, z, tr), nil
	case "serve_mix":
		return runServe(seed, z, tr, tmp), nil
	case "dispatch_sweep":
		return runDispatch(seed, z, tr, tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames(), ", "))
}

// contractJSON renders BENCHMARK.json from the tables in metrics.go.
func contractJSON() []byte {
	data, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bounds: the field is omitted
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, calibratedSeconds, workloads, endToEnd, perLayer}, "", "  ")
	if err != nil {
		panic(err) // plain data
	}
	return append(data, '\n')
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs  []metricDef
	notes []string
}

// runBenchmark runs the named workload and shapes its outcome into the
// metrics the mode asks for.
func runBenchmark(o options) (*result, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.tmpdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.tmpdir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	z := sizing{scale: o.seconds / calibratedSeconds, quick: o.quick}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	out, err := runWorkload(o.workload, o.seed, z, tr, tmp)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	res.notes = append(res.notes, fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH))
	res.notes = append(res.notes, fmt.Sprintf("%s seed=%d: %d ops attempted, %d failed, %d latency samples, sim_digest %s",
		out.workload, o.seed, out.attempted, out.failed, len(out.opLat), out.digest))
	for _, p := range out.problems {
		res.notes = append(res.notes, "problem: "+p)
	}

	res.Correct = out.failed == 0 && len(out.problems) == 0 && out.attempted > 0
	if want, ok := goldenFor(o, z); ok && want != out.digest {
		// A simulator change must leave simulated statistics identical: a
		// digest mismatch fails every operation of the workload.
		res.Correct = false
		res.Failed = res.Attempted
		res.notes = append(res.notes, fmt.Sprintf("problem: sim_digest differs from golden %s", want))
	}

	values := endToEndValues(out)
	res.defs = endToEnd
	if tr != nil {
		res.defs = perLayer
		values = out.layers
		if values == nil { // the workload gave up in set-up
			values = map[string]float64{}
		}
		values["trace.ops_per_s"] = float64(out.opsInWall) / out.wall
		// The layers the named workload does not exercise are measured on
		// smoke-sized passes of the workloads that do.
		for _, w := range workloads {
			if w.Name == o.workload {
				continue
			}
			other, err := runWorkload(w.Name, o.seed, sizing{quick: true}, newTracer(), tmp)
			if err != nil {
				return nil, err
			}
			for _, p := range other.problems {
				res.notes = append(res.notes, fmt.Sprintf("problem: %s smoke pass: %s", w.Name, p))
			}
			for k, v := range other.layers {
				if _, ok := values[k]; !ok {
					values[k] = v
				}
			}
		}
		directProbes(values, o.seed)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(filepath.Dir(o.tmpdir), "trace-"+o.workload+".json")
		}
		spans := tr.snapshot()
		if err := checkNesting(spans); err != nil {
			res.Correct = false
			res.notes = append(res.notes, "problem: trace: "+err.Error())
		}
		if err := writeTraceFile(path, traceFile{o.workload, o.seed, values, spans}); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("trace: %d spans written to %s", len(spans), path))
	}
	for _, d := range res.defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("problem: metric %s was not measured", d.Name))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, nil
}

// endToEndValues derives the six user-visible figures from an outcome.
func endToEndValues(o *outcome) map[string]float64 {
	lat := o.opLat
	if o.failed > 0 {
		// A failed operation counts as missing every latency figure.
		lat = append([]float64(nil), lat...)
		for i := 0; i < o.failed; i++ {
			lat = append(lat, math.MaxFloat32)
		}
	}
	return map[string]float64{
		"setup_s":           median(o.setup),
		"ops_per_s":         float64(o.opsInWall) / o.wall,
		"ns_per_node_tick":  o.wall * 1e9 / o.nodeTicksInWall,
		"op_latency_p50_ms": percentile(lat, 0.50) * 1e3,
		"op_latency_p90_ms": percentile(lat, 0.90) * 1e3,
		"live_heap_mb":      o.heapMB,
	}
}

// goldenFor returns the digest the run must reproduce, when one is pinned
// for its seed and size.
func goldenFor(o options, z sizing) (string, bool) {
	if o.seed != goldenSeed {
		return "", false
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", false
	}
	switch {
	case z.quick:
		d, ok := g.Quick[o.workload]
		return d, ok
	case z.scale == 1:
		d, ok := g.Full[o.workload]
		return d, ok
	}
	return "", false
}

// writeGolden regenerates the golden digests.
func writeGolden(path, tmpdir string) error {
	g := golden{Full: map[string]string{}, Quick: map[string]string{}}
	if err := os.MkdirAll(tmpdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpdir, "golden-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, w := range workloads {
		for _, quick := range []bool{true, false} {
			out, err := runWorkload(w.Name, goldenSeed, sizing{scale: 1, quick: quick}, nil, tmp)
			if err != nil {
				return err
			}
			if out.failed != 0 || len(out.problems) != 0 {
				return fmt.Errorf("%s: refusing to pin a digest from a failing run: %v", w.Name, out.problems)
			}
			if quick {
				g.Quick[w.Name] = out.digest
			} else {
				g.Full[w.Name] = out.digest
			}
			fmt.Fprintf(os.Stderr, "%s quick=%v %s\n", w.Name, quick, out.digest)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the human-readable report and, last, the contract line.
func (r *result) print(w *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}

// record is one line of an -out file.
type record struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Trace    int                    `json:"trace"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func (r *result) appendTo(path string, o options) error {
	line, err := json.Marshal(record{o.workload, o.seed, o.trace, r.Correct, r.Metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
