package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"centurion/internal/experiments"
	"centurion/internal/server"
	"centurion/internal/sim"
)

// serve_mix: the service under a closed loop of two clients walking a
// seeded, fixed schedule of requests over 16x8/200 ms FFW specs. Decode →
// cache → store read / store write+fsync → encode all appear, reads beside
// writes on the same store, while the simulator is a minority of wall time.

type opClass int

const (
	classHit      opClass = iota // POST ?wait=1 of a hot-set spec: LRU hit
	classGet                     // GET the client's last job id
	classStoreHit                // POST of a spec only the LogStore holds
	classMiss                    // POST of a fresh seed: simulate + durable Put
	classSweep                   // 6-cell POST /v1/sweep, fresh seeds
	numClasses
)

var classNames = [numClasses]string{"hit", "get", "store_hit", "miss", "sweep"}

// blockMix is the composition of every 100 requests. The schedule is
// stratified by block so the gaps between reuses of a key are bounded, which
// is what keeps each request's cache outcome a function of the schedule and
// not of how the two clients interleave.
var blockMix = [numClasses]int{55, 15, 10, 18, 2}

const (
	serveRunMs   = 200
	sweepCellMs  = 100
	nodes16x8    = 128
	sampleMisses = 12
	sampleSweeps = 2
)

// serveOp is one scheduled request.
type serveOp struct {
	class opClass
	// spec and key describe the run a POST asks for (zero for get/sweep).
	spec server.RunSpec
	key  string
	body []byte
	// cells are the specs a sweep expands to, in row order, and cellKeys
	// their canonical keys.
	cells    []server.RunSpec
	cellKeys []string
}

func ffwSpec(seed uint64, ms int) server.RunSpec {
	s := server.RunSpec{Model: "ffw", Seed: seed, DurationMs: ms}
	if err := s.Canonicalize(); err != nil {
		panic(err) // the benchmark's own specs are valid by construction
	}
	return s
}

func runOp(class opClass, spec server.RunSpec) serveOp {
	body, _ := json.Marshal(spec)
	return serveOp{class: class, spec: spec, key: spec.CanonicalKey(), body: body}
}

// sweepOp builds a sweep request and the cell specs the server derives from
// it (handleSweep's rules: faults inject halfway through the run).
func sweepOp(seed uint64, ms int, models []string, faultCounts []int) serveOp {
	req := server.SweepRequest{
		Spec:        server.RunSpec{Seed: seed, DurationMs: ms},
		Models:      models,
		FaultCounts: faultCounts,
		Runs:        1,
	}
	body, _ := json.Marshal(req)
	op := serveOp{class: classSweep, body: body}
	for _, m := range models {
		for _, fc := range faultCounts {
			c := server.RunSpec{Model: m, Seed: seed, DurationMs: ms, Runs: 1, NumFaults: fc}
			if fc > 0 {
				c.FaultAtMs = ms / 2
			}
			if err := c.Canonicalize(); err != nil {
				panic(err)
			}
			op.cells = append(op.cells, c)
			op.cellKeys = append(op.cellKeys, c.CanonicalKey())
		}
	}
	return op
}

type serveSets struct {
	hot, stored []serveOp
}

// serveSchedule lays out the fixed request list of every client for a seed.
// Each client owns a disjoint half of the hot and stored sets and walks them
// round-robin, so the number of other keys touched between two uses of one
// key is bounded by the client's own block structure. The list is client-major:
// client c walks the c-th of its equal parts.
func serveSchedule(seed uint64, blocks, hot, stored int) (serveSets, []serveOp) {
	base := seed * 10_000_000
	var sets serveSets
	for i := 0; i < hot; i++ {
		sets.hot = append(sets.hot, runOp(classHit, ffwSpec(base+1+uint64(i), serveRunMs)))
	}
	for i := 0; i < stored; i++ {
		sets.stored = append(sets.stored, runOp(classStoreHit, ffwSpec(base+10_000+uint64(i), serveRunMs)))
	}
	var ops []serveOp
	nMiss, nSweep := 0, 0
	for c := 0; c < clients; c++ {
		rng := sim.NewRNG(seed ^ 0x5e57e ^ uint64(c)<<32)
		first := len(ops)
		nHit, nStored := 0, 0
		for b := 0; b < blocks; b++ {
			var block []opClass
			for class, n := range blockMix {
				for i := 0; i < n; i++ {
					block = append(block, opClass(class))
				}
			}
			for _, pi := range rng.Perm(len(block)) {
				switch block[pi] {
				case classHit:
					ops = append(ops, sets.hot[(c+clients*nHit)%hot])
					nHit++
				case classStoreHit:
					ops = append(ops, sets.stored[(c+clients*nStored)%stored])
					nStored++
				case classMiss:
					ops = append(ops, runOp(classMiss, ffwSpec(base+100_000+uint64(nMiss), serveRunMs)))
					nMiss++
				case classSweep:
					ops = append(ops, sweepOp(base+5_000_000+uint64(nSweep), sweepCellMs,
						[]string{"none", "ni", "ffw"}, []int{0, 8}))
					nSweep++
				default:
					ops = append(ops, serveOp{class: classGet})
				}
			}
		}
		// The client's first request must give it a job to GET.
		for i := first; i < len(ops); i++ {
			if ops[i].class == classHit {
				ops[first], ops[i] = ops[i], ops[first]
				break
			}
		}
	}
	return sets, ops
}

func foldRunResult(f *folder, r *server.RunResult) {
	f.str(r.Key)
	for _, s := range r.Runs {
		f.u64(s.Seed)
		f.f64(s.SettlingMs)
		f.flag(s.Settled)
		f.f64(s.RecoveryMs)
		f.flag(s.Recovered)
		f.f64(s.SteadyRate)
		f.f64(s.PostFaultRate)
		f.u64(s.InstancesCompleted)
		f.u64(s.TaskSwitches)
		f.u64(s.PacketsDropped)
	}
	foldAggregate(f, r.Aggregate)
	if r.Series != nil {
		f.f64s(r.Series.Throughput)
		f.f64s(r.Series.NodesActive)
		f.f64s(r.Series.Switches)
	}
}

func foldAggregate(f *folder, a server.Aggregate) {
	f.u64(uint64(a.Runs))
	f.u64(uint64(a.SettledRuns))
	f.u64(uint64(a.RecoveredRuns))
	for _, s := range []server.Stat{a.SteadyRate, a.PostFaultRate, a.SettlingMs, a.RecoveryMs} {
		f.f64(s.Mean)
		f.f64(s.CI95)
	}
}

func runResultDigest(r *server.RunResult) string {
	f := newFolder()
	foldRunResult(f, r)
	return f.sum()
}

// sweepDigest folds a sweep response's rows in row order.
func sweepDigest(rows []server.SweepRow) string {
	f := newFolder()
	for _, row := range rows {
		f.str(row.Model)
		f.u64(uint64(row.Faults))
		foldAggregate(f, row.Aggregate)
	}
	return f.sum()
}

// localSweepDigest is what a sweep's response must fold to, computed by
// executing its cells in process.
func localSweepDigest(op serveOp) (string, error) {
	f := newFolder()
	for _, c := range op.cells {
		res, err := server.Execute(context.Background(), c, nil)
		if err != nil {
			return "", err
		}
		f.str(c.Model)
		f.u64(uint64(c.NumFaults))
		foldAggregate(f, res.Aggregate)
	}
	return f.sum(), nil
}

// opResult is what a client records for one scheduled request.
type opResult struct {
	lat    float64
	digest string
	bytes  int
	err    string
}

// populate POSTs every spec of a set through the closed-loop clients and
// returns the digest of each result by key.
func populate(r *rig, set []serveOp) (map[string]string, error) {
	digests := make([]string, len(set))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(set); i += clients {
				status, body, _, err := r.do(request{method: "POST", path: "/v1/runs?wait=1", body: set[i].body})
				var st server.JobStatus
				if err == nil {
					err = json.Unmarshal(body, &st)
				}
				if err == nil && (status != http.StatusOK || st.Result == nil) {
					err = fmt.Errorf("populate: status %d, state %s", status, st.State)
				}
				if err != nil {
					errs[c] = err
					return
				}
				digests[i] = runResultDigest(st.Result)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]string, len(set))
	for i, op := range set {
		out[op.key] = digests[i]
	}
	return out, nil
}

// serveSetup is one set-up pass: a first server lifetime writes the stored
// set to a fresh LogStore, then the server under test reopens that store
// with an empty LRU and is warmed with the hot set.
func serveSetup(tmp string, sets serveSets, tr *tracer) (*rig, map[string]string, error) {
	// Every pass starts from the same state: the warm-start cache outlives
	// servers, and would turn the second pass's simulations into replays.
	experiments.ResetWarmStart()
	dir, err := os.MkdirTemp(tmp, "serve-*")
	if err != nil {
		return nil, nil, err
	}
	first, err := openRig(rigConfig{dir: dir})
	if err != nil {
		return nil, nil, err
	}
	known, err := populate(first, sets.stored)
	first.close()
	if err != nil {
		return nil, nil, err
	}
	r, err := openRig(rigConfig{dir: dir, tr: tr})
	if err != nil {
		return nil, nil, err
	}
	hot, err := populate(r, sets.hot)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	for k, d := range hot {
		known[k] = d
	}
	return r, known, nil
}

func runServe(seed uint64, z sizing, tr *tracer, tmp string) (o *outcome) {
	o = &outcome{workload: "serve_mix"}
	experiments.SetWarmStart(true)

	blocks := z.n(55, 1, 5) // per client
	hot, stored := 32, 160
	if z.quick {
		hot, stored = 8, 20
	}
	sets, ops := serveSchedule(seed, blocks, hot, stored)

	var r *rig
	var known map[string]string
	for p := 0; p < z.n(3, 1, 3); p++ {
		if r != nil {
			r.close()
			os.RemoveAll(r.cfg.dir)
		}
		t := time.Now()
		var err error
		if r, known, err = serveSetup(tmp, sets, tr); err != nil {
			o.fail("set-up: " + err.Error())
			return o
		}
		o.setup = append(o.setup, since(t))
	}
	defer func() {
		r.close()
		os.RemoveAll(r.cfg.dir)
	}()

	stats0 := r.srv.Engine().Stats()
	warm0 := experiments.WarmStats()
	results := make([]opResult, len(ops))
	tr.enable(true)
	t := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveClient(r, tr, c, ops, known, results)
		}()
	}
	wg.Wait()
	o.wall = since(t)
	tr.enable(false)
	o.heapMB = liveHeapMB()
	stats1 := r.srv.Engine().Stats()
	warm1 := experiments.WarmStats()

	// Fold in schedule order, never completion order.
	all := newFolder()
	byClass := make([][]float64, numClasses)
	var hitBytes []float64
	var missIdx, sweepIdx []int
	for i, res := range results {
		o.attempted++
		if res.err != "" {
			o.failed++
			o.fail(fmt.Sprintf("op %d (%s): %s", i, classNames[ops[i].class], res.err))
			continue
		}
		all.str(res.digest)
		o.opLat = append(o.opLat, res.lat)
		c := ops[i].class
		byClass[c] = append(byClass[c], res.lat)
		switch c {
		case classHit:
			hitBytes = append(hitBytes, float64(res.bytes))
		case classMiss:
			missIdx = append(missIdx, i)
			o.nodeTicksInWall += nodes16x8 * serveRunMs * sim.TicksPerMs
		case classSweep:
			sweepIdx = append(sweepIdx, i)
			o.nodeTicksInWall += float64(len(ops[i].cells)) * nodes16x8 * sweepCellMs * sim.TicksPerMs
		}
	}
	o.digest = all.sum()
	o.opsInWall = len(ops)

	// Simulated results that no earlier response vouches for are checked
	// against in-process execution on an evenly spread sample.
	for _, i := range spread(missIdx, sampleMisses) {
		res, err := server.Execute(context.Background(), ops[i].spec, nil)
		if err != nil || runResultDigest(res) != results[i].digest {
			o.failed++
			o.fail(fmt.Sprintf("op %d (miss): response differs from in-process execution", i))
		}
	}
	for _, i := range spread(sweepIdx, sampleSweeps) {
		if d, err := localSweepDigest(ops[i]); err != nil || d != results[i].digest {
			o.failed++
			o.fail(fmt.Sprintf("op %d (sweep): response differs from in-process execution", i))
		}
	}

	if tr != nil {
		o.layers = map[string]float64{
			"server.hit_latency_p99_ms":  percentile(byClass[classHit], 0.99) * 1e3,
			"server.miss_latency_p99_ms": percentile(byClass[classMiss], 0.99) * 1e3,
			"server.response_bytes_hit":  median(hitBytes),
			"server.http_overhead_us_p50": medianPairedGap(tr.snapshot(),
				"client.hit", "server.handler.hit") * 1e6,
			"server.handler_hit_us_p50":       median(tr.durations("server.handler.hit")) * 1e6,
			"server.handler_get_us_p50":       median(tr.durations("server.handler.get")) * 1e6,
			"server.handler_store_hit_us_p50": median(tr.durations("server.handler.store_hit")) * 1e6,
			"server.handler_miss_ms_p50":      median(tr.durations("server.handler.miss")) * 1e3,
			"server.handler_sweep_ms_p50":     median(tr.durations("server.handler.sweep")) * 1e3,
		}
		lookups := float64(stats1.Cache.Hits + stats1.Cache.Misses - stats0.Cache.Hits - stats0.Cache.Misses)
		o.layers["server.cache_hit_ratio"] = float64(stats1.Cache.Hits-stats0.Cache.Hits) / lookups
		o.layers["server.store_hit_ratio"] = float64(stats1.StoreHits-stats0.StoreHits) / lookups
		warmLookups := float64(warm1.Hits + warm1.Misses - warm0.Hits - warm0.Misses)
		o.layers["experiments.warm_hit_ratio"] = float64(warm1.Hits-warm0.Hits) / warmLookups
		storeLayers(o.layers, r, o.wall)
	}
	return o
}

// spread picks up to n entries of idx at even strides.
func spread(idx []int, n int) []int {
	if len(idx) <= n {
		return idx
	}
	out := make([]int, n)
	for i := range out {
		out[i] = idx[i*len(idx)/n]
	}
	return out
}

// serveClient walks client c's part of the schedule.
func serveClient(r *rig, tr *tracer, c int, ops []serveOp, known map[string]string, results []opResult) {
	lastJob, lastKey := "", ""
	per := len(ops) / clients
	for i := c * per; i < (c+1)*per; i++ {
		op := ops[i]
		class := classNames[op.class]
		opID := fmt.Sprintf("op%d", i)
		q := request{method: "POST", path: "/v1/runs?wait=1", body: op.body, op: opID, class: class}
		switch op.class {
		case classGet:
			q.method, q.path, q.body = "GET", "/v1/runs/"+lastJob, nil
		case classSweep:
			q.path = "/v1/sweep"
		}
		q.span = tr.begin("client."+class, opID, 0)
		for _, key := range op.cellKeys {
			tr.own(key, opID, q.span)
		}
		if op.key != "" {
			tr.own(op.key, opID, q.span)
		}
		status, body, lat, err := r.do(q)
		tr.end(q.span)

		res := opResult{lat: lat, bytes: len(body)}
		switch {
		case err != nil:
			res.err = err.Error()
		case status != http.StatusOK:
			res.err = fmt.Sprintf("status %d", status)
		case op.class == classSweep:
			res.digest, res.err = checkSweep(body, len(op.cells))
		default:
			wantKey := op.key
			if op.class == classGet {
				wantKey = lastKey
			}
			var st server.JobStatus
			res.digest, res.err = checkRun(body, op.class, wantKey, known, &st)
			if op.class != classGet {
				lastJob, lastKey = st.ID, st.Key
			}
		}
		results[i] = res
	}
}

// checkRun verifies a run (or job) response against what the schedule says
// it must be.
func checkRun(body []byte, class opClass, wantKey string, known map[string]string, st *server.JobStatus) (digest, problem string) {
	if err := json.Unmarshal(body, st); err != nil {
		return "", err.Error()
	}
	if st.State != server.JobDone || st.Result == nil {
		return "", fmt.Sprintf("state %s", st.State)
	}
	if st.Key != wantKey {
		return "", "response is for another spec"
	}
	wantCache, wantStore := class == classHit, class == classStoreHit
	if class != classGet && (st.CacheHit != wantCache || st.StoreHit != wantStore) {
		return "", fmt.Sprintf("cache_hit=%v store_hit=%v", st.CacheHit, st.StoreHit)
	}
	digest = runResultDigest(st.Result)
	if want, ok := known[st.Key]; ok && want != digest {
		return "", "result differs from the one first computed for this spec"
	}
	return digest, ""
}

// checkSweep verifies a sweep response: every cell present and simulated.
func checkSweep(body []byte, cells int) (digest, problem string) {
	var sr server.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return "", err.Error()
	}
	if len(sr.Rows) != cells {
		return "", fmt.Sprintf("%d rows, want %d", len(sr.Rows), cells)
	}
	for _, row := range sr.Rows {
		if row.CacheHit || row.StoreHit {
			return "", "fresh sweep cell served from a cache"
		}
	}
	return sweepDigest(sr.Rows), ""
}

// medianPairedGap is the median over operations of (outer span − inner
// span), pairing spans by operation id.
func medianPairedGap(spans []span, outer, inner string) float64 {
	in := make(map[string]int64)
	for _, s := range spans {
		if s.Name == inner {
			in[s.Op] = s.EndNs - s.StartNs
		}
	}
	var gaps []float64
	for _, s := range spans {
		if d, ok := in[s.Op]; ok && s.Name == outer {
			gaps = append(gaps, float64(s.EndNs-s.StartNs-d)/1e9)
		}
	}
	return median(gaps)
}

// storeLayers derives the store's per-layer figures from the traced store.
func storeLayers(layers map[string]float64, r *rig, wall float64) {
	tr := r.cfg.tr
	puts, gets := tr.durations("store.put"), tr.durations("store.get")
	busy := 0.0
	for _, d := range puts {
		busy += d
	}
	for _, d := range gets {
		busy += d
	}
	layers["store.put_us_p50"] = median(puts) * 1e6
	layers["store.put_us_p99"] = percentile(puts, 0.99) * 1e6
	layers["store.get_us_p50"] = median(gets) * 1e6
	layers["store.puts"] = float64(r.ts.puts.Load())
	layers["store.put_bytes"] = float64(r.ts.putBytes.Load())
	layers["store.busy_share"] = busy / wall
	if us, err := fsyncProbeUs(r.cfg.dir); err == nil {
		layers["store.fsync_probe_us"] = us
	}
}
