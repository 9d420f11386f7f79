package main

import (
	"encoding/json"
	"time"

	"centurion/internal/aim"
	platform "centurion/internal/centurion"
	"centurion/internal/experiments"
	"centurion/internal/faults"
	"centurion/internal/metrics"
	"centurion/internal/noc"
	"centurion/internal/node"
	"centurion/internal/server"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// Direct probes: timed calls into public functions on small fixed inputs,
// run after a traced workload's timed phase and after its digest is taken.
// They do not depend on the workload, so every traced run reports them.

// timeMedian runs fn reps times and returns the median wall time, seconds.
func timeMedian(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = since(t)
	}
	return median(xs)
}

func config16x8(model string, seed uint64) platform.Config {
	switch model {
	case "ni":
		return platform.DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, seed)
	case "ffw":
		return platform.DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, seed)
	}
	return platform.DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, seed)
}

// directProbes fills every workload-independent per-layer metric.
func directProbes(layers map[string]float64, seed uint64) {
	layers["centurion.new_ms_16x8"] = timeMedian(5, func() { platform.New(config16x8("ffw", seed)) }) * 1e3

	// Steady-state step cost per model: settle 100 ms, then batches of steps.
	const stepBatch = 5000
	stepNs := map[string]float64{}
	var ffw *platform.Platform
	for _, model := range []string{"none", "ni", "ffw"} {
		p := platform.New(config16x8(model, seed))
		p.RunFor(sim.Ms(100), nil)
		stepNs[model] = timeMedian(5, func() {
			for i := 0; i < stepBatch; i++ {
				p.Step()
			}
		}) * 1e9 / stepBatch
		layers["centurion.step_ns_16x8_"+model] = stepNs[model]
		ffw = p
	}
	layers["aim.step_delta_ns_ni"] = stepNs["ni"] - stepNs["none"]
	layers["aim.step_delta_ns_ffw"] = stepNs["ffw"] - stepNs["none"]

	// Snapshot, restore and the checkpoint codec on the settled FFW platform.
	cp := ffw.Snapshot()
	layers["centurion.snapshot_us_16x8"] = timeMedian(51, func() { ffw.SnapshotInto(cp) }) * 1e6
	layers["centurion.restore_us_16x8"] = timeMedian(51, func() { ffw.Restore(cp) }) * 1e6
	var enc []byte
	layers["centurion.ckpt_encode_us_16x8"] = timeMedian(21, func() { enc = platform.EncodeCheckpoint(cp) }) * 1e6
	layers["centurion.ckpt_decode_us_16x8"] = timeMedian(21, func() {
		if _, err := platform.DecodeCheckpoint(enc); err != nil {
			panic(err) // decoding our own encoding cannot fail
		}
	}) * 1e6
	layers["centurion.ckpt_bytes_16x8"] = float64(len(enc))
	probeDirectory(layers, "16x8", ffw.Topo, ffw.Dir.Mapping())

	// Reset of a dirty platform, and a 32-node fault injection into a
	// running one; each sample needs a freshly dirtied platform.
	var resetUs, injectUs []float64
	rng := sim.NewRNG(seed ^ 0xfa17)
	for i := 0; i < 9; i++ {
		ffw.RunFor(sim.Ms(20), nil)
		t := time.Now()
		ffw.Reset(seed + uint64(i))
		resetUs = append(resetUs, since(t)*1e6)
		ffw.RunFor(sim.Ms(20), nil)
		dead := faults.RandomNodes(ffw.Topo, 32, rng)
		t = time.Now()
		ffw.InjectFaults(dead)
		injectUs = append(injectUs, since(t)*1e6)
		ffw.Reset(seed)
	}
	layers["centurion.reset_us_16x8"] = median(resetUs)
	layers["centurion.inject_faults_us_16x8_32"] = median(injectUs)

	layers["noc.tick_ns_per_router_16x8"] = probeNetworkTick(16, 8, 20000, seed)
	layers["noc.tick_ns_per_router_64x64"] = probeNetworkTick(64, 64, 1500, seed)

	// The settling detector on a real 1000-window throughput series.
	prev := experiments.SetWarmStart(false)
	res := experiments.Run(experiments.DefaultSpec(experiments.ModelFFW, seed))
	par := metrics.DefaultSettleParams()
	layers["metrics.settling_us"] = timeMedian(101, func() {
		metrics.SettlingTime(res.Throughput, 0, res.Throughput.Len(), par)
	}) * 1e6
	res.Release()

	// A warm-start fork: the sibling of a run whose settled prefix is
	// already cached restores the checkpoint and simulates only the tail.
	experiments.SetWarmStart(true)
	var forkMs []float64
	for i := uint64(0); i < 5; i++ {
		sp := experiments.DefaultSpec(experiments.ModelFFW, seed+1000+i)
		sp.NumFaults, sp.FaultAtMs = 8, 500
		r := experiments.Run(sp) // builds and caches the prefix
		r.Release()
		sp.NumFaults = 32
		t := time.Now()
		r = experiments.Run(sp)
		forkMs = append(forkMs, since(t)*1e3)
		r.Release()
	}
	layers["experiments.warm_fork_ms"] = median(forkMs)
	experiments.ResetWarmStart()
	experiments.SetWarmStart(prev)

	body, _ := json.Marshal(ffwSpec(seed, serveRunMs))
	const parseBatch = 200
	layers["server.parse_spec_us"] = timeMedian(11, func() {
		for i := 0; i < parseBatch; i++ {
			if _, err := server.ParseSpec(body); err != nil {
				panic(err)
			}
		}
	}) * 1e6 / parseBatch
}

// recycleSink consumes delivered packets straight back into the pool.
type recycleSink struct{ pool *noc.PacketPool }

func (s recycleSink) Accept(p *noc.Packet, _ sim.Tick) bool {
	s.pool.Put(p)
	return true
}

// probeNetworkTick times a standalone Network.Tick under seeded uniform
// traffic (one two-flit packet per 128 nodes every fourth tick) and returns
// nanoseconds per router per tick. One worker: the sinks recycle into the
// fabric-global pool, which tile workers must not share.
func probeNetworkTick(w, h, ticks int, seed uint64) float64 {
	cfg := noc.DefaultConfig()
	cfg.Workers = 1
	net := noc.NewNetwork(noc.NewTopology(w, h), cfg)
	pool := net.Pool()
	nodes := net.Topo.Nodes()
	for id := 0; id < nodes; id++ {
		net.Router(noc.NodeID(id)).SetSink(recycleSink{pool})
	}
	rng := sim.NewRNG(seed)
	var clk sim.Clock
	id := uint64(0)
	run := func(n int) {
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				for k := 0; k < nodes/128; k++ {
					src := noc.NodeID(rng.Intn(nodes))
					p := pool.Get()
					id++
					p.ID, p.Kind, p.Src, p.Dst = id, noc.Data, src, noc.NodeID(rng.Intn(nodes))
					p.Task, p.Flits = 2, 2
					if !net.Inject(src, p, clk.Now()) {
						pool.Put(p)
					}
				}
			}
			net.Tick(clk.Now())
			clk.Step()
		}
	}
	run(ticks / 4) // fill the fabric
	return timeMedian(3, func() { run(ticks) }) * 1e9 / float64(ticks*nodes)
}

// probeDirectory times the task directory's lookups on a live mapping:
// Nearest and NearestK with the memo cold (every anchor once after a
// flush), and NearestK right after a Directory.Set, which is what an
// adapting colony pays when any node switches task.
func probeDirectory(layers map[string]float64, label string, topo noc.Topology, mapping taskgraph.Mapping) {
	d := node.NewDirectory(topo, mapping)
	nodes := topo.Nodes()
	// forkK is the owner pool a fork asks for: 2n+2 at the paper's fan-out 3.
	const forkK = 8
	home := d.TaskOf(0)
	other := taskgraph.ForkWorker
	if home == other {
		other = taskgraph.ForkSink
	}
	flush := func() { // a task switch and back: the mapping is unchanged, the memo is stale
		d.Set(0, other)
		d.Set(0, home)
	}
	rounds := 1 + 2048/nodes
	var nearest, nearestK float64
	for r := 0; r < rounds; r++ {
		flush()
		t := time.Now()
		for from := 0; from < nodes; from++ {
			d.Nearest(taskgraph.ForkSink, noc.NodeID(from))
		}
		nearest += since(t)
		flush()
		t = time.Now()
		for from := 0; from < nodes; from++ {
			d.NearestK(taskgraph.ForkWorker, noc.NodeID(from), forkK)
		}
		nearestK += since(t)
	}
	perQuery := 1e9 / float64(rounds*nodes)
	layers["node.nearest_ns_"+label] = nearest * perQuery
	layers["node.nearestk_ns_"+label] = nearestK * perQuery

	// After a Set: the first lookup also pays for flushing a populated memo.
	var afterSet []float64
	for r := 0; r < 25; r++ {
		for from := 0; from < nodes && from < 256; from++ {
			d.NearestK(taskgraph.ForkWorker, noc.NodeID(from), forkK)
		}
		flush()
		t := time.Now()
		d.NearestK(taskgraph.ForkWorker, noc.NodeID(r*37%nodes), forkK)
		afterSet = append(afterSet, since(t)*1e9)
	}
	layers["node.nearestk_after_set_ns_"+label] = median(afterSet)
}
