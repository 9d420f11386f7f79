package main

import (
	"fmt"
	"time"

	"centurion/internal/experiments"
	"centurion/internal/sim"
)

// paper16x8_cold: the paper's experiment with every shortcut off. A block of
// specs (none/ni/ffw x faults {0, 8, 16, 32 @ 500 ms} x seeds, 1000 ms, 16x8
// mesh) runs serially through experiments.Run with warm-start disabled, so
// the cold 128-node step, Platform.Reset pooling, fault rerouting and the
// settling/recovery analysis do all the work.

// paperFaults are the block's fault counts. Run cost clusters by fault count
// (a 32-node injection costs more than a fault-free run); with these four
// the median operation falls inside the 8-fault cluster and the p90 inside
// the 32-fault one, not in a gap between clusters where a percentile jumps
// from seed to seed.
var paperFaults = []int{0, 8, 16, 32}

var paperModelNames = map[experiments.Model]string{
	experiments.ModelNone: "none",
	experiments.ModelNI:   "ni",
	experiments.ModelFFW:  "ffw",
}

// paperSpecs is the block one rep executes, in schedule order.
func paperSpecs(seed uint64, seeds int) []experiments.Spec {
	var specs []experiments.Spec
	for _, m := range experiments.Models {
		for _, faults := range paperFaults {
			for s := 0; s < seeds; s++ {
				sp := experiments.DefaultSpec(m, seed*1000+uint64(s)+1)
				if faults > 0 {
					sp.NumFaults = faults
					sp.FaultAtMs = 500
				}
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

// foldResult folds every simulated figure of one run.
func foldResult(f *folder, r *experiments.Result) {
	c := r.Counters
	for _, v := range []uint64{c.InstancesStarted, c.InstancesCompleted, c.InstancesLost,
		c.TaskSwitches, c.PacketsDropped, c.PacketsRescued} {
		f.u64(v)
	}
	f.f64(r.SettlingMs)
	f.flag(r.Settled)
	f.f64(r.RecoveryMs)
	f.flag(r.Recovered)
	f.f64(r.SteadyRate)
	f.f64(r.PostFaultRate)
	f.f64s(r.Throughput.Values)
	f.f64s(r.NodesActive.Values)
	f.f64s(r.Switches.Values)
}

func paperKind(sp experiments.Spec) string {
	k := paperModelNames[sp.Model]
	if sp.NumFaults > 0 {
		k += "_faulted"
	}
	return k
}

func runPaper(seed uint64, z sizing, tr *tracer) *outcome {
	o := &outcome{workload: "paper16x8_cold"}
	prev := experiments.SetWarmStart(false)
	defer experiments.SetWarmStart(prev)

	// The time budget buys seeds, not repetitions: run cost depends on where
	// the faults land and how the colony adapts, so a block of many seeds per
	// (model, faults) cell is what makes two seeds' blocks cost the same. The
	// block is timed once; a second, untimed pass repeats every eighth spec to
	// check that the simulation repeats bit for bit.
	seedsPerCell := z.n(24, 1, 2)
	specs := paperSpecs(seed, seedsPerCell)
	passes, verifyStride := 3, 8
	if z.quick {
		passes, verifyStride = 1, 3
	}

	// Set-up: untimed passes over two seeds of every cell, which fill the
	// platform pools and fault in the heap.
	stride := (seedsPerCell + 1) / 2
	for p := 0; p < passes; p++ {
		t := time.Now()
		for i := 0; i < len(specs); i += stride {
			r := experiments.Run(specs[i])
			r.Release()
		}
		o.setup = append(o.setup, since(t))
	}

	runOne := func(i int) (digest string, lat float64) {
		sp := specs[i]
		id := tr.begin("experiments.run."+paperKind(sp), fmt.Sprintf("op%d", i), 0)
		t := time.Now()
		r := experiments.Run(sp)
		lat = since(t)
		tr.end(id)
		f := newFolder()
		foldResult(f, &r)
		r.Release()
		return f.sum(), lat
	}

	pool0 := experiments.PoolStats()
	tr.enable(true)
	t := time.Now()
	all := newFolder()
	digests := make([]string, len(specs))
	byKind := map[string][]float64{}
	for i, sp := range specs {
		var lat float64
		digests[i], lat = runOne(i)
		all.str(digests[i])
		o.opLat = append(o.opLat, lat)
		byKind[paperKind(sp)] = append(byKind[paperKind(sp)], lat)
	}
	o.wall = since(t)
	tr.enable(false)
	pool1 := experiments.PoolStats()
	o.attempted = len(specs)
	o.digest = all.sum()

	for i := 0; i < len(specs); i += verifyStride {
		if d, _ := runOne(i); d != digests[i] {
			o.failed++
			o.fail(fmt.Sprintf("op %d: a repeat of the run gave different results", i))
		}
	}

	o.opsInWall = len(specs)
	o.nodeTicksInWall = float64(len(specs)) * nodes16x8 * 1000 * sim.TicksPerMs
	o.heapMB = liveHeapMB()

	if tr != nil {
		created := float64(pool1.PlatformsCreated - pool0.PlatformsCreated)
		reused := float64(pool1.PlatformsReused - pool0.PlatformsReused)
		o.layers = map[string]float64{
			"experiments.run_ms_none":        median(byKind["none"]) * 1e3,
			"experiments.run_ms_ni":          median(byKind["ni"]) * 1e3,
			"experiments.run_ms_ffw":         median(byKind["ffw"]) * 1e3,
			"experiments.run_ms_ffw_faulted": median(byKind["ffw_faulted"]) * 1e3,
			"experiments.pool_reuse_ratio":   reused / (reused + created),
		}
	}
	return o
}
