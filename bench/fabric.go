package main

import (
	"fmt"
	"time"

	"centurion/internal/aim"
	platform "centurion/internal/centurion"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// fabric64_ffw: one 64x64 FFW platform with the default NoC tiling and
// worker count — what `centurion run -grid 64x64` gives a user. The task
// directory (Nearest/NearestK) and the tiled kernel dominate here and are
// negligible at 16x8. The operation is a 10 ms slice; every fabric runs the
// same fixed list of slices from the same point of its run.

const (
	fabricSide    = 64
	fabricSliceMs = 10
)

func fabricConfig(seed uint64) platform.Config {
	cfg := platform.DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, seed)
	cfg.Width, cfg.Height = fabricSide, fabricSide
	return cfg
}

// foldPlatform folds the platform's externally visible simulated state.
func foldPlatform(f *folder, p *platform.Platform) {
	f.u64(uint64(p.Now()))
	c := p.Counters()
	for _, v := range []uint64{c.InstancesStarted, c.InstancesCompleted, c.InstancesLost,
		c.TaskSwitches, c.PacketsDropped, c.PacketsRescued} {
		f.u64(v)
	}
	ns := p.Net.Stats()
	for _, v := range []uint64{ns.Injected, ns.Delivered, ns.ConfigOps, ns.Dropped, ns.Rescued} {
		f.u64(v)
	}
}

func runFabric(seed uint64, z sizing, tr *tracer) *outcome {
	o := &outcome{workload: "fabric64_ffw"}

	// Step cost at this size follows the colony's task switches (each one
	// flushes the directory memo fabric-wide), and how fast the switch rate
	// decays differs from seed to seed. The budget therefore buys several
	// fabrics per run, each measured over the same early window while the
	// colony is still adapting, rather than repetitions of one window. After
	// the timed slices each fabric is restored and its first slices repeated,
	// untimed, to check that the simulation repeats bit for bit.
	fabrics := z.n(4, 1, 2)
	slices, verify, settleMs := 40, 4, 150.0
	if z.quick {
		slices, verify, settleMs = 2, 1, 30
	}

	var p *platform.Platform
	var cp *platform.Checkpoint
	var newMs, snapMs, restoreMs []float64
	all := newFolder()
	for k := 0; k < fabrics; k++ {
		// Set-up pass: build the fabric, run it through the cheap start-up
		// transient, snapshot it. The previous fabric is dropped first.
		p, cp = nil, nil
		t := time.Now()
		p = platform.New(fabricConfig(seed*16 + uint64(k)))
		newMs = append(newMs, since(t)*1e3)
		p.RunFor(sim.Ms(settleMs), nil)
		t1 := time.Now()
		cp = p.Snapshot()
		snapMs = append(snapMs, since(t1)*1e3)
		o.setup = append(o.setup, since(t))

		tr.enable(true)
		t = time.Now()
		digests := make([]string, slices)
		for i := range digests {
			id := tr.begin("centurion.run_for", fmt.Sprintf("fabric%d/slice%d", k, i), 0)
			t1 := time.Now()
			p.RunFor(sim.Ms(fabricSliceMs), nil)
			o.opLat = append(o.opLat, since(t1))
			tr.end(id)
			f := newFolder()
			foldPlatform(f, p)
			digests[i] = f.sum()
			all.str(digests[i])
		}
		o.wall += since(t)
		tr.enable(false)
		o.attempted += slices
		for _, task := range p.Dir.Mapping() {
			all.u64(uint64(task))
		}

		t = time.Now()
		p.Restore(cp)
		restoreMs = append(restoreMs, since(t)*1e3)
		for i := 0; i < verify; i++ {
			p.RunFor(sim.Ms(fabricSliceMs), nil)
			f := newFolder()
			foldPlatform(f, p)
			if f.sum() != digests[i] {
				o.failed++
				o.fail(fmt.Sprintf("fabric %d slice %d: a repeat from the snapshot gave different results", k, i))
			}
		}
	}
	o.digest = all.sum()

	ticks := float64(fabrics * slices * fabricSliceMs * sim.TicksPerMs)
	o.opsInWall = fabrics * slices
	o.nodeTicksInWall = ticks * fabricSide * fabricSide
	o.heapMB = liveHeapMB()

	if tr != nil {
		o.layers = map[string]float64{
			"centurion.new_ms_64x64":      median(newMs),
			"centurion.step_ns_64x64_ffw": o.wall * 1e9 / ticks,
			"centurion.snapshot_ms_64x64": median(snapMs),
			"centurion.restore_ms_64x64":  median(restoreMs),
		}
		probeDirectory(o.layers, "64x64", p.Topo, p.Dir.Mapping())
	}
	return o
}
