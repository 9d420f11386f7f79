package centurion

// The determinism contract of the parallel tiled tick kernel (ISSUE 8): with
// the fabric partitioned into K tiles, a tick swept by W workers must be
// bit-identical to the same K-tile kernel swept serially — same counters,
// same fabric stats, same per-node state, same per-window series, tick for
// tick. The serial sweep (Workers=1) is the in-tree reference; this suite
// pits it against Workers=4 across models × seeds × topologies × fault
// timelines, through pooled Reset reuse, and against the dense oracle. CI
// drives it under -race and at GOMAXPROCS=1 and =4.

import (
	"fmt"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// tiledConfig is DefaultConfig with the fabric forced onto four tiles (the
// 16×8 default grid auto-sizes to one tile, which would bypass the staging
// machinery entirely) and the given worker count.
func tiledConfig(engines aim.Factory, mapper taskgraph.Mapper, seed uint64, workers int) Config {
	cfg := DefaultConfig(engines, mapper, seed)
	cfg.NoC.Tiles = 4
	cfg.NoC.Workers = workers
	return cfg
}

// TestParallelTickEquivalence is the core W=1 vs W=4 bit-identity matrix:
// every model, fault-free and faulted, on the four-tile 16×8 fabric.
func TestParallelTickEquivalence(t *testing.T) {
	models := []struct {
		name    string
		factory aim.Factory
		mapper  taskgraph.Mapper
	}{
		{"none", aim.NewNone, taskgraph.HeuristicMapper{}},
		{"ni", aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}},
		{"ffw", aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
	}
	for _, m := range models {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed=%d/faulted=%v", m.name, seed, faulted)
				t.Run(name, func(t *testing.T) {
					var plan []noc.NodeID
					if faulted {
						plan = faults.RandomNodes(noc.NewTopology(16, 8), 12, sim.NewRNG(seed^0xfa17))
					}
					serial := runStepping(tiledConfig(m.factory, m.mapper, seed, 1), false, plan)
					parallel := runStepping(tiledConfig(m.factory, m.mapper, seed, 4), false, plan)
					compareSnapshots(t, serial, parallel)
				})
			}
		}
	}
}

// TestParallelTickTopologies extends the contract to the torus's wrap links
// (cross-tile forwards between the first and last row bands) and cmesh's
// 2×2 concentration clusters (which the tiler must never split).
func TestParallelTickTopologies(t *testing.T) {
	for _, topo := range []string{"torus", "cmesh"} {
		for _, faulted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faulted=%v", topo, faulted), func(t *testing.T) {
				run := func(workers int) steppingSnapshot {
					cfg := tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 7, workers)
					cfg.Topology = topo
					var plan []noc.NodeID
					if faulted {
						plan = faults.RandomNodes(noc.NewTopology(16, 8), 12, sim.NewRNG(0xfa17))
					}
					return runStepping(cfg, false, plan)
				}
				compareSnapshots(t, run(1), run(4))
			})
		}
	}
}

// TestParallelTickHostile runs every hostile timeline — churn revivals,
// flaky links, cascade waves and byzantine routers — through the tiled
// kernel at W=1 and W=4. The byzantine profile exercises the kernel's
// serial-fallback guard: once a byzantine schedule arms, the tick drops to
// the serial tiled sweep (the meddler's RNG draws are order-sensitive), and
// that downshift itself must be deterministic.
func TestParallelTickHostile(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		for _, prof := range hostileProfiles {
			t.Run(fmt.Sprintf("%s/%s", topo, prof.Kind), func(t *testing.T) {
				run := func(workers int) steppingSnapshot {
					cfg := tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5, workers)
					cfg.Topology = topo
					p := New(cfg)
					return driveHostile(p, false, buildHostile(t, p, prof, 5))
				}
				compareSnapshots(t, run(1), run(4))
			})
		}
	}
}

// TestParallelTickPooledReuse proves the staged-work scratch state resets
// with the platform: a parallel platform dirtied by a byzantine run, then
// Reset(seed), must replay each run bit-identically to a fresh serial-swept
// reference — staging buffers, per-tile active sets and worker bookkeeping
// carry nothing across the reset.
func TestParallelTickPooledReuse(t *testing.T) {
	cfg := tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 999, 4)
	reused := New(cfg)
	driveHostile(reused, false, buildHostile(t, reused, hostileProfiles[3], 0xbada))

	for seed := uint64(1); seed <= 2; seed++ {
		for _, faulted := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/faulted=%v", seed, faulted), func(t *testing.T) {
				var plan []noc.NodeID
				if faulted {
					plan = faults.RandomNodes(noc.NewTopology(16, 8), 12, sim.NewRNG(seed^0xfa17))
				}
				want := runStepping(tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, seed, 1), false, plan)
				reused.Reset(seed)
				compareSnapshots(t, want, driveStepping(reused, false, plan))
			})
		}
	}
}

// TestParallelTickDenseEquivalence closes the triangle with the dense
// oracle: on the tiled fabric, the oracle's full sweeps and production's
// activity-tracked sweeps must still agree — per-tile active sets stand in
// for the global set without changing a single observable — and the oracle
// swept by four workers must match both.
func TestParallelTickDenseEquivalence(t *testing.T) {
	plan := faults.RandomNodes(noc.NewTopology(16, 8), 12, sim.NewRNG(0xfa17))
	serialDense := runStepping(tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3, 1), true, plan)
	parallelDense := runStepping(tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3, 4), true, plan)
	parallelActive := runStepping(tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3, 4), false, plan)
	compareSnapshots(t, serialDense, parallelDense)
	compareSnapshots(t, serialDense, parallelActive)
}

// TestParallelStepSteadyStateAllocFree extends the zero-alloc steady-state
// guard to the tiled kernel: once the staging scratch slices have grown to
// their working capacity, a tick must not allocate. Workers=1 keeps
// testing.AllocsPerRun honest — it counts mallocs process-wide, so worker
// goroutines scheduling on other Ps would add noise without changing what
// is being guarded (the staging path allocates identically under both).
func TestParallelStepSteadyStateAllocFree(t *testing.T) {
	p := New(tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 1, 1))
	if !p.Net.ParallelTick() && p.Net.TileCount() != 4 {
		t.Fatalf("tile count = %d, want 4", p.Net.TileCount())
	}
	p.RunFor(sim.Ms(400), nil) // grow capacities, caches and staging scratch
	allocs := testing.AllocsPerRun(2000, func() { p.Step() })
	if allocs > 0.05 {
		t.Errorf("steady-state tiled Step allocates %.3f objects/tick, want ~0", allocs)
	}
}
