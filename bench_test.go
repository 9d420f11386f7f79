package centurion

// Benchmark harness regenerating the paper's evaluation. One benchmark per
// table/figure (reduced run counts — use cmd/centurion for the full 100-run
// sweeps) plus ablations for the design decisions in DESIGN.md §5 and
// micro-benchmarks of the hot substrate paths.
//
// Custom metrics reported:
//   rel_..._%      relative performance versus the No-Intelligence reference
//   settle_..._ms  settling / recovery times
//   inst/ms        absolute throughput

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"centurion/internal/aim"
	platform "centurion/internal/centurion"
	"centurion/internal/experiments"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/node"
	"centurion/internal/picoblaze"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// --- Table I ---

// BenchmarkTable1 regenerates Table I (settling time and relative
// performance without faults) with a reduced run count per iteration.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := experiments.Table1(5, 1)
		for _, row := range t1.Rows {
			switch row.Model {
			case experiments.ModelNI:
				b.ReportMetric(row.RelativePct.Q2, "rel_ni_%")
				b.ReportMetric(row.Settling.Q2, "settle_ni_ms")
			case experiments.ModelFFW:
				b.ReportMetric(row.RelativePct.Q2, "rel_ffw_%")
				b.ReportMetric(row.Settling.Q2, "settle_ffw_ms")
			case experiments.ModelNone:
				b.ReportMetric(row.Settling.Q2, "settle_none_ms")
			}
		}
	}
}

// --- Table II ---

// BenchmarkTable2 regenerates Table II (recovery time and relative
// performance after fault injection at 500 ms) for the paper's extreme
// fault counts.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := experiments.Table2(3, 1, []int{0, 8, 32})
		for _, row := range t2.Rows {
			if row.Faults != 32 {
				continue
			}
			switch row.Model {
			case experiments.ModelNone:
				b.ReportMetric(row.RelativePct.Q2, "rel32_none_%")
			case experiments.ModelNI:
				b.ReportMetric(row.RelativePct.Q2, "rel32_ni_%")
			case experiments.ModelFFW:
				b.ReportMetric(row.RelativePct.Q2, "rel32_ffw_%")
				b.ReportMetric(row.Recovery.Q2, "recover32_ffw_ms")
			}
		}
	}
}

// --- Figure 4 ---

func benchmarkFig4(b *testing.B, faults int) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig4(faults, 1)
		if err := f.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
		for _, c := range f.Cases {
			pre := c.Result.Throughput.MeanRange(400, 500)
			post := c.Result.Throughput.MeanRange(900, 1000)
			switch c.Model {
			case experiments.ModelNone:
				b.ReportMetric(post/max1(pre), "none_retained")
			case experiments.ModelFFW:
				b.ReportMetric(post/max1(pre), "ffw_retained")
			}
		}
		f.Release() // series reduced to metrics; recycle the panel buffers
	}
}

func max1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// BenchmarkFig4FiveFaults regenerates the paper's 5-fault Figure 4 column.
func BenchmarkFig4FiveFaults(b *testing.B) { benchmarkFig4(b, 5) }

// BenchmarkFig4FortyTwoFaults regenerates the 42-fault column (one third of
// the 128 nodes).
func BenchmarkFig4FortyTwoFaults(b *testing.B) { benchmarkFig4(b, 42) }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationUnpinnedSources shows why source tasks are pinned: with
// PinSources disabled the task-1 population decays and throughput collapses.
func BenchmarkAblationUnpinnedSources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pinned := aim.DefaultFFWParams()
		unpinned := pinned
		unpinned.PinSources = false
		rPin := runFFWVariant(pinned, 1)
		rUnpin := runFFWVariant(unpinned, 1)
		b.ReportMetric(rPin, "pinned_inst/ms")
		b.ReportMetric(rUnpin, "unpinned_inst/ms")
	}
}

func runFFWVariant(par aim.FFWParams, seed uint64) float64 {
	spec := experiments.DefaultSpec(experiments.ModelFFW, seed)
	spec.DurationMs = 600
	spec.FFW = &par
	return experiments.Run(spec).PostFaultRate
}

// BenchmarkAblationFFWNoLapseArming compares the paper's deadline-armed FFW
// with the naive pure-idleness timeout, which churns under load.
func BenchmarkAblationFFWNoLapseArming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		armed := aim.DefaultFFWParams()
		naive := armed
		naive.ArmOnLapse = false
		b.ReportMetric(runFFWVariant(armed, 2), "armed_inst/ms")
		b.ReportMetric(runFFWVariant(naive, 2), "naive_inst/ms")
	}
}

// BenchmarkAblationRoutingUnderFaults compares fault-aware next-hop tables
// with pure XY routing when a third of the mesh dies: XY keeps steering
// packets into dead routers.
func BenchmarkAblationRoutingUnderFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range []noc.RoutingMode{noc.RouteAuto, noc.RouteXY} {
			cfg := platform.DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 5)
			cfg.NoC.Mode = mode
			p := platform.New(cfg)
			p.RunFor(sim.Ms(300), nil)
			pre := p.Counters().InstancesCompleted
			p.InjectFaults(faultSample(p, 42))
			p.RunFor(sim.Ms(300), nil)
			post := p.Counters().InstancesCompleted - pre
			name := "tables_inst/ms"
			if mode == noc.RouteXY {
				name = "xy_inst/ms"
			}
			b.ReportMetric(float64(post)/300, name)
		}
	}
}

func faultSample(p *platform.Platform, n int) []noc.NodeID {
	rng := sim.NewRNG(77)
	out := make([]noc.NodeID, 0, n)
	for _, idx := range rng.Perm(p.Topo.Nodes())[:n] {
		out = append(out, noc.NodeID(idx))
	}
	return out
}

// BenchmarkAblationMappingLocality separates the value of the heuristic's
// task ratio from the value of its Manhattan locality by comparing it with
// the same ratio at random positions.
func BenchmarkAblationMappingLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []taskgraph.Mapper{taskgraph.HeuristicMapper{}, taskgraph.ProportionalMapper{}} {
			spec := experiments.DefaultSpec(experiments.ModelNone, 3)
			spec.DurationMs = 400
			spec.Mapper = m
			r := experiments.Run(spec)
			if m.Name() == "heuristic-manhattan" {
				b.ReportMetric(r.PostFaultRate, "clustered_inst/ms")
			} else {
				b.ReportMetric(r.PostFaultRate, "scattered_inst/ms")
			}
		}
	}
}

// BenchmarkAblationEmbeddedAIMCost measures the wall-clock cost of hosting
// the NI pathway on the emulated PicoBlaze versus the behavioural engine.
func BenchmarkAblationEmbeddedAIMCost(b *testing.B) {
	b.Run("behavioural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := NewSystem(WithModel(ModelNI), WithSeed(4))
			sys.RunMs(100)
		}
	})
	b.Run("picoblaze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := NewSystem(WithModel(ModelNIPB), WithSeed(4))
			sys.RunMs(100)
		}
	})
}

// --- Substrate micro-benchmarks ---

// BenchmarkPlatformStep measures one full platform tick (routers + PEs + AIM
// decisions) at steady state. The torus and cmesh variants run the FFW model
// on the non-mesh fabrics; the parallel-w* variants run the 64×64 fabric
// through the four-tile tick kernel across the worker axis (w1 is the serial
// tiled reference — on a single-core runner the higher worker counts measure
// coordination overhead, not speedup). The allocs/op guard in CI holds every
// sub-benchmark to the zero-allocation contract.
func BenchmarkPlatformStep(b *testing.B) {
	for _, tc := range []struct {
		name          string
		topology      string
		width, height int
		workers       int
		warmMs        float64
		factory       aim.Factory
		mapper        taskgraph.Mapper
	}{
		{"none", "", 0, 0, 0, 100, aim.NewNone, taskgraph.HeuristicMapper{}},
		{"ni", "", 0, 0, 0, 100, aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}},
		{"ffw", "", 0, 0, 0, 100, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
		{"torus", "torus", 0, 0, 0, 100, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
		{"cmesh", "cmesh", 0, 0, 0, 100, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
		{"parallel-w1", "", 64, 64, 1, 400, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
		{"parallel-w2", "", 64, 64, 2, 400, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
		{"parallel-w4", "", 64, 64, 4, 400, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := platform.DefaultConfig(tc.factory, tc.mapper, 1)
			cfg.Topology = tc.topology
			if tc.width > 0 {
				cfg.Width, cfg.Height = tc.width, tc.height
				cfg.NoC.Tiles = 4
				cfg.NoC.Workers = tc.workers
			}
			p := platform.New(cfg)
			p.RunFor(sim.Ms(tc.warmMs), nil) // reach steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Step()
			}
		})
	}
}

// BenchmarkMegaFabric measures the 256×256 (65,536-node) fabric — the tiled
// kernel's Table-I-style scale point — at steady state, across the worker
// axis, and reports the platform's resident heap so BENCH_platform.json
// tracks a per-scale memory budget alongside the tick cost.
func BenchmarkMegaFabric(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			cfg := platform.DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 1)
			cfg.Width, cfg.Height = 256, 256
			cfg.NoC.Workers = workers
			p := platform.New(cfg)
			p.RunFor(sim.Ms(5), nil) // settle: populate caches and staging scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Step()
			}
			b.StopTimer()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap_MB")
		})
	}
}

// BenchmarkSnapshotRestore measures the fork primitive sweep warm-starting
// is built on: deep-capturing a settled platform into a reused checkpoint
// and restoring it back. bytes/checkpoint is the CENCKPT1 encoding size of
// one snapshot — the unit the warm cache's byte budget is spent in.
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, tc := range []struct {
		name          string
		width, height int
	}{
		{"16x8", 16, 8},
		{"64x64", 64, 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := platform.DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 1)
			cfg.Width, cfg.Height = tc.width, tc.height
			p := platform.New(cfg)
			p.RunFor(sim.Ms(50), nil) // settle so the snapshot carries live state
			cp := p.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.SnapshotInto(cp)
				if err := p.Restore(cp); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(platform.EncodeCheckpoint(cp))), "bytes/checkpoint")
		})
	}
}

// BenchmarkFaultWave measures one fault wave on a settled FFW platform: a
// 32-node InjectFaults wave plus the ReviveNodes wave that heals it at
// 16×8, and a single death at 64×64. Each wave rebuilds the hop rows once;
// the platform is restored from its pre-fault checkpoint, untimed, between
// iterations.
func BenchmarkFaultWave(b *testing.B) {
	for _, tc := range []struct {
		name          string
		width, height int
		victims       int
		revive        bool
	}{
		{"16x8_32_revive", 16, 8, 32, true},
		{"64x64_1", 64, 64, 1, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := platform.DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 1)
			cfg.Width, cfg.Height = tc.width, tc.height
			p := platform.New(cfg)
			p.RunFor(sim.Ms(20), nil) // settle so the victims hold traffic
			cp := p.Snapshot()
			victims := faults.RandomNodes(p.Topo, tc.victims, sim.NewRNG(7))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.InjectFaults(victims)
				if tc.revive {
					p.ReviveNodes(victims)
				}
				b.StopTimer()
				if err := p.Restore(cp); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRunManyParallel measures full-sweep throughput through the pooled
// experiment runner: a batch of independently seeded FFW runs executed in
// parallel across CPUs, the unit of work the serving layer dispatches per
// sweep cell. Reported as runs per second of wall time.
func BenchmarkRunManyParallel(b *testing.B) {
	spec := experiments.DefaultSpec(experiments.ModelFFW, 1)
	spec.DurationMs = 250
	const runs = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunMany(spec, runs, 1)
		if len(res) != runs {
			b.Fatalf("got %d results", len(res))
		}
	}
	b.ReportMetric(float64(runs*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkRouterTickLoaded measures the router datapath under traffic.
// Packets cycle through the fabric's arena (delivered packets recycle on
// the spot), so the loaded path is allocation-free at steady state.
func BenchmarkRouterTickLoaded(b *testing.B) {
	net := noc.NewNetwork(noc.NewTopology(16, 8), noc.DefaultConfig())
	pool := net.Pool()
	sinkAll := recycleSink{pool}
	for id := 0; id < net.Topo.Nodes(); id++ {
		net.Router(noc.NodeID(id)).SetSink(sinkAll)
	}
	rng := sim.NewRNG(1)
	var clk sim.Clock
	id := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			src := noc.NodeID(rng.Intn(net.Topo.Nodes()))
			dst := noc.NodeID(rng.Intn(net.Topo.Nodes()))
			id++
			p := pool.Get()
			p.ID = id
			p.Kind = noc.Data
			p.Src, p.Dst = src, dst
			p.Task = 2
			p.Flits = 2
			if !net.Inject(src, p, clk.Now()) {
				pool.Put(p) // back-pressured: recycle instead of leaking
			}
		}
		net.Tick(clk.Now())
		clk.Step()
	}
}

// recycleSink consumes delivered packets straight back into the pool.
type recycleSink struct{ pool *noc.PacketPool }

func (s recycleSink) Accept(p *noc.Packet, _ sim.Tick) bool {
	s.pool.Put(p)
	return true
}

// BenchmarkPicoblazeDecide measures one embedded decision pass.
func BenchmarkPicoblazeDecide(b *testing.B) {
	g := taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams())
	e, err := picoblaze.NewNIEngine(g, aim.DefaultNIParams())
	if err != nil {
		b.Fatal(err)
	}
	e.NoteTask(taskgraph.ForkSink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.OnRouted(taskgraph.ForkWorker, sim.Tick(i))
		e.Decide(sim.Tick(i))
	}
}

// BenchmarkAssemble measures assembling the NI pathway.
func BenchmarkAssemble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := picoblaze.Assemble(picoblaze.NIProgram); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectoryNearest measures the task-directory lookups behind every
// generated packet — Nearest (join binding, retargeting) and NearestK at the
// fork pool size 2n+2 = 8 — on a random fork-join mapping at three fabric
// sizes, with a task switch every 64 lookups as in an adapting colony. The
// search is local, so the rows should read alike: benchgate fails when a
// 256x256 row exceeds twice its 16x8 row.
func BenchmarkDirectoryNearest(b *testing.B) {
	g := taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams())
	for _, size := range []struct{ w, h int }{{16, 8}, {64, 64}, {256, 256}} {
		topo := noc.NewTopology(size.w, size.h)
		nodes := topo.Nodes()
		d := node.NewDirectory(topo, taskgraph.RandomMapper{}.Map(g, size.w, size.h, sim.NewRNG(1)))
		// Anchors and switching nodes are drawn from a seeded stream: a short
		// repeating walk would let the branch predictor learn a 16x8 grid by
		// heart and flatter the small end of the comparison. A switch is
		// undone by the next one, so the mapping stays the mapper's.
		run := func(name string, lookup func(from noc.NodeID)) {
			b.Run(fmt.Sprintf("%dx%d/%s", size.w, size.h, name), func(b *testing.B) {
				rng := sim.NewRNG(2)
				var flipped noc.NodeID
				var home taskgraph.TaskID
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					switch i % 128 {
					case 0:
						flipped = noc.NodeID(rng.Intn(nodes))
						home = d.TaskOf(flipped)
						if home == taskgraph.ForkWorker {
							d.Set(flipped, taskgraph.ForkSink)
						} else {
							d.Set(flipped, taskgraph.ForkWorker)
						}
					case 64:
						d.Set(flipped, home)
					}
					lookup(noc.NodeID(rng.Intn(nodes)))
				}
				d.Set(flipped, home)
			})
		}
		run("Nearest", func(from noc.NodeID) { d.Nearest(taskgraph.ForkSink, from) })
		run("NearestK8", func(from noc.NodeID) { d.NearestK(taskgraph.ForkWorker, from, 8) })
	}
}
