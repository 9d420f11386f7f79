package centurion

// The determinism contract of the activity-tracked stepping core: for the
// same configuration and seed, parking idle PEs, sweeping only active
// routers and polling only stimulated engines must be bit-identical to the
// dense oracle, which touches every component every tick — same counters,
// same fabric stats, same per-node state, same per-window throughput series,
// tick for tick. This suite runs production and the oracle side by side
// across models × seeds, fault-free and faulted, and is the permanent
// regression guard of the parking machinery.

import (
	"fmt"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/picoblaze"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// steppingSnapshot captures everything the equivalence check compares.
type steppingSnapshot struct {
	counters Counters
	net      noc.NetworkStats
	now      sim.Tick
	series   []uint64           // completed instances per 1 ms window
	tasks    []taskgraph.TaskID // final task of every node
	work     [][3]uint64        // per-node Generated, Processed, Switches
}

// scheduleKill arranges a kill wave at an absolute tick as one bare event-queue
// callback — the reference the fault-schedule engine is anchored against.
func scheduleKill(p *Platform, at sim.Tick, nodes []noc.NodeID) {
	p.Schedule(at, func(sim.Tick) { p.InjectFaults(nodes) })
}

// oracleStep is the dense oracle's tick, built on the one production Step:
// it enrolls every PE, engine and router first, so the sweeps touch every
// component — a parked PE, an unstimulated engine, a router production
// forgot — exactly as a full scan would. A component that production parks
// wrongly (a lost stimulus, a late wake) is ticked here anyway, so the two
// runs diverge. Routers are enrolled, not stirred: a stir also clears a
// router's quiet park, and rescanning a byzantine router's blocked head
// draws from its RNG, which no full scan ever did.
func oracleStep(p *Platform) {
	for id := range p.pes {
		p.peSet.Add(id)
		p.engSet.Add(id)
	}
	for _, r := range p.Net.UniqueRouters() {
		p.Net.Enroll(r.ID)
	}
	p.Step()
}

// advance runs p for d ticks: through production RunFor, or under the dense
// oracle one tick at a time, never fast-forwarding.
func advance(p *Platform, d sim.Tick, dense bool) {
	if !dense {
		p.RunFor(d, nil)
		return
	}
	for end := p.Now() + d; p.Now() < end; {
		oracleStep(p)
	}
}

// driveStepping runs a (fresh or reset) platform for 200 ms — under the dense
// oracle when dense — and snapshots its observable state. The fault plan
// (nil = fault-free) is injected through the controller at 50 ms.
func driveStepping(p *Platform, dense bool, faultNodes []noc.NodeID) steppingSnapshot {
	if len(faultNodes) > 0 {
		scheduleKill(p, sim.Ms(50), faultNodes)
	}
	const windows = 200 // 200 ms at 1 ms per window
	snap := steppingSnapshot{series: make([]uint64, windows)}
	var last uint64
	for w := 0; w < windows; w++ {
		advance(p, sim.Ms(1), dense)
		c := p.Counters()
		snap.series[w] = c.InstancesCompleted - last
		last = c.InstancesCompleted
	}
	snap.counters = p.Counters()
	snap.net = p.Net.Stats()
	snap.now = p.Now()
	for _, pe := range p.PEs() {
		snap.tasks = append(snap.tasks, pe.Task())
		snap.work = append(snap.work, [3]uint64{pe.Stats.Generated, pe.Stats.Processed, pe.Stats.Switches})
	}
	return snap
}

// runStepping executes one fresh-platform run and snapshots it.
func runStepping(cfg Config, dense bool, faultNodes []noc.NodeID) steppingSnapshot {
	return driveStepping(New(cfg), dense, faultNodes)
}

func compareSnapshots(t *testing.T, dense, active steppingSnapshot) {
	t.Helper()
	if dense.counters != active.counters {
		t.Errorf("counters diverged:\n dense:  %+v\n active: %+v", dense.counters, active.counters)
	}
	if dense.net != active.net {
		t.Errorf("network stats diverged:\n dense:  %+v\n active: %+v", dense.net, active.net)
	}
	if dense.now != active.now {
		t.Errorf("clocks diverged: dense %v, active %v", dense.now, active.now)
	}
	for w := range dense.series {
		if dense.series[w] != active.series[w] {
			t.Errorf("throughput series diverged at window %d: dense %d, active %d",
				w, dense.series[w], active.series[w])
			break
		}
	}
	for id := range dense.tasks {
		if dense.tasks[id] != active.tasks[id] {
			t.Errorf("node %d final task diverged: dense %d, active %d",
				id, dense.tasks[id], active.tasks[id])
			break
		}
	}
	for id := range dense.work {
		if dense.work[id] != active.work[id] {
			t.Errorf("node %d stats diverged: dense %v, active %v",
				id, dense.work[id], active.work[id])
			break
		}
	}
}

// steppingModels is the model matrix of the stepping suites: the three
// behavioural engines and the NI pathway run as PicoBlaze code.
var steppingModels = []struct {
	name    string
	factory aim.Factory
	mapper  taskgraph.Mapper
}{
	{"none", aim.NewNone, taskgraph.HeuristicMapper{}},
	{"ni", aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}},
	{"ffw", aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
	{"ni-pb", picoblaze.NewNIEngineFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}},
}

func TestSteppingEquivalence(t *testing.T) {
	for _, m := range steppingModels {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed=%d/faulted=%v", m.name, seed, faulted)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(m.factory, m.mapper, seed)
					var plan []noc.NodeID
					if faulted {
						plan = faults.RandomNodes(noc.NewTopology(cfg.Width, cfg.Height),
							12, sim.NewRNG(seed^0xfa17))
					}
					dense := runStepping(cfg, true, plan)
					active := runStepping(cfg, false, plan)
					compareSnapshots(t, dense, active)
				})
			}
		}
	}
}

// TestSteppingEquivalencePooledReuse is the determinism proof of platform
// pooling: one platform per model is constructed once, dirtied by an RCAP
// threshold write to every node and a run under heavy faults, then
// Reset(seed) and re-run for every seed × fault plan — and each reused run
// must be bit-identical to a fresh dense-oracle reference: same counters,
// fabric stats, per-window series, final tasks and per-node stats. This is
// what lets RunMany and the server lease recycled platforms instead of
// rebuilding them.
func TestSteppingEquivalencePooledReuse(t *testing.T) {
	for _, m := range steppingModels {
		cfg := DefaultConfig(m.factory, m.mapper, 999)
		reused := New(cfg)
		// Dirty the platform thoroughly: rewritten engine parameters, and a
		// faulted run that leaves dead routers, dead PEs, buffered packets,
		// parked components and adapted engines.
		if _, err := NewController(reused).BroadcastConfig(noc.OpAIMParam, aim.ParamThreshold, 2); err != nil {
			t.Fatal(err)
		}
		driveStepping(reused, false, faults.RandomNodes(reused.Topo, 24, sim.NewRNG(0xd117)))

		for seed := uint64(1); seed <= 3; seed++ {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed=%d/faulted=%v", m.name, seed, faulted)
				t.Run(name, func(t *testing.T) {
					var plan []noc.NodeID
					if faulted {
						plan = faults.RandomNodes(noc.NewTopology(cfg.Width, cfg.Height),
							12, sim.NewRNG(seed^0xfa17))
					}
					refCfg := DefaultConfig(m.factory, m.mapper, seed)
					dense := runStepping(refCfg, true, plan)
					reused.Reset(seed)
					pooled := driveStepping(reused, false, plan)
					compareSnapshots(t, dense, pooled)
				})
			}
		}
	}
}

// TestSteppingEquivalenceExtensions covers the optional machinery the base
// matrix misses: neighbour signalling, adaptive NI thresholds, the FFW
// idleness ablation, the thermal DVFS governor, and a non-default graph.
func TestSteppingEquivalenceExtensions(t *testing.T) {
	adaptive := aim.DefaultNIParams()
	adaptive.AdaptStep = 8
	idleFFW := aim.DefaultFFWParams()
	idleFFW.ArmOnLapse = false

	cases := []struct {
		name string
		cfg  Config
	}{
		{"neighbor-signals", func() Config {
			c := DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 7)
			c.NeighborSignals = true
			return c
		}()},
		{"adaptive-ni", DefaultConfig(aim.NewNIFactory(adaptive), taskgraph.RandomMapper{}, 8)},
		{"ffw-idle-ablation", DefaultConfig(aim.NewFFWFactory(idleFFW), taskgraph.RandomMapper{}, 9)},
		{"thermal-dvfs", func() Config {
			c := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 10)
			hot := thermal.DefaultParams()
			hot.HeatPerWork = 16
			hot.MaxSafe = 80
			c.Thermal = &hot
			c.ThermalDVFS = true
			return c
		}()},
		{"pipeline-graph", func() Config {
			c := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 11)
			c.Graph = taskgraph.Pipeline(4, 120, 24)
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := faults.RandomNodes(noc.NewTopology(tc.cfg.Width, tc.cfg.Height),
				8, sim.NewRNG(0xc0ffee))
			dense := runStepping(tc.cfg, true, plan)
			active := runStepping(tc.cfg, false, plan)
			compareSnapshots(t, dense, active)
		})
	}
}
