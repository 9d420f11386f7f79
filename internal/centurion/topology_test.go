package centurion

// Topology end-to-end coverage: the pluggable fabrics (torus, concentrated
// mesh) must run through the exact same stack as the reference mesh — the
// activity-tracked stepping core must stay bit-identical to the dense oracle,
// Platform.Reset must stay bit-identical to fresh construction, the steady
// state must stay allocation-free, and faulted runs must keep completing
// work. The mesh itself is covered by the unmodified equivalence suite.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// topoConfig builds the default platform configuration on a given fabric.
func topoConfig(topology string, factory aim.Factory, mapper taskgraph.Mapper, seed uint64) Config {
	cfg := DefaultConfig(factory, mapper, seed)
	cfg.Topology = topology
	return cfg
}

// TestTopologyEquivalence extends the stepping-core determinism contract to
// the non-mesh fabrics: for every topology, active stepping must be
// bit-identical to the dense oracle, fault-free and faulted.
func TestTopologyEquivalence(t *testing.T) {
	models := []struct {
		name    string
		factory aim.Factory
		mapper  taskgraph.Mapper
	}{
		{"none", aim.NewNone, taskgraph.HeuristicMapper{}},
		{"ffw", aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
	}
	for _, topology := range []string{"torus", "cmesh"} {
		for _, m := range models {
			for seed := uint64(1); seed <= 2; seed++ {
				for _, faulted := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/seed=%d/faulted=%v", topology, m.name, seed, faulted)
					t.Run(name, func(t *testing.T) {
						cfg := topoConfig(topology, m.factory, m.mapper, seed)
						var plan []noc.NodeID
						if faulted {
							topo, err := noc.MakeTopology(topology, cfg.Width, cfg.Height)
							if err != nil {
								t.Fatal(err)
							}
							plan = faults.RandomNodes(topo, 12, sim.NewRNG(seed^0xfa17))
						}
						dense := runStepping(cfg, true, plan)
						active := runStepping(cfg, false, plan)
						compareSnapshots(t, dense, active)
					})
				}
			}
		}
	}
}

// TestTopologyPooledReuse proves Platform.Reset's bit-identity contract on
// the non-mesh fabrics: a platform dirtied by a faulted torus/cmesh run and
// then Reset(seed) must replay exactly like a freshly built one.
func TestTopologyPooledReuse(t *testing.T) {
	for _, topology := range []string{"torus", "cmesh"} {
		t.Run(topology, func(t *testing.T) {
			cfg := topoConfig(topology, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 999)
			reused := New(cfg)
			driveStepping(reused, false, faults.RandomNodes(reused.Topo, 24, sim.NewRNG(0xd117)))

			for seed := uint64(1); seed <= 2; seed++ {
				plan := faults.RandomNodes(reused.Topo, 8, sim.NewRNG(seed^0xfa17))
				refCfg := topoConfig(topology, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, seed)
				dense := runStepping(refCfg, true, plan)
				reused.Reset(seed)
				pooled := driveStepping(reused, false, plan)
				compareSnapshots(t, dense, pooled)
			}
		})
	}
}

// TestTopologyEndToEndThroughput drives every fabric through a faulted run
// and checks the platform keeps doing useful work: instances complete before
// and after the damage, and on the concentrated mesh traffic genuinely
// contends for the shared routers (fewer physical routers than nodes).
func TestTopologyEndToEndThroughput(t *testing.T) {
	for _, topology := range []string{"mesh", "torus", "cmesh"} {
		t.Run(topology, func(t *testing.T) {
			cfg := topoConfig(topology, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
			p := New(cfg)
			if topology == "cmesh" {
				if got, want := len(p.Net.UniqueRouters()), p.Topo.Nodes()/noc.CMeshConcentration; got != want {
					t.Fatalf("cmesh has %d physical routers, want %d", got, want)
				}
			}
			p.RunFor(sim.Ms(200), nil)
			pre := p.Counters().InstancesCompleted
			if pre == 0 {
				t.Fatalf("%s completed nothing in 200 ms", topology)
			}
			p.InjectFaults(faults.RandomNodes(p.Topo, 12, sim.NewRNG(0xbeef)))
			p.RunFor(sim.Ms(200), nil)
			if post := p.Counters().InstancesCompleted; post == pre {
				t.Errorf("%s completed nothing after faults (stuck at %d)", topology, pre)
			}
		})
	}
}

// TestTopologyStepSteadyStateAllocFree extends the zero-allocation guard to
// the new fabrics: the steady-state hot loop must not allocate on a torus or
// a concentrated mesh either (the acceptance bar behind the CI bench-smoke
// variants).
func TestTopologyStepSteadyStateAllocFree(t *testing.T) {
	for _, topology := range []string{"torus", "cmesh"} {
		t.Run(topology, func(t *testing.T) {
			cfg := topoConfig(topology, aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 1)
			p := New(cfg)
			p.RunFor(sim.Ms(400), nil) // grow capacities and caches, fill the pool
			allocs := testing.AllocsPerRun(2000, func() { p.Step() })
			if allocs > 0.05 {
				t.Errorf("%s steady-state Step allocates %.3f objects/tick, want ~0", topology, allocs)
			}
		})
	}
}

// TestCMeshClusterFaultCoherence pins the concentrated fault model: killing
// one node takes its shared router down, and the sibling cluster members go
// with it — fabric aliveness, directory aliveness and PE state must agree,
// or nearest-owner queries would keep steering packets at unreachable
// "live" siblings (they win ties at topology distance 0).
func TestCMeshClusterFaultCoherence(t *testing.T) {
	cfg := topoConfig("cmesh", aim.NewNone, taskgraph.HeuristicMapper{}, 2)
	p := New(cfg)
	p.RunFor(sim.Ms(10), nil)
	leaf := p.Topo.ID(noc.Coord{X: 3, Y: 1}) // leaf of the hub at (2,0)
	p.InjectFaults([]noc.NodeID{leaf})
	hub := p.Topo.RouterOf(leaf)
	for m := noc.NodeID(0); int(m) < p.Topo.Nodes(); m++ {
		inCluster := p.Topo.RouterOf(m) == hub
		if got := p.Net.Alive(m); got != !inCluster {
			t.Errorf("Net.Alive(%d) = %v, want %v", m, got, !inCluster)
		}
		if got := p.Dir.Alive(m); got != !inCluster {
			t.Errorf("Dir.Alive(%d) = %v, want %v", m, got, !inCluster)
		}
		if got := p.PEs()[m].Alive(); got != !inCluster {
			t.Errorf("PE(%d).Alive = %v, want %v", m, got, !inCluster)
		}
	}
	// The rest of the fabric keeps completing work.
	pre := p.Counters().InstancesCompleted
	p.RunFor(sim.Ms(100), nil)
	if p.Counters().InstancesCompleted == pre {
		t.Error("platform stalled after a single cluster fault")
	}
}

// TestFaultWaveCMeshCluster: on a concentrated mesh, one InjectFaults wave
// naming two members of one cluster (plus a victim elsewhere) takes exactly
// the two clusters down and leaves the platform — checkpoint bytes and the
// run that follows — that one-node InjectFaults calls leave; the same holds
// for the ReviveNodes wave that brings them back.
func TestFaultWaveCMeshCluster(t *testing.T) {
	cfg := topoConfig("cmesh", aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
	wave, single := New(cfg), New(cfg)
	for _, p := range []*Platform{wave, single} {
		p.RunFor(sim.Ms(20), nil)
	}
	id := wave.Topo.ID
	victims := []noc.NodeID{id(noc.Coord{X: 3, Y: 1}), id(noc.Coord{X: 11, Y: 4}), id(noc.Coord{X: 2, Y: 1})}
	same := func(phase string) {
		t.Helper()
		if !bytes.Equal(EncodeCheckpoint(wave.Snapshot()), EncodeCheckpoint(single.Snapshot())) {
			t.Fatalf("%s: the wave's checkpoint differs from the one-node calls'", phase)
		}
	}

	wave.InjectFaults(victims)
	for _, v := range victims {
		single.InjectFaults([]noc.NodeID{v})
	}
	same("after InjectFaults")
	if got := wave.Net.FaultyCount(); got != 2 {
		t.Fatalf("the wave failed %d routers, want the 2 clusters' hubs", got)
	}
	for m := noc.NodeID(0); int(m) < wave.Topo.Nodes(); m++ {
		hit := slices.ContainsFunc(victims, func(v noc.NodeID) bool { return wave.Topo.RouterOf(v) == wave.Topo.RouterOf(m) })
		if wave.Net.Alive(m) == hit || wave.Dir.Alive(m) == hit || wave.PEs()[m].Alive() == hit {
			t.Errorf("node %d: fabric/directory/PE alive = %v/%v/%v, want %v", m, wave.Net.Alive(m), wave.Dir.Alive(m), wave.PEs()[m].Alive(), !hit)
		}
	}
	for _, p := range []*Platform{wave, single} {
		p.RunFor(sim.Ms(30), nil)
	}
	same("30 ms after InjectFaults")

	revive := victims[1:]
	wave.ReviveNodes(revive)
	for _, v := range revive {
		single.ReviveNodes([]noc.NodeID{v})
	}
	same("after ReviveNodes")
	if got := wave.Net.FaultyCount(); got != 0 {
		t.Fatalf("%d routers faulty after the revive wave", got)
	}
	for _, p := range []*Platform{wave, single} {
		p.RunFor(sim.Ms(30), nil)
	}
	same("30 ms after ReviveNodes")
	if wave.Counters() != single.Counters() {
		t.Fatalf("counters differ: wave %+v, one-node calls %+v", wave.Counters(), single.Counters())
	}
}

// TestTopologyRCAPDelivery checks that RCAP configuration addressed to a
// cluster member (not the hub itself) is applied to that member on a
// concentrated mesh — the shared router demuxes on the packet destination.
func TestTopologyRCAPDelivery(t *testing.T) {
	cfg := topoConfig("cmesh", aim.NewNone, taskgraph.HeuristicMapper{}, 3)
	p := New(cfg)
	ctl := NewController(p)
	// Node (1,1) is a leaf of the hub at (0,0).
	leaf := p.Topo.ID(noc.Coord{X: 1, Y: 1})
	if p.Topo.RouterOf(leaf) == leaf {
		t.Fatal("test premise broken: (1,1) should not be a hub")
	}
	if err := ctl.SendConfig(leaf, noc.OpNodeClockEnable, 0, 0); err != nil {
		t.Fatal(err)
	}
	p.RunFor(sim.Ms(50), nil)
	before := p.PEs()[leaf].WorkCount()
	p.RunFor(sim.Ms(50), nil)
	if after := p.PEs()[leaf].WorkCount(); after != before {
		t.Errorf("clock-gated leaf kept working (%d -> %d)", before, after)
	}
	// Siblings sharing the router must be unaffected.
	hub := p.Topo.RouterOf(leaf)
	if p.PEs()[hub].WorkCount() == 0 {
		t.Error("hub PE never worked")
	}
}
