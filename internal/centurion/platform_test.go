package centurion

import (
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

func heuristicPlatform(seed uint64) *Platform {
	return New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, seed))
}

func TestBaselineThroughput(t *testing.T) {
	p := heuristicPlatform(1)
	p.RunFor(sim.Ms(300), nil)
	c := p.Counters()
	// 26 sources at one instance per 12 ms ≈ 2.17/ms; expect at least 80%
	// of that after pipe fill.
	if c.InstancesCompleted < 500 {
		t.Fatalf("completed %d instances in 300 ms, want >= 500", c.InstancesCompleted)
	}
	if c.TaskSwitches != 0 {
		t.Errorf("no-intelligence platform switched tasks %d times", c.TaskSwitches)
	}
	if c.PacketsDropped > c.InstancesCompleted/20 {
		t.Errorf("excessive drops: %d", c.PacketsDropped)
	}
}

func TestDeterminism(t *testing.T) {
	for _, factory := range []aim.Factory{
		aim.NewNone,
		aim.NewNIFactory(aim.DefaultNIParams()),
		aim.NewFFWFactory(aim.DefaultFFWParams()),
	} {
		a := New(DefaultConfig(factory, taskgraph.RandomMapper{}, 42))
		b := New(DefaultConfig(factory, taskgraph.RandomMapper{}, 42))
		a.RunFor(sim.Ms(200), nil)
		b.RunFor(sim.Ms(200), nil)
		ca, cb := a.Counters(), b.Counters()
		if ca != cb {
			t.Errorf("same-seed runs diverged: %+v vs %+v", ca, cb)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 1))
	b := New(DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 2))
	a.RunFor(sim.Ms(200), nil)
	b.RunFor(sim.Ms(200), nil)
	if a.Counters() == b.Counters() {
		t.Error("different seeds produced identical counters (suspicious)")
	}
}

func TestFaultInjectionReducesCapacity(t *testing.T) {
	p := heuristicPlatform(3)
	p.RunFor(sim.Ms(300), nil)
	pre := p.Counters().InstancesCompleted

	nodes := faults.RandomNodes(p.Topo, 32, sim.NewRNG(99))
	p.InjectFaults(nodes)
	for _, id := range nodes {
		if p.Net.Alive(id) {
			t.Fatalf("node %d alive after fault injection", id)
		}
		if p.PEs()[id].Alive() {
			t.Fatalf("PE %d alive after fault injection", id)
		}
	}

	p.RunFor(sim.Ms(300), nil)
	post := p.Counters().InstancesCompleted - pre
	if post == 0 {
		t.Fatal("no throughput at all after 32 faults")
	}
	if float64(post) > 0.9*float64(pre) {
		t.Errorf("static mapping lost 1/4 of nodes but throughput only dropped from %d to %d", pre, post)
	}
}

func TestFFWAdaptsAfterFaults(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
	p := New(cfg)
	p.RunFor(sim.Ms(400), nil)
	preSwitches := p.Counters().TaskSwitches
	p.InjectFaults(faults.RandomNodes(p.Topo, 32, sim.NewRNG(7)))
	p.RunFor(sim.Ms(400), nil)
	if p.Counters().TaskSwitches == preSwitches {
		t.Error("FFW made no adaptation switches after 32 faults")
	}
	if got := p.Counters().InstancesCompleted; got == 0 {
		t.Error("no throughput after faults")
	}
}

func TestScheduledFaultsViaController(t *testing.T) {
	p := heuristicPlatform(9)
	ctl := NewController(p)
	ctl.ApplySchedule(faults.Schedule{Events: []faults.Event{
		{At: sim.Ms(50), Op: faults.OpKill, Nodes: []noc.NodeID{0, 1, 2}},
	}})
	p.RunFor(sim.Ms(49), nil)
	if !p.Net.Alive(0) {
		t.Fatal("fault fired early")
	}
	p.RunFor(sim.Ms(2), nil)
	if p.Net.Alive(0) || p.Net.Alive(1) || p.Net.Alive(2) {
		t.Fatal("scheduled faults did not fire")
	}
}

func TestControllerRCAPRoundTrip(t *testing.T) {
	cfg := DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 11)
	p := New(cfg)
	ctl := NewController(p)

	target := noc.NodeID(77)
	if err := ctl.SendConfig(target, noc.OpAIMParam, aim.ParamThreshold, 3); err != nil {
		t.Fatal(err)
	}
	p.RunFor(sim.Ms(20), nil)
	ni, ok := p.Engine(target).(*aim.NI)
	if !ok {
		t.Fatal("engine is not NI")
	}
	// Threshold 3 now: three routed impulses for a non-current task fire it.
	// Zero the counters through a state round trip (Reset would also undo
	// the RCAP write).
	ni.NoteTask(taskgraph.ForkSink)
	var st aim.EngineState
	ni.SaveState(&st)
	clear(st.Counts)
	ni.LoadState(&st)
	for i := 0; i < 3; i++ {
		ni.OnRouted(taskgraph.ForkWorker, p.Now())
	}
	if _, fired := ni.Decide(p.Now()); !fired {
		t.Error("RCAP threshold write did not reach the AIM")
	}
}

func TestControllerNodeKnobs(t *testing.T) {
	p := heuristicPlatform(13)
	ctl := NewController(p)
	target := noc.NodeID(40)

	if err := ctl.SendConfig(target, noc.OpNodeFrequency, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.SendConfig(target, noc.OpNodeClockEnable, 0, 0); err != nil {
		t.Fatal(err)
	}
	p.RunFor(sim.Ms(20), nil)
	pe := p.PEs()[target]
	before := pe.Stats.Processed + pe.Stats.Generated
	p.RunFor(sim.Ms(50), nil)
	after := pe.Stats.Processed + pe.Stats.Generated
	if after != before {
		t.Errorf("clock-gated node did work: %d -> %d", before, after)
	}
}

func TestControllerReadAll(t *testing.T) {
	p := heuristicPlatform(17)
	ctl := NewController(p)
	p.RunFor(sim.Ms(100), nil)
	reports := ctl.ReadAll()
	if len(reports) != 128 {
		t.Fatalf("ReadAll returned %d reports", len(reports))
	}
	busy := 0
	for _, r := range reports {
		if !r.Alive {
			t.Errorf("node %d reported dead on a healthy platform", r.Node)
		}
		if r.Generated+r.Processed > 0 {
			busy++
		}
	}
	if busy < 64 {
		t.Errorf("only %d/128 nodes did any work in 100 ms", busy)
	}
}

func TestControllerBroadcast(t *testing.T) {
	p := heuristicPlatform(19)
	ctl := NewController(p)
	sent, err := ctl.BroadcastConfig(noc.OpSetDeadlockLimit, 333, 0)
	if err != nil {
		t.Fatalf("broadcast error: %v (sent %d)", err, sent)
	}
	if sent != 128 {
		t.Fatalf("broadcast reached %d nodes", sent)
	}
}

func TestNeighborSignalsWiring(t *testing.T) {
	cfg := DefaultConfig(aim.NewNIFactory(aim.NIParams{
		Threshold: 2, NeighborWeight: 2, InternalWeight: 1, PinSources: true,
	}), taskgraph.RandomMapper{}, 23)
	cfg.NeighborSignals = true
	p := New(cfg)
	// Force a switch at a node and check the neighbour AIM felt it.
	center := p.Topo.ID(noc.Coord{X: 8, Y: 4})
	nb, _ := p.Topo.Neighbor(center, noc.East)
	pe := p.PEs()[center]
	from := pe.Task()
	to := taskgraph.ForkWorker
	if from == to {
		to = taskgraph.ForkSink
	}
	pe.SwitchTask(to, p.Now())
	ni := p.Engine(nb).(*aim.NI)
	if got := ni.Counts()[to]; got == 0 {
		t.Error("neighbour AIM did not receive the switch signal")
	}
}

func TestInstanceAccounting(t *testing.T) {
	p := heuristicPlatform(29)
	p.RunFor(sim.Ms(500), nil)
	c := p.Counters()
	if c.InstancesCompleted > c.InstancesStarted {
		t.Errorf("completed %d > started %d", c.InstancesCompleted, c.InstancesStarted)
	}
	// On a healthy static platform nearly everything completes (the rest is
	// in flight).
	if float64(c.InstancesCompleted) < 0.9*float64(c.InstancesStarted) {
		t.Errorf("completion ratio %d/%d too low for a healthy platform",
			c.InstancesCompleted, c.InstancesStarted)
	}
}

func TestSmallMeshWorks(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 31)
	cfg.Width, cfg.Height = 4, 4
	p := New(cfg)
	p.RunFor(sim.Ms(300), nil)
	if p.Counters().InstancesCompleted == 0 {
		t.Error("4x4 mesh completed nothing")
	}
}

func TestPipelineGraphOnPlatform(t *testing.T) {
	cfg := DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 37)
	cfg.Graph = taskgraph.Pipeline(4, 120, 24)
	p := New(cfg)
	p.RunFor(sim.Ms(300), nil)
	if p.Counters().InstancesCompleted == 0 {
		t.Error("pipeline workload completed nothing")
	}
}

func TestDiamondGraphOnPlatform(t *testing.T) {
	cfg := DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 41)
	cfg.Graph = taskgraph.Diamond(120, 24)
	p := New(cfg)
	p.RunFor(sim.Ms(300), nil)
	if p.Counters().InstancesCompleted == 0 {
		t.Error("diamond workload completed nothing")
	}
}

func TestThermalDVFSGovernor(t *testing.T) {
	hot := thermal.DefaultParams()
	hot.HeatPerWork = 16
	hot.MaxSafe = 80

	build := func(dvfs bool) *Platform {
		cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
		cfg.Thermal = &hot
		cfg.ThermalDVFS = dvfs
		return New(cfg)
	}

	// Peak temperature is noisy instant by instant; compare the maximum
	// over time and the final mean.
	maxPeak := func(p *Platform) float64 {
		peak := 0.0
		for i := 0; i < 12; i++ {
			p.RunFor(sim.Ms(50), nil)
			if _, v := p.Thermal().Hottest(); v > peak {
				peak = v
			}
		}
		return peak
	}
	free := build(false)
	governed := build(true)
	freePeak := maxPeak(free)
	govPeak := maxPeak(governed)
	if freePeak <= hot.MaxSafe {
		t.Skipf("workload never exceeded MaxSafe (peak %.1f); governor untestable", freePeak)
	}
	if govPeak > freePeak*1.05 {
		t.Errorf("governor raised peak temperature: %.1f vs %.1f", govPeak, freePeak)
	}
	if governed.Thermal().Mean() >= free.Thermal().Mean() {
		t.Errorf("governor did not reduce mean temperature: %.1f vs %.1f",
			governed.Thermal().Mean(), free.Thermal().Mean())
	}
	if governed.Counters().InstancesCompleted >= free.Counters().InstancesCompleted {
		t.Error("throttling was free (expected a throughput cost)")
	}
	if governed.Counters().InstancesCompleted == 0 {
		t.Error("governed platform completed nothing")
	}
}

func TestThermalDisabledByDefault(t *testing.T) {
	p := heuristicPlatform(49)
	if p.Thermal() != nil {
		t.Error("thermal model enabled without config")
	}
	p.RunFor(sim.Ms(50), nil) // must not panic
}
