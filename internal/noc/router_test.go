package noc

import (
	"testing"

	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// collectSink records delivered packets and can simulate a full queue.
type collectSink struct {
	got  []*Packet
	full bool
}

func (s *collectSink) Accept(p *Packet, now sim.Tick) bool {
	if s.full {
		return false
	}
	s.got = append(s.got, p)
	return true
}

func testNet(w, h int, mode RoutingMode) *Network {
	cfg := DefaultConfig()
	cfg.Mode = mode
	return NewNetwork(NewTopology(w, h), cfg)
}

// run advances the network n ticks starting from *clk, updating the clock.
func run(net *Network, clk *sim.Clock, n int) {
	for i := 0; i < n; i++ {
		net.Tick(clk.Now())
		clk.Step()
	}
}

func dataPacket(id uint64, src, dst NodeID, task taskgraph.TaskID, flits int) *Packet {
	return &Packet{ID: id, Kind: Data, Src: src, Dst: dst, Task: task, Flits: flits}
}

func TestPacketDeliveryAcrossMesh(t *testing.T) {
	net := testNet(8, 8, RouteAuto)
	topo := net.Topo
	sink := &collectSink{}
	src := topo.ID(Coord{0, 0})
	dst := topo.ID(Coord{7, 7})
	net.Router(dst).SetSink(sink)

	p := dataPacket(1, src, dst, 2, 4)
	var clk sim.Clock
	if !net.Inject(src, p, clk.Now()) {
		t.Fatal("Inject failed on empty fabric")
	}
	run(net, &clk, 200)

	if len(sink.got) != 1 || sink.got[0].ID != 1 {
		t.Fatalf("delivered %d packets, want packet #1", len(sink.got))
	}
	if p.Hops != topo.Distance(src, dst) {
		t.Errorf("hops = %d, want Manhattan %d", p.Hops, topo.Distance(src, dst))
	}
	st := net.Stats()
	if st.Injected != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if net.InFlight() != 0 {
		t.Errorf("InFlight = %d after delivery", net.InFlight())
	}
}

func TestWormholeSerialisation(t *testing.T) {
	// Two packets from the same source to the same destination share every
	// link; with F flits each, the second must arrive ~F ticks after the
	// first rather than interleaving.
	net := testNet(8, 1, RouteAuto)
	topo := net.Topo
	sink := &collectSink{}
	src, dst := topo.ID(Coord{0, 0}), topo.ID(Coord{7, 0})
	net.Router(dst).SetSink(sink)

	var clk sim.Clock
	const flits = 4
	var arrive []sim.Tick
	wrapped := &hookSink{inner: sink, onAccept: func(p *Packet, now sim.Tick) { arrive = append(arrive, now) }}
	net.Router(dst).SetSink(wrapped)

	net.Inject(src, dataPacket(1, src, dst, 1, flits), clk.Now())
	net.Inject(src, dataPacket(2, src, dst, 1, flits), clk.Now())
	run(net, &clk, 300)

	if len(arrive) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(arrive))
	}
	gap := arrive[1] - arrive[0]
	if gap < flits {
		t.Errorf("second packet arrived %d ticks after first; want >= %d (link serialisation)", gap, flits)
	}
}

type hookSink struct {
	inner    Sink
	onAccept func(*Packet, sim.Tick)
}

func (h *hookSink) Accept(p *Packet, now sim.Tick) bool {
	if h.inner.Accept(p, now) {
		if h.onAccept != nil {
			h.onAccept(p, now)
		}
		return true
	}
	return false
}

func TestInjectBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferFlits = 8
	net := NewNetwork(NewTopology(4, 1), cfg)
	src := net.Topo.ID(Coord{0, 0})
	// Fill the local channel: 8 flit capacity, 4-flit packets -> 2 fit.
	var clk sim.Clock
	if !net.Inject(src, dataPacket(1, src, 3, 1, 4), clk.Now()) {
		t.Fatal("first inject failed")
	}
	if !net.Inject(src, dataPacket(2, src, 3, 1, 4), clk.Now()) {
		t.Fatal("second inject failed")
	}
	if net.Inject(src, dataPacket(3, src, 3, 1, 4), clk.Now()) {
		t.Error("third inject succeeded past buffer capacity")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Two flows contending for the same output link must both make progress.
	net := testNet(3, 3, RouteAuto)
	topo := net.Topo
	dst := topo.ID(Coord{2, 1})
	sink := &collectSink{}
	net.Router(dst).SetSink(sink)
	srcA := topo.ID(Coord{0, 1}) // west flow through (1,1)
	srcB := topo.ID(Coord{1, 1}) // local flow at (1,1)

	var clk sim.Clock
	id := uint64(1)
	for i := 0; i < 10; i++ {
		net.Inject(srcA, dataPacket(id, srcA, dst, 1, 2), clk.Now())
		id++
		net.Inject(srcB, dataPacket(id, srcB, dst, 2, 2), clk.Now())
		id++
		run(net, &clk, 4)
	}
	run(net, &clk, 300)
	var a, b int
	for _, p := range sink.got {
		if p.Task == 1 {
			a++
		} else {
			b++
		}
	}
	if a == 0 || b == 0 {
		t.Fatalf("starvation: flow A delivered %d, flow B %d", a, b)
	}
}

func TestDeliveryBlockedBySinkThenRecovered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadlockLimit = 10
	cfg.RequeueLimit = 1
	net := NewNetwork(NewTopology(2, 1), cfg)
	src, dst := NodeID(0), NodeID(1)
	sink := &collectSink{full: true}
	net.Router(dst).SetSink(sink)

	var recovered []*Packet
	net.RecoveryHandler = func(at NodeID, p *Packet, now sim.Tick) bool {
		recovered = append(recovered, p)
		return true
	}
	var clk sim.Clock
	net.Inject(src, dataPacket(1, src, dst, 1, 2), clk.Now())
	run(net, &clk, 80)
	if len(recovered) != 1 {
		t.Fatalf("recovered %d packets, want 1 (sink persistently full)", len(recovered))
	}
	if got := net.Stats().Rescued; got != 1 {
		t.Errorf("Rescued = %d, want 1", got)
	}
}

func TestDeadlockRecoveryOnBlockedLink(t *testing.T) {
	// A persistently full sink at dst backs the link up; the packet queued
	// behind it at the intermediate router must eventually be ejected.
	cfg := DefaultConfig()
	cfg.DeadlockLimit = 15
	cfg.RequeueLimit = 2
	cfg.BufferFlits = 4 // single 4-flit packet per channel
	net := NewNetwork(NewTopology(3, 1), cfg)
	sinkFull := &collectSink{full: true}
	net.Router(2).SetSink(sinkFull)
	dropped := 0
	net.DropHandler = func(at NodeID, p *Packet, reason DropReason) { dropped++ }

	var clk sim.Clock
	net.Inject(0, dataPacket(1, 0, 2, 1, 4), clk.Now())
	net.Inject(0, dataPacket(2, 0, 2, 1, 4), clk.Now())
	run(net, &clk, 200)

	if dropped == 0 {
		t.Error("no packets dropped despite a permanently blocked path")
	}
	rec := net.Router(2).Stats.Recovered + net.Router(1).Stats.Recovered + net.Router(0).Stats.Recovered
	if rec == 0 {
		t.Error("no router performed deadlock recovery")
	}
}

func TestConfigPacketAppliesToRouter(t *testing.T) {
	net := testNet(4, 1, RouteAuto)
	var clk sim.Clock
	cfgPkt := &Packet{ID: 1, Kind: Config, Src: 0, Dst: 3, Flits: 1, Op: OpSetDeadlockLimit, Arg: 77}
	net.Inject(0, cfgPkt, clk.Now())
	run(net, &clk, 50)
	if got := net.Router(3).deadlockLimit; got != 77 {
		t.Errorf("deadlockLimit = %d, want 77", got)
	}
	if net.Stats().ConfigOps != 1 {
		t.Errorf("ConfigOps = %d, want 1", net.Stats().ConfigOps)
	}
}

func TestConfigPortDisableEnable(t *testing.T) {
	net := testNet(4, 1, RouteAuto)
	var clk sim.Clock
	// Disable router 1's East output; traffic 0->3 must block and recover.
	net.Inject(0, &Packet{ID: 1, Kind: Config, Src: 0, Dst: 1, Flits: 1, Op: OpDisablePort, Arg: int(East)}, clk.Now())
	run(net, &clk, 20)
	disabled := func() bool { return net.state[1].disabled&(1<<East) != 0 }
	if !disabled() {
		t.Fatal("East port not disabled")
	}
	net.Inject(0, &Packet{ID: 2, Kind: Config, Src: 0, Dst: 1, Flits: 1, Op: OpEnablePort, Arg: int(East)}, clk.Now())
	run(net, &clk, 20)
	if disabled() {
		t.Fatal("East port not re-enabled")
	}
}

func TestConfigForwardedToConfigSink(t *testing.T) {
	net := testNet(2, 1, RouteAuto)
	var gotOp ConfigOp
	var gotArg, gotArg2 int
	net.Router(1).SetConfigSink(configSinkFunc(func(dst NodeID, op ConfigOp, a, b int, now sim.Tick) {
		gotOp, gotArg, gotArg2 = op, a, b
	}))
	var clk sim.Clock
	net.Inject(0, &Packet{ID: 1, Kind: Config, Src: 0, Dst: 1, Flits: 1, Op: OpAIMParam, Arg: 3, Arg2: 42}, clk.Now())
	run(net, &clk, 20)
	if gotOp != OpAIMParam || gotArg != 3 || gotArg2 != 42 {
		t.Errorf("config sink got op=%d arg=%d arg2=%d", gotOp, gotArg, gotArg2)
	}
}

type configSinkFunc func(NodeID, ConfigOp, int, int, sim.Tick)

func (f configSinkFunc) ApplyConfig(dst NodeID, op ConfigOp, a, b int, now sim.Tick) {
	f(dst, op, a, b, now)
}

func TestMonitorImpulses(t *testing.T) {
	net := testNet(4, 1, RouteAuto)
	sink := &collectSink{}
	net.Router(3).SetSink(sink)

	var routedAt1 []taskgraph.TaskID
	var internalAt3 []taskgraph.TaskID
	net.Router(1).Monitors.RoutedTask = func(task taskgraph.TaskID, now sim.Tick) {
		routedAt1 = append(routedAt1, task)
	}
	net.Router(3).Monitors.InternalDelivery = func(task taskgraph.TaskID, now sim.Tick) {
		internalAt3 = append(internalAt3, task)
	}
	var clk sim.Clock
	net.Inject(0, dataPacket(1, 0, 3, 2, 2), clk.Now())
	run(net, &clk, 50)
	if len(routedAt1) != 1 || routedAt1[0] != 2 {
		t.Errorf("RoutedTask impulses at router 1 = %v", routedAt1)
	}
	if len(internalAt3) != 1 || internalAt3[0] != 2 {
		t.Errorf("InternalDelivery impulses at router 3 = %v", internalAt3)
	}
}

func TestDeadlineLapseMonitor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadlockLimit = 0 // keep the packet stuck without recovery
	net := NewNetwork(NewTopology(2, 1), cfg)
	sink := &collectSink{full: true}
	net.Router(1).SetSink(sink)
	lapses := 0
	net.Router(1).Monitors.DeadlineLapse = func(task taskgraph.TaskID, now sim.Tick) { lapses++ }
	var clk sim.Clock
	p := dataPacket(1, 0, 1, 1, 2)
	p.Deadline = 10
	net.Inject(0, p, clk.Now())
	run(net, &clk, 60)
	if lapses != 1 {
		t.Errorf("DeadlineLapse fired %d times, want exactly 1 (impulse is edge-triggered)", lapses)
	}
}

func TestRouterFailureDropsBufferedPackets(t *testing.T) {
	net := testNet(4, 1, RouteAuto)
	var clk sim.Clock
	var drops []DropReason
	net.DropHandler = func(at NodeID, p *Packet, reason DropReason) { drops = append(drops, reason) }
	net.Inject(1, dataPacket(1, 1, 3, 1, 2), clk.Now())
	net.Fail([]NodeID{1}, nil)
	if len(drops) != 1 || drops[0] != DropRouterFailed {
		t.Fatalf("drops = %v, want one DropRouterFailed", drops)
	}
	if net.Alive(1) {
		t.Error("router 1 still alive after Fail")
	}
	if net.FaultyCount() != 1 {
		t.Errorf("FaultyCount = %d", net.FaultyCount())
	}
	// Idempotent.
	net.Fail([]NodeID{1}, nil)
	if net.FaultyCount() != 1 {
		t.Errorf("FaultyCount after double Fail = %d", net.FaultyCount())
	}
}

func TestRouteAroundFailedRouter(t *testing.T) {
	net := testNet(4, 4, RouteAuto)
	topo := net.Topo
	sink := &collectSink{}
	src := topo.ID(Coord{0, 0})
	dst := topo.ID(Coord{3, 0})
	net.Router(dst).SetSink(sink)
	var clk sim.Clock
	// Kill the direct XY path.
	net.Fail([]NodeID{topo.ID(Coord{1, 0})}, nil)
	net.Fail([]NodeID{topo.ID(Coord{2, 0})}, nil)
	p := dataPacket(1, src, dst, 1, 2)
	net.Inject(src, p, clk.Now())
	run(net, &clk, 200)
	if len(sink.got) != 1 {
		t.Fatalf("packet not delivered around faults (delivered %d)", len(sink.got))
	}
	if p.Hops <= 3 {
		t.Errorf("hops = %d; a detour should exceed the direct distance 3", p.Hops)
	}
}

func TestUnreachableDestinationRecovered(t *testing.T) {
	net := testNet(4, 1, RouteAuto)
	var clk sim.Clock
	var recoveredIDs []uint64
	net.RecoveryHandler = func(at NodeID, p *Packet, now sim.Tick) bool {
		recoveredIDs = append(recoveredIDs, p.ID)
		return true
	}
	// Partition: kill node 2; node 3 becomes unreachable from 0 on a 1-row mesh.
	net.Fail([]NodeID{2}, nil)
	net.Inject(0, dataPacket(9, 0, 3, 1, 2), clk.Now())
	run(net, &clk, 50)
	if len(recoveredIDs) != 1 || recoveredIDs[0] != 9 {
		t.Errorf("recovery handler saw %v, want [9]", recoveredIDs)
	}
	if net.Reachable(0, 3) {
		t.Error("Reachable(0,3) across a partition")
	}
	if !net.Reachable(0, 1) {
		t.Error("Reachable(0,1) within partition reported false")
	}
}

func TestQueuedHeadTask(t *testing.T) {
	net := testNet(2, 1, RouteAuto)
	var clk sim.Clock
	r := net.Router(0)
	if _, ok := r.QueuedHeadTaskFunc(clk.Now(), nil); ok {
		t.Fatal("empty router reported a queued task")
	}
	p := dataPacket(1, 0, 1, 7, 2)
	p.Created = clk.Now()
	net.Inject(0, p, clk.Now())
	task, ok := r.QueuedHeadTaskFunc(clk.Now(), nil)
	if !ok || task != 7 {
		t.Errorf("QueuedHeadTaskFunc = %d,%v, want 7,true", task, ok)
	}
}

func TestFaultyRouterRejectsInjection(t *testing.T) {
	net := testNet(2, 1, RouteAuto)
	var clk sim.Clock
	net.Fail([]NodeID{0}, nil)
	if net.Inject(0, dataPacket(1, 0, 1, 1, 2), clk.Now()) {
		t.Error("inject into failed router succeeded")
	}
}

func TestPacketLapsedOnce(t *testing.T) {
	p := dataPacket(1, 0, 1, 1, 2)
	p.Deadline = 5
	if p.Lapsed(3) {
		t.Error("lapsed before deadline")
	}
	if !p.Lapsed(6) {
		t.Error("not lapsed after deadline")
	}
	if p.Lapsed(7) {
		t.Error("lapse fired twice")
	}
	q := dataPacket(2, 0, 1, 1, 2) // no deadline
	if q.Lapsed(1000) {
		t.Error("packet without deadline lapsed")
	}
}

func TestNoSinkDrop(t *testing.T) {
	net := testNet(2, 1, RouteAuto)
	var clk sim.Clock
	var reasons []DropReason
	net.DropHandler = func(at NodeID, p *Packet, reason DropReason) { reasons = append(reasons, reason) }
	net.Inject(0, dataPacket(1, 0, 1, 1, 2), clk.Now())
	run(net, &clk, 30)
	if len(reasons) != 1 || reasons[0] != DropNoSink {
		t.Errorf("reasons = %v, want [no-sink]", reasons)
	}
}

// Packet conservation: injected = delivered + dropped + rescued-in-flight
// over a randomised traffic pattern on a healthy mesh with ample time.
func TestPacketConservation(t *testing.T) {
	net := testNet(8, 8, RouteAuto)
	topo := net.Topo
	sink := &collectSink{}
	for id := NodeID(0); int(id) < topo.Nodes(); id++ {
		net.Router(id).SetSink(sink)
	}
	rng := newTestRNG(12345)
	var clk sim.Clock
	injected := 0
	for i := 0; i < 500; i++ {
		src := NodeID(rng.Intn(topo.Nodes()))
		dst := NodeID(rng.Intn(topo.Nodes()))
		if src == dst {
			continue
		}
		if net.Inject(src, dataPacket(uint64(i), src, dst, 1, 2), clk.Now()) {
			injected++
		}
		if i%4 == 0 {
			run(net, &clk, 1)
		}
	}
	run(net, &clk, 2000)
	st := net.Stats()
	if int(st.Injected) != injected {
		t.Errorf("Injected = %d, want %d", st.Injected, injected)
	}
	if got := int(st.Delivered + st.Dropped); got != injected {
		t.Errorf("delivered+dropped = %d, want %d (in flight %d)", got, injected, net.InFlight())
	}
	if st.Dropped != 0 {
		t.Errorf("dropped %d packets on a healthy uncongested mesh", st.Dropped)
	}
}
