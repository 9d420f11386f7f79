package centurion

// Packet-lifecycle tests for the recycling pool (ISSUE 3): conservation
// (every acquired packet is either in flight or back in the pool — no leaks,
// no double-recycles — across faults, retargets and deadlock recovery) and
// per-run ID uniqueness. Double-recycling itself panics inside the pool, so
// every test in this package doubles as a use-after-free canary.

import (
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// inFlightPackets counts every packet the platform currently owns outside
// the pool: router buffers plus PE queues, in-progress slots and outboxes.
func inFlightPackets(p *Platform) int {
	n := p.Net.InFlight()
	for _, pe := range p.PEs() {
		n += pe.PendingPackets()
	}
	return n
}

// acquired returns how many packets the platform has taken from its pool so
// far (recycled or fresh), cumulative across runs.
func acquired(p *Platform) uint64 {
	st := p.PacketPool().Stats()
	return uint64(st.Live) + st.Recycled
}

// checkConservation asserts the pool's books balance against the platform:
// live (acquired, not yet recycled) packets must equal the packets in
// flight, and the ID counter must have stamped exactly one fresh ID per
// acquisition since baseAcquired (the pool's watermark when the current run
// began) — IDs are unique within a run by monotonicity.
func checkConservation(t *testing.T, p *Platform, baseAcquired uint64) {
	t.Helper()
	st := p.PacketPool().Stats()
	if inflight := inFlightPackets(p); st.Live != inflight {
		t.Errorf("pool books unbalanced: %d live packets vs %d in flight (leak or double-recycle)",
			st.Live, inflight)
	}
	if got := acquired(p) - baseAcquired; got != p.nextPkt {
		t.Errorf("acquired %d packets this run but stamped %d IDs", got, p.nextPkt)
	}
}

func TestPacketConservation(t *testing.T) {
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
		t.Run(m.name, func(t *testing.T) {
			p := New(DefaultConfig(m.factory, m.mapper, 11))
			// Heavy faults drive drops, retargets, join GC and deadlock
			// recovery — the lifecycle's hard paths.
			scheduleKill(p, sim.Ms(50), faults.RandomNodes(p.Topo, 32, sim.NewRNG(0xbeef)))
			p.RunFor(sim.Ms(200), nil)

			if p.Counters().PacketsDropped == 0 {
				t.Error("scenario exercised no drops; conservation check is vacuous")
			}
			checkConservation(t, p, 0)
		})
	}
}

func TestPacketConservationAcrossReset(t *testing.T) {
	p := New(DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3))
	scheduleKill(p, sim.Ms(30), faults.RandomNodes(p.Topo, 16, sim.NewRNG(1)))
	p.RunFor(sim.Ms(120), nil)
	checkConservation(t, p, 0)

	// Reset reclaims every in-flight packet: the books must close fully.
	p.Reset(4)
	if st := p.PacketPool().Stats(); st.Live != 0 {
		t.Fatalf("%d packets leaked across Reset", st.Live)
	}
	if got := inFlightPackets(p); got != 0 {
		t.Fatalf("%d packets in flight on a freshly reset platform", got)
	}

	// And the next run starts a fresh unique ID space on recycled storage.
	base := acquired(p)
	p.RunFor(sim.Ms(120), nil)
	checkConservation(t, p, base)
	if p.Counters().InstancesCompleted == 0 {
		t.Error("reset platform completed nothing")
	}
}

// TestArenaBooksAcrossResetAllTopologies drives every fabric shape through
// a faulted run and a Platform.Reset, asserting the packet arena's books
// match the in-flight census at every stage: live packets equal packets held
// by routers/PEs while running, and after Reset every arena slot is back on
// the free list (the whole arena is parked, nothing leaked to a stale
// handle).
func TestArenaBooksAcrossResetAllTopologies(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		t.Run(topo, func(t *testing.T) {
			cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 9)
			cfg.Topology = topo
			p := New(cfg)
			scheduleKill(p, sim.Ms(30), faults.RandomNodes(p.Topo, 16, sim.NewRNG(0xfee1)))
			p.RunFor(sim.Ms(120), nil)
			if p.Counters().PacketsDropped == 0 {
				t.Error("faulted run dropped nothing; the books check is vacuous")
			}
			checkConservation(t, p, 0)

			p.Reset(10)
			st := p.PacketPool().Stats()
			if st.Live != 0 {
				t.Fatalf("%d packets leaked across Reset", st.Live)
			}
			if st.FreeListLen != st.Slots {
				t.Fatalf("arena books unbalanced after Reset: %d free of %d slots",
					st.FreeListLen, st.Slots)
			}
			if got := inFlightPackets(p); got != 0 {
				t.Fatalf("%d packets in flight on a freshly reset platform", got)
			}

			// The reset platform re-runs (with fresh faults) on recycled
			// storage and the books still balance.
			base := acquired(p)
			scheduleKill(p, sim.Ms(20), faults.RandomNodes(p.Topo, 8, sim.NewRNG(0xfee2)))
			p.RunFor(sim.Ms(100), nil)
			checkConservation(t, p, base)
		})
	}
}

func TestPacketConservationRCAPAndDebug(t *testing.T) {
	// Config packets are consumed by routers, debug packets on the spot by
	// PEs; both must return to the pool. Node resets and clock gates drop
	// held packets through the PE-side accounting path.
	p := New(DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 7))
	ctl := NewController(p)
	p.RunFor(sim.Ms(50), nil)
	if _, err := ctl.BroadcastConfig(noc.OpSetDeadlockLimit, 500, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.SendConfig(40, noc.OpNodeReset, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.SendConfig(41, noc.OpNodeClockEnable, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Run until the config traffic (and any controller retries) drains.
	p.RunFor(sim.Ms(150), nil)
	checkConservation(t, p, 0)
}

// TestPlatformStepSteadyStateAllocFree is the allocation regression guard
// behind the CI bench-smoke threshold: at steady state a platform tick must
// not allocate (averaged over many ticks — a rare task switch may grow an
// owner list).
func TestPlatformStepSteadyStateAllocFree(t *testing.T) {
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
		t.Run(m.name, func(t *testing.T) {
			p := New(DefaultConfig(m.factory, m.mapper, 1))
			p.RunFor(sim.Ms(400), nil) // grow capacities and caches, fill the pool
			allocs := testing.AllocsPerRun(2000, func() { p.Step() })
			if allocs > 0.05 {
				t.Errorf("steady-state Step allocates %.3f objects/tick, want ~0", allocs)
			}
		})
	}
}

func TestControllerRetryReclaimedOnReset(t *testing.T) {
	p := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 21))
	ctl := NewController(p)
	tap := ctl.Taps()[0]
	// Disable the tap's Local input channel so subsequent controller uploads
	// back-pressure forever and live as retry events holding their packet.
	if err := ctl.SendConfig(tap, noc.OpDisablePort, int(noc.Local), 0); err != nil {
		t.Fatal(err)
	}
	p.RunFor(sim.Ms(5), nil)
	if err := ctl.SendConfig(tap, noc.OpSetDeadlockLimit, 100, 0); err != nil {
		t.Fatal(err)
	}
	p.RunFor(sim.Ms(5), nil)
	st := p.PacketPool().Stats()
	if want := inFlightPackets(p) + 1; st.Live != want {
		t.Fatalf("live = %d, want %d (in flight + 1 retry-held config packet)", st.Live, want)
	}
	// Reset clears the retry event; the held packet must return to the pool.
	p.Reset(22)
	if st := p.PacketPool().Stats(); st.Live != 0 {
		t.Errorf("%d packets leaked across Reset (controller retry not reclaimed)", st.Live)
	}
}
