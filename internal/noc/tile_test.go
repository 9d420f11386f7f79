package noc

// Fabric-level contracts of the parallel tiled tick kernel (ISSUE 8):
// partition geometry (even-row bands, cmesh clusters never split), W=1 vs
// W=4 full-state bit-identity tick for tick (router records, ring contents,
// stats, in-flight accounting), the staged-boundary-work property (every
// staged edge service drains exactly once per tick, in deterministic order),
// and the huge-fabric live-routing mode that lifts the scale ceiling to
// 1024×1024.

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"centurion/internal/sim"
)

func TestAutoTiles(t *testing.T) {
	cases := []struct {
		w, h, want int
	}{
		{16, 8, 1},     // default grid: below the tiling threshold
		{64, 32, 2},    // 2048 nodes: the smallest tiled fabric
		{64, 64, 4},    // ISSUE 8's first scale point
		{256, 256, 64}, // Table-I mega run: capped at 64 tiles
		{1024, 1024, 64},
		{2048, 2, 1}, // too flat to band: h < 4
		{4, 1024, 4}, // narrow column: one tile per 1024 nodes
		{2048, 4, 2}, // clamped to one tile per two rows
	}
	for _, c := range cases {
		if got := autoTiles(c.w, c.h); got != c.want {
			t.Errorf("autoTiles(%d, %d) = %d, want %d", c.w, c.h, got, c.want)
		}
	}
}

// tiledNet builds a fabric with an explicit tile and worker count.
func tiledNet(t *testing.T, kind string, w, h, tiles, workers int) *Network {
	t.Helper()
	topo, err := MakeTopology(kind, w, h)
	if err != nil {
		t.Fatalf("MakeTopology(%s, %d, %d): %v", kind, w, h, err)
	}
	cfg := DefaultConfig()
	cfg.Tiles = tiles
	cfg.Workers = workers
	return NewNetwork(topo, cfg)
}

func TestTilePartition(t *testing.T) {
	shapes := []struct {
		kind          string
		w, h, k, want int
	}{
		{"mesh", 16, 8, 4, 4},
		{"mesh", 16, 7, 3, 3}, // odd height: last tile absorbs the odd row
		{"mesh", 10, 5, 2, 2},
		{"mesh", 16, 8, 100, 4}, // clamped to (h+1)/2 row pairs
		{"cmesh", 16, 8, 4, 4},
		{"torus", 16, 8, 4, 4},
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%s-%dx%d-k%d", s.kind, s.w, s.h, s.k), func(t *testing.T) {
			n := tiledNet(t, s.kind, s.w, s.h, s.k, 1)
			if got := n.TileCount(); got != s.want {
				t.Fatalf("TileCount = %d, want %d", got, s.want)
			}
			// Tiles must be contiguous, cover every router exactly once, and
			// start on even rows (cmesh 2×2 clusters must never split).
			next := 0
			for i, tile := range n.tiles {
				if tile.lo != next {
					t.Errorf("tile %d starts at %d, want %d (contiguity)", i, tile.lo, next)
				}
				if tile.hi <= tile.lo {
					t.Errorf("tile %d is empty: [%d, %d)", i, tile.lo, tile.hi)
				}
				if row := tile.lo / s.w; row%2 != 0 {
					t.Errorf("tile %d starts mid-pair at row %d", i, row)
				}
				next = tile.hi
				// The tile stamped on each router record must agree with the range.
				for id := tile.lo; id < tile.hi; id++ {
					if got := n.state[id].tile; int(got) != i {
						t.Fatalf("state[%d].tile = %d, want %d", id, got, i)
					}
				}
			}
			if next != s.w*s.h {
				t.Errorf("tiles cover [0, %d), want [0, %d)", next, s.w*s.h)
			}
		})
	}
}

// routerSnap is the full observable state of one router: every scalar of the
// hot record, the FIFO contents of every input ring in order, and the
// cumulative counters. The hop row is deliberately excluded — it is a pure
// function of the shared routing state, not per-run state.
type routerSnap struct {
	quiet                              sim.Tick
	queued                             int32
	occ, rr, disabled, refused, linkDn uint8
	faulty                             bool
	linkBusy                           [NumPorts]sim.Tick
	blockedAt                          [NumPorts]sim.Tick
	stats                              RouterStats
	rings                              [NumPorts][]ringSlot
}

func snapshotFabric(n *Network) []routerSnap {
	snaps := make([]routerSnap, len(n.uniq))
	for i, r := range n.uniq {
		id := int(r.ID)
		st := &n.state[id]
		s := &snaps[i]
		s.quiet, s.queued = st.quiet, st.queued
		s.occ, s.rr, s.disabled, s.refused, s.linkDn = st.occ, st.rr, st.disabled, st.refused, st.linkDown
		s.faulty = st.faulty
		s.linkBusy, s.blockedAt = st.linkBusy, st.blockedAt
		s.stats = r.Stats
		for p := 0; p < int(NumPorts); p++ {
			rm := &st.rings[p]
			base := uint32((id*int(NumPorts) + p) * n.spp)
			for j := uint32(0); j < rm.n; j++ {
				s.rings[p] = append(s.rings[p], n.slots[base+((rm.head-base+j)&n.sppMask)])
			}
		}
	}
	return snaps
}

// runTileLockstep drives a serial-swept (W=1) and a parallel-swept (W=4)
// four-tile fabric through the same injection stream and perturbation
// schedule, comparing the complete fabric state after every tick.
func runTileLockstep(t *testing.T, kind string, ticks int, perturb func(n *Network, tick int, now sim.Tick)) {
	t.Helper()
	build := func(workers int) (*Network, []*collectSink) {
		n := tiledNet(t, kind, 16, 8, 4, workers)
		sinks := make([]*collectSink, len(n.uniq))
		for i, r := range n.uniq {
			sinks[i] = &collectSink{}
			r.SetSink(sinks[i])
		}
		return n, sinks
	}
	serial, serialSinks := build(1)
	parallel, parallelSinks := build(4)
	if !parallel.ParallelTick() {
		t.Fatal("W=4 fabric did not arm the parallel tick")
	}

	nodes := serial.Topo.Nodes()
	inject := func(n *Network, rng *sim.RNG, now sim.Tick, pid *uint64) {
		// Two packets every other tick, sources and destinations drawn across
		// the whole fabric so plenty of forwards cross tile boundaries.
		for k := 0; k < 2; k++ {
			src := NodeID(rng.Intn(nodes))
			dst := NodeID(rng.Intn(nodes))
			*pid++
			n.Inject(src, dataPacket(*pid, src, dst, 1, 1+rng.Intn(3)), now)
		}
	}

	rngS, rngP := sim.NewRNG(0x711e), sim.NewRNG(0x711e)
	var pidS, pidP uint64
	var clkS, clkP sim.Clock
	for tick := 0; tick < ticks; tick++ {
		if tick%2 == 0 {
			inject(serial, rngS, clkS.Now(), &pidS)
			inject(parallel, rngP, clkP.Now(), &pidP)
		}
		if perturb != nil {
			perturb(serial, tick, clkS.Now())
			perturb(parallel, tick, clkP.Now())
		}
		serial.Tick(clkS.Now())
		parallel.Tick(clkP.Now())
		clkS.Step()
		clkP.Step()

		if ss, ps := serial.Stats(), parallel.Stats(); ss != ps {
			t.Fatalf("tick %d: network stats diverged:\n serial:   %+v\n parallel: %+v", tick, ss, ps)
		}
		if si, pi := serial.InFlight(), parallel.InFlight(); si != pi {
			t.Fatalf("tick %d: InFlight diverged: serial %d, parallel %d", tick, si, pi)
		}
		sf, pf := snapshotFabric(serial), snapshotFabric(parallel)
		for i := range sf {
			if !reflect.DeepEqual(sf[i], pf[i]) {
				t.Fatalf("tick %d: router %d state diverged:\n serial:   %+v\n parallel: %+v",
					tick, serial.uniq[i].ID, sf[i], pf[i])
			}
		}
		if staged, drained := parallel.TileStaging(); staged != drained {
			t.Fatalf("tick %d: staged %d != drained %d", tick, staged, drained)
		}
	}

	for i := range serialSinks {
		sIDs := make([]uint64, len(serialSinks[i].got))
		pIDs := make([]uint64, len(parallelSinks[i].got))
		for j, p := range serialSinks[i].got {
			sIDs[j] = p.ID
		}
		for j, p := range parallelSinks[i].got {
			pIDs[j] = p.ID
		}
		if !reflect.DeepEqual(sIDs, pIDs) {
			t.Fatalf("router %d delivery order diverged:\n serial:   %v\n parallel: %v",
				serial.uniq[i].ID, sIDs, pIDs)
		}
	}
	if staged, _ := parallel.TileStaging(); staged == 0 {
		t.Error("no boundary services were staged — the scenario never exercised the merge phase")
	}
}

func TestTileParallelBitIdentity(t *testing.T) {
	scenarios := []struct {
		name    string
		perturb func(n *Network, tick int, now sim.Tick)
	}{
		{"clean", nil},
		{"fail-revive", func(n *Network, tick int, now sim.Tick) {
			// Kill two routers in different tiles mid-run, revive one later.
			switch tick {
			case 60:
				n.Fail([]NodeID{n.Topo.ID(Coord{5, 1})}, nil)
				n.Fail([]NodeID{n.Topo.ID(Coord{9, 6})}, nil)
			case 200:
				n.Revive([]NodeID{n.Topo.ID(Coord{5, 1})}, nil)
			}
		}},
		{"flaky-link", func(n *Network, tick int, now sim.Tick) {
			// A link on the tile-1/tile-2 boundary flaps down and back up.
			id := n.Topo.ID(Coord{7, 3})
			switch tick {
			case 50:
				n.SetLinkHealth(id, South, false, now)
			case 180:
				n.SetLinkHealth(id, South, true, now)
			}
		}},
		{"byzantine", func(n *Network, tick int, now sim.Tick) {
			// Arming byzantine interference drops the kernel to its serial
			// sweep (the meddler's RNG draws are order-sensitive); disarming
			// restores the parallel path. Both transitions must be seamless.
			id := n.Topo.ID(Coord{8, 4})
			switch tick {
			case 40:
				n.SetByzantine(id, 1<<31, ByzMisroute|ByzDrop|ByzDup, 0xb12a)
			case 220:
				n.SetByzantine(id, 0, 0, 0)
			}
		}},
	}
	for _, kind := range []string{"mesh", "torus", "cmesh"} {
		for _, sc := range scenarios {
			t.Run(kind+"/"+sc.name, func(t *testing.T) {
				runTileLockstep(t, kind, 320, sc.perturb)
			})
		}
	}
}

// TestTileStagingDrainsOnce is the boundary property test: after every Tick
// the cumulative staged and drained counts match (each staged edge service
// ran exactly once in the merge) and every tile's scratch is empty — no
// record survives into the next tick.
func TestTileStagingDrainsOnce(t *testing.T) {
	n := tiledNet(t, "mesh", 16, 8, 4, 4)
	for _, r := range n.uniq {
		r.SetSink(&collectSink{})
	}
	rng := sim.NewRNG(0xd2a1)
	nodes := n.Topo.Nodes()
	var clk sim.Clock
	var pid uint64
	for tick := 0; tick < 300; tick++ {
		// Saturating cross-fabric load: every tick, four random flows.
		for k := 0; k < 4; k++ {
			src := NodeID(rng.Intn(nodes))
			dst := NodeID(rng.Intn(nodes))
			pid++
			n.Inject(src, dataPacket(pid, src, dst, 1, 1+rng.Intn(3)), clk.Now())
		}
		n.Tick(clk.Now())
		clk.Step()
		staged, drained := n.TileStaging()
		if staged != drained {
			t.Fatalf("tick %d: staged %d != drained %d", tick, staged, drained)
		}
		for i := range n.scratch {
			sc := &n.scratch[i]
			if len(sc.svc) != 0 || len(sc.stirs) != 0 || len(sc.recs) != 0 || len(sc.drops) != 0 {
				t.Fatalf("tick %d: tile %d scratch not drained: svc=%d stirs=%d recs=%d drops=%d",
					tick, i, len(sc.svc), len(sc.stirs), len(sc.recs), len(sc.drops))
			}
			if sc.stats != (NetworkStats{}) {
				t.Fatalf("tick %d: tile %d stats delta not folded: %+v", tick, i, sc.stats)
			}
		}
	}
	if staged, _ := n.TileStaging(); staged == 0 {
		t.Fatal("no boundary work staged under saturating cross-fabric load")
	}
	// Reset must zero the lifetime staging counters with the rest.
	n.Reset()
	if staged, drained := n.TileStaging(); staged != 0 || drained != 0 {
		t.Errorf("TileStaging after Reset = (%d, %d), want (0, 0)", staged, drained)
	}
}

// TestTileSingleNeverStages is the K=1 half of the one-kernel contract: the
// paper's 16×8 fabric is one tile with no boundary, so under load — clean,
// then with a byzantine router armed, through a fail and a revive — it sweeps
// with a nil staging context: nothing is ever staged, no scratch or crew
// exists, the tick is never parallel whatever Workers says, and every router
// holding traffic is enrolled in the tile's one active set.
func TestTileSingleNeverStages(t *testing.T) {
	n := tiledNet(t, "mesh", 16, 8, 0, 4)
	if n.scratch != nil || n.crew != nil {
		t.Fatal("single-tile fabric allocated staging scratch or a crew")
	}
	for _, r := range n.uniq {
		r.SetSink(&collectSink{})
	}
	rng := sim.NewRNG(0x51e1)
	nodes := n.Topo.Nodes()
	var clk sim.Clock
	var pid uint64
	for tick := 0; tick < 300; tick++ {
		for k := 0; k < 4; k++ {
			src := NodeID(rng.Intn(nodes))
			dst := NodeID(rng.Intn(nodes))
			pid++
			n.Inject(src, dataPacket(pid, src, dst, 1, 1+rng.Intn(3)), clk.Now())
		}
		switch tick {
		case 40:
			n.SetByzantine(n.Topo.ID(Coord{8, 4}), 1<<31, ByzMisroute|ByzDrop|ByzDup, 0xb12a)
		case 60:
			n.Fail([]NodeID{n.Topo.ID(Coord{5, 1})}, nil)
			n.Fail([]NodeID{n.Topo.ID(Coord{9, 6})}, nil)
		case 200:
			n.Revive([]NodeID{n.Topo.ID(Coord{5, 1})}, nil)
		}
		if n.ParallelTick() {
			t.Fatalf("tick %d: single-tile fabric armed a parallel tick", tick)
		}
		n.Tick(clk.Now())
		clk.Step()
		if k := n.TileCount(); k != 1 {
			t.Fatalf("tick %d: TileCount = %d, want 1", tick, k)
		}
		if staged, drained := n.TileStaging(); staged != 0 || drained != 0 {
			t.Fatalf("tick %d: TileStaging = (%d, %d), want (0, 0)", tick, staged, drained)
		}
		for _, r := range n.uniq {
			if n.state[r.ID].queued > 0 && !n.tiles[0].set.Contains(int(r.ID)) {
				t.Fatalf("tick %d: router %d holds traffic but is not in the active set", tick, r.ID)
			}
		}
	}
	if st := n.Stats(); st.Delivered == 0 || st.Dropped == 0 || st.ByzMisrouted+st.ByzDropped+st.ByzDuplicated == 0 {
		t.Fatalf("scenario never exercised delivery, drops and byzantine interference: %+v", st)
	}
}

// TestHugeFabricLiveRouting covers the mega-fabric mode: beyond HugeNodes
// the O(nodes²) routing structures are skipped and every hop is computed on
// the fly, so a 128×128 fabric must deliver along exact dimension-order
// paths, treat faults without rerouting (blocked heads take the
// deadlock-recovery path), and answer Reachable optimistically.
func TestHugeFabricLiveRouting(t *testing.T) {
	n := tiledNet(t, "mesh", 128, 128, 0, 1)
	if !n.huge {
		t.Fatal("16384-node fabric did not enter huge mode")
	}
	if n.state[0].hop != nil {
		t.Fatal("huge fabric built per-router hop rows")
	}
	if got := n.TileCount(); got != 16 {
		t.Errorf("TileCount = %d, want 16 (one per 1024 nodes)", got)
	}

	topo := n.Topo
	src, dst := topo.ID(Coord{0, 0}), topo.ID(Coord{127, 127})
	sink := &collectSink{}
	n.Router(dst).SetSink(sink)

	p := dataPacket(1, src, dst, 1, 2)
	var clk sim.Clock
	if !n.Inject(src, p, clk.Now()) {
		t.Fatal("Inject failed on empty fabric")
	}
	run(n, &clk, 600)
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sink.got))
	}
	if want := topo.Distance(src, dst); p.Hops != want {
		t.Errorf("hops = %d, want Manhattan %d (live XY routing)", p.Hops, want)
	}

	// Fail a router on the XY path. Routes are never recomputed in huge
	// mode: the next packet heads straight into the dead router, blocks, and
	// the deadlock-recovery path ejects it.
	mid := topo.ID(Coord{64, 0})
	n.Fail([]NodeID{mid}, nil)
	if !n.Reachable(src, dst) {
		t.Error("huge-mode Reachable must stay optimistic under faults")
	}
	before := n.Stats().Dropped
	n.Inject(src, dataPacket(2, src, dst, 1, 2), clk.Now())
	run(n, &clk, 2000)
	if got := n.Stats().Dropped; got != before+1 {
		t.Errorf("dropped = %d, want %d (deadlock recovery must eject the blocked packet)", got, before+1)
	}
	if n.InFlight() != 0 {
		t.Errorf("InFlight = %d after ejection, want 0", n.InFlight())
	}
}

// TestMegaFabric256Smoke proves the 65k-node Table-I scale point assembles
// and carries traffic end to end through the tiled kernel.
func TestMegaFabric256Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("65k-node fabric build is slow under -short")
	}
	n := tiledNet(t, "mesh", 256, 256, 0, 2)
	if !n.huge {
		t.Fatal("65536-node fabric did not enter huge mode")
	}
	if got := n.TileCount(); got != 64 {
		t.Errorf("TileCount = %d, want 64", got)
	}
	topo := n.Topo
	src, dst := topo.ID(Coord{0, 0}), topo.ID(Coord{255, 255})
	sink := &collectSink{}
	n.Router(dst).SetSink(sink)
	var clk sim.Clock
	n.Inject(src, dataPacket(1, src, dst, 1, 2), clk.Now())
	run(n, &clk, 1200)
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets across the 256×256 fabric, want 1", len(sink.got))
	}
	if staged, drained := n.TileStaging(); staged == 0 || staged != drained {
		t.Errorf("TileStaging = (%d, %d): cross-tile path must stage and drain", staged, drained)
	}
}

// TestMegaFabric1024 exercises the full 2^20-node ceiling. The fabric's ring
// backing alone is >1 GiB, so the test only runs when explicitly requested.
func TestMegaFabric1024(t *testing.T) {
	if os.Getenv("CENTURION_MEGA") == "" {
		t.Skip("set CENTURION_MEGA=1 to build the 1,048,576-node fabric")
	}
	n := tiledNet(t, "mesh", 1024, 1024, 0, 4)
	if !n.huge {
		t.Fatal("1M-node fabric did not enter huge mode")
	}
	topo := n.Topo
	src, dst := topo.ID(Coord{0, 0}), topo.ID(Coord{1023, 0})
	sink := &collectSink{}
	n.Router(dst).SetSink(sink)
	var clk sim.Clock
	n.Inject(src, dataPacket(1, src, dst, 1, 1), clk.Now())
	run(n, &clk, 3000)
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets across the 1024×1024 fabric, want 1", len(sink.got))
	}
}
