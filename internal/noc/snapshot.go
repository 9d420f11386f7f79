package noc

import (
	"fmt"

	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/wire"
)

// Checkpoint support for the fabric (DESIGN.md §15). A NetworkState is a
// deep, self-contained copy of everything a Network mutates while running:
// the packet arena (per-slot packet values, generation tags, free list and
// accounting), the shared ring-slot slice, the per-router hot records and
// next-hop rows (the fabric's only routing state, so a restore copies routes
// and never recomputes them), the active sets, byzantine arming (including
// each router's private RNG stream), fault flags and fabric counters.
// Everything immutable — topology, tile layout — stays with the platform and
// is never copied.

// ArenaIndex resolves the arena slot a packet is bound to in this pool —
// how higher layers record packet references in a checkpoint (the slot
// index is stable across snapshot and restore; pointers are not).
func (pp *PacketPool) ArenaIndex(p *Packet) (int32, bool) { return pp.slotOf(p) }

// ArenaPacket returns the packet bound to an arena slot.
func (pp *PacketPool) ArenaPacket(idx int32) *Packet { return pp.slots[idx] }

// sliceFor returns s resized to n elements, reallocating only when the
// capacity is short — the restore hot path reuses checkpoint backing.
func sliceFor[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// poolState captures a PacketPool: every bound slot's packet value, the
// generation tags, the free list and the exact accounting counters, so a
// restored pool's Stats and future Get/Put sequence are bit-identical.
type poolState struct {
	packets          []Packet
	gen              []uint32
	free             []int32
	news, gets, puts uint64
}

func (pp *PacketPool) saveState(st *poolState) {
	st.packets = sliceFor(st.packets, len(pp.slots))
	for i, p := range pp.slots {
		st.packets[i] = *p
	}
	st.gen = append(st.gen[:0], pp.gen...)
	st.free = append(st.free[:0], pp.free...)
	st.news, st.gets, st.puts = pp.news, pp.gets, pp.puts
}

// loadState restores the arena. The target pool grows by carving fresh slab
// packets (bulk, not per-packet) when the checkpoint bound more slots than
// it has; extra target slots are truncated away (their packets are
// unreferenced after restore and simply return to the garbage collector).
func (pp *PacketPool) loadState(st *poolState) {
	want := len(st.packets)
	for len(pp.slots) < want {
		if len(pp.slab) == 0 {
			pp.slab = make([]Packet, slabSize)
		}
		p := &pp.slab[0]
		pp.slab = pp.slab[1:]
		pp.bind(p)
	}
	pp.slots = pp.slots[:want]
	pp.gen = sliceFor(pp.gen, want)
	copy(pp.gen, st.gen)
	for i := range st.packets {
		*pp.slots[i] = st.packets[i]
	}
	pp.free = append(pp.free[:0], st.free...)
	pp.news, pp.gets, pp.puts = st.news, st.gets, st.puts
}

// routerCold is the snapshot of one router's cold state (the mutable part
// of the *Router value itself; sinks and monitor taps stay with the target).
type routerCold struct {
	deadlockLimit sim.Tick
	requeueLimit  int
	stats         RouterStats
}

// NetworkState is an opaque deep copy of a Network's mutable state. Obtain
// one with Network.SaveState, restore it into any same-shape fabric with
// Network.LoadState, and serialize it with AppendBinary/DecodeBinary. A
// single NetworkState may be restored into many platforms (forking): it is
// read-only during LoadState.
type NetworkState struct {
	pool       poolState
	slots      []ringSlot
	recs       []routerState // per-uniq hot records, hop row detached
	hop        []int8        // flat hop-row contents, uniq-major (empty on huge)
	cold       []routerCold
	active     sim.ActiveSetState
	tileActive []sim.ActiveSetState
	hasByz     bool
	byz        []byzState
	byzCnt     int
	byzAny     bool
	faultyCnt  int
	stats      NetworkStats
	stagedOps  uint64
	drainedOps uint64

	// Shape guard: a state only restores into the fabric geometry it came
	// from.
	nodes, spp, uniqN, tileN int
	huge                     bool
}

// SaveState deep-copies the fabric's mutable state into st, reusing st's
// backing storage so a warm snapshot allocates nothing.
func (n *Network) SaveState(st *NetworkState) {
	n.pool.saveState(&st.pool)
	st.slots = append(st.slots[:0], n.slots...)

	st.recs = sliceFor(st.recs, len(n.uniq))
	st.cold = sliceFor(st.cold, len(n.uniq))
	if n.huge {
		st.hop = st.hop[:0]
	} else {
		st.hop = sliceFor(st.hop, len(n.uniq)*n.nodes)
	}
	for i, r := range n.uniq {
		rec := &n.state[r.ID]
		st.recs[i] = *rec
		// The row contents travel in the flat hop copy below; detaching the
		// slice keeps the checkpoint from pinning the source fabric's backing.
		st.recs[i].hop = nil
		if !n.huge {
			copy(st.hop[i*n.nodes:(i+1)*n.nodes], rec.hop)
		}
		st.cold[i] = routerCold{deadlockLimit: r.deadlockLimit, requeueLimit: r.requeueLimit, stats: r.Stats}
	}

	// The layout keeps a whole-fabric set beside the tile list: a single
	// tile's set (the same index space) travels there with an empty list;
	// a multi-tile fabric leaves it zeroed and lists its K sets.
	if len(n.tiles) == 1 {
		n.tiles[0].set.SaveState(&st.active)
		st.tileActive = st.tileActive[:0]
	} else {
		st.active.Words = sliceFor(st.active.Words, (n.nodes+63)/64)
		clear(st.active.Words)
		st.active.N = 0
		st.tileActive = sliceFor(st.tileActive, len(n.tiles))
		for i := range n.tiles {
			n.tiles[i].set.SaveState(&st.tileActive[i])
		}
	}

	// Arming travels only while some router is armed: a fabric that merely
	// still holds the slice from an earlier run must encode like one that
	// never allocated it.
	st.hasByz = n.byzAny
	st.byz = st.byz[:0]
	if st.hasByz {
		st.byz = append(st.byz, n.byz...)
	}
	st.byzCnt, st.byzAny = n.byzCnt, n.byzAny

	st.faultyCnt = n.faultyCnt
	st.stats = n.stats
	st.stagedOps, st.drainedOps = n.stagedOps, n.drainedOps

	st.nodes, st.spp, st.uniqN, st.tileN = n.nodes, n.spp, len(n.uniq), len(st.tileActive)
	st.huge = n.huge
}

// Fits reports why st cannot be restored into this fabric, or nil when it
// can: the same geometry (node count, ring capacity, router set, tile
// layout, huge mode) as the fabric it was saved from, and every section
// LoadState indexes by sized for that geometry. Checkpoint bytes from
// outside the process are asked first; LoadState panics on a misfit.
func (n *Network) Fits(st *NetworkState) error {
	tileN := len(n.tiles)
	if tileN == 1 {
		tileN = 0 // a single tile is recorded as the whole-fabric set
	}
	if st.nodes != n.nodes || st.spp != n.spp || st.uniqN != len(n.uniq) || st.tileN != tileN || st.huge != n.huge {
		return fmt.Errorf("noc: checkpoint shape mismatch: state is %d nodes/%d spp/%d routers/%d tiles, fabric is %d/%d/%d/%d",
			st.nodes, st.spp, st.uniqN, st.tileN, n.nodes, n.spp, len(n.uniq), tileN)
	}
	hopN, byzN := len(n.uniq)*n.nodes, 0
	if n.huge {
		hopN = 0
	}
	if st.hasByz {
		byzN = n.nodes
	}
	if len(st.recs) != len(n.uniq) || len(st.cold) != len(n.uniq) || len(st.slots) != len(n.slots) ||
		len(st.hop) != hopN || len(st.tileActive) != tileN || len(st.byz) != byzN ||
		len(st.pool.gen) != len(st.pool.packets) || len(st.pool.packets) > pidIndexMask+1 {
		return fmt.Errorf("noc: checkpoint sections mis-sized: %d/%d router records, %d slots, %d hops, %d tile sets, %d byzantine, %d/%d arena for a %d-router %d-node fabric",
			len(st.recs), len(st.cold), len(st.slots), len(st.hop), len(st.tileActive), len(st.byz), len(st.pool.gen), len(st.pool.packets), len(n.uniq), n.nodes)
	}
	for i := range n.tiles {
		set := &st.active
		if tileN > 0 {
			set = &st.tileActive[i]
		}
		if t := &n.tiles[i]; len(set.Words) != (t.hi-t.lo+63)/64 {
			return fmt.Errorf("noc: checkpoint active set %d holds %d words for %d routers", i, len(set.Words), t.hi-t.lo)
		}
	}
	return nil
}

// LoadState restores a previously saved state into the fabric, which must
// fit it (see Fits). Construction-derived wiring is reused and the hop rows
// are copied, not recomputed, so the restore is a handful of bulk copies.
func (n *Network) LoadState(st *NetworkState) {
	if err := n.Fits(st); err != nil {
		panic(err.Error())
	}
	n.pool.loadState(&st.pool)
	copy(n.slots, st.slots)

	for i, r := range n.uniq {
		dst := &n.state[r.ID]
		hop, tile := dst.hop, dst.tile
		*dst = st.recs[i]
		dst.hop, dst.tile = hop, tile
		if hop != nil {
			copy(hop, st.hop[i*n.nodes:(i+1)*n.nodes])
		}
		cold := &st.cold[i]
		r.deadlockLimit, r.requeueLimit, r.Stats = cold.deadlockLimit, cold.requeueLimit, cold.stats
	}

	if len(n.tiles) == 1 {
		n.tiles[0].set.LoadState(&st.active)
	} else {
		for i := range n.tiles {
			n.tiles[i].set.LoadState(&st.tileActive[i])
		}
	}

	if st.hasByz {
		if n.byz == nil {
			n.byz = make([]byzState, n.nodes)
		}
		copy(n.byz, st.byz)
	} else {
		// The source never armed byzantine state; byzAny=false keeps the
		// slice unread, but zero it so a stale arming cannot leak into a
		// later SetByzantine epoch.
		clear(n.byz)
	}
	n.byzCnt, n.byzAny = st.byzCnt, st.byzAny

	// No reroute here: the rows were restored verbatim above, and a rebuild
	// would stir parked routers, perturbing the quiet fast-forwards the
	// snapshot captured.
	n.faultyCnt = st.faultyCnt
	n.stats = st.stats
	n.stagedOps, n.drainedOps = st.stagedOps, st.drainedOps
}

// --- binary encoding (the network section of a checkpoint file) ---

func appendPacket(b []byte, p *Packet) []byte {
	b = wire.AppendU64(b, p.ID)
	b = wire.AppendU8(b, uint8(p.Kind))
	b = wire.AppendI64(b, int64(p.Src))
	b = wire.AppendI64(b, int64(p.Dst))
	b = wire.AppendI64(b, int64(p.Task))
	b = wire.AppendU64(b, p.Instance)
	b = wire.AppendI64(b, int64(p.Branch))
	b = wire.AppendI64(b, int64(p.Origin))
	b = wire.AppendI64(b, int64(p.JoinDst))
	b = wire.AppendI64(b, int64(p.Flits))
	b = wire.AppendI64(b, int64(p.Created))
	b = wire.AppendI64(b, int64(p.Deadline))
	b = wire.AppendI64(b, int64(p.Hops))
	b = wire.AppendI64(b, int64(p.Retargets))
	b = wire.AppendU8(b, uint8(p.Op))
	b = wire.AppendI64(b, int64(p.Arg))
	b = wire.AppendI64(b, int64(p.Arg2))
	b = wire.AppendBool(b, p.lapsedSeen)
	b = wire.AppendI64(b, int64(p.requeues))
	b = wire.AppendBool(b, p.pooled)
	b = wire.AppendU32(b, uint32(p.h))
	return b
}

func readPacket(r *wire.Reader, p *Packet) {
	p.ID = r.U64()
	p.Kind = Kind(r.U8())
	p.Src = NodeID(r.I64())
	p.Dst = NodeID(r.I64())
	p.Task = taskgraph.TaskID(r.I64())
	p.Instance = r.U64()
	p.Branch = int(r.I64())
	p.Origin = NodeID(r.I64())
	p.JoinDst = NodeID(r.I64())
	p.Flits = int(r.I64())
	p.Created = sim.Tick(r.I64())
	p.Deadline = sim.Tick(r.I64())
	p.Hops = int(r.I64())
	p.Retargets = int(r.I64())
	p.Op = ConfigOp(r.U8())
	p.Arg = int(r.I64())
	p.Arg2 = int(r.I64())
	p.lapsedSeen = r.Bool()
	p.requeues = int(r.I64())
	p.pooled = r.Bool()
	p.h = PacketID(r.U32())
}

func appendRouterRec(b []byte, rec *routerState) []byte {
	b = wire.AppendI64(b, int64(rec.quiet))
	b = wire.AppendU32(b, uint32(rec.queued))
	b = wire.AppendU8(b, rec.occ)
	b = wire.AppendU8(b, rec.rr)
	b = wire.AppendU8(b, rec.disabled)
	b = wire.AppendBool(b, rec.faulty)
	b = wire.AppendU8(b, rec.refused)
	b = wire.AppendU8(b, rec.linkDown)
	for p := 0; p < int(NumPorts); p++ {
		b = wire.AppendU32(b, uint32(rec.nbr[p]))
		b = wire.AppendU32(b, rec.rings[p].head)
		b = wire.AppendU32(b, rec.rings[p].n)
		b = wire.AppendU32(b, rec.rings[p].used)
		b = wire.AppendI64(b, int64(rec.linkBusy[p]))
		b = wire.AppendI64(b, int64(rec.blockedAt[p]))
	}
	return b
}

func readRouterRec(r *wire.Reader, rec *routerState) {
	rec.quiet = sim.Tick(r.I64())
	rec.queued = int32(r.U32())
	rec.occ = r.U8()
	rec.rr = r.U8()
	rec.disabled = r.U8()
	rec.faulty = r.Bool()
	rec.refused = r.U8()
	rec.linkDown = r.U8()
	for p := 0; p < int(NumPorts); p++ {
		rec.nbr[p] = int32(r.U32())
		rec.rings[p].head = r.U32()
		rec.rings[p].n = r.U32()
		rec.rings[p].used = r.U32()
		rec.linkBusy[p] = sim.Tick(r.I64())
		rec.blockedAt[p] = sim.Tick(r.I64())
	}
	rec.hop = nil
}

func appendActiveSet(b []byte, st *sim.ActiveSetState) []byte {
	b = wire.AppendU32(b, uint32(len(st.Words)))
	for _, w := range st.Words {
		b = wire.AppendU64(b, w)
	}
	b = wire.AppendI64(b, st.N)
	return b
}

func readActiveSet(r *wire.Reader, st *sim.ActiveSetState) {
	n := r.Count(8)
	st.Words = sliceFor(st.Words, n)
	for i := range st.Words {
		st.Words[i] = r.U64()
	}
	st.N = r.I64()
}

func appendRouterStats(b []byte, s *RouterStats) []byte {
	b = wire.AppendU64(b, s.Forwarded)
	b = wire.AppendU64(b, s.Delivered)
	b = wire.AppendU64(b, s.ConfigOps)
	b = wire.AppendU64(b, s.Recovered)
	b = wire.AppendU64(b, s.Dropped)
	b = wire.AppendU64(b, s.BlockedTicks)
	b = wire.AppendU64(b, s.LapsesSeen)
	return b
}

func readRouterStats(r *wire.Reader, s *RouterStats) {
	s.Forwarded = r.U64()
	s.Delivered = r.U64()
	s.ConfigOps = r.U64()
	s.Recovered = r.U64()
	s.Dropped = r.U64()
	s.BlockedTicks = r.U64()
	s.LapsesSeen = r.U64()
}

// AppendBinary serializes the state.
func (st *NetworkState) AppendBinary(b []byte) []byte {
	b = wire.AppendU32(b, uint32(st.nodes))
	b = wire.AppendU32(b, uint32(st.spp))
	b = wire.AppendU32(b, uint32(st.uniqN))
	b = wire.AppendU32(b, uint32(st.tileN))
	b = wire.AppendBool(b, st.huge)

	b = wire.AppendU32(b, uint32(len(st.pool.packets)))
	for i := range st.pool.packets {
		b = appendPacket(b, &st.pool.packets[i])
	}
	b = wire.AppendU32(b, uint32(len(st.pool.gen)))
	for _, g := range st.pool.gen {
		b = wire.AppendU32(b, g)
	}
	b = wire.AppendU32(b, uint32(len(st.pool.free)))
	for _, f := range st.pool.free {
		b = wire.AppendU32(b, uint32(f))
	}
	b = wire.AppendU64(b, st.pool.news)
	b = wire.AppendU64(b, st.pool.gets)
	b = wire.AppendU64(b, st.pool.puts)

	b = wire.AppendU32(b, uint32(len(st.slots)))
	for i := range st.slots {
		s := &st.slots[i]
		b = wire.AppendI64(b, int64(s.ready))
		b = wire.AppendI64(b, int64(s.deadline))
		b = wire.AppendU32(b, uint32(s.id))
		b = wire.AppendU32(b, uint32(s.dst))
		b = wire.AppendU16(b, uint16(s.task))
		b = wire.AppendU16(b, uint16(s.flits))
		b = wire.AppendU16(b, s.hops)
		b = wire.AppendU8(b, uint8(s.kind))
		b = wire.AppendU8(b, s.flags)
	}

	b = wire.AppendU32(b, uint32(len(st.recs)))
	for i := range st.recs {
		b = appendRouterRec(b, &st.recs[i])
	}
	b = wire.AppendU32(b, uint32(len(st.hop)))
	for _, h := range st.hop {
		b = wire.AppendU8(b, uint8(h))
	}
	b = wire.AppendU32(b, uint32(len(st.cold)))
	for i := range st.cold {
		c := &st.cold[i]
		b = wire.AppendI64(b, int64(c.deadlockLimit))
		b = wire.AppendI64(b, int64(c.requeueLimit))
		b = appendRouterStats(b, &c.stats)
	}

	b = appendActiveSet(b, &st.active)
	b = wire.AppendU32(b, uint32(len(st.tileActive)))
	for i := range st.tileActive {
		b = appendActiveSet(b, &st.tileActive[i])
	}

	b = wire.AppendBool(b, st.hasByz)
	b = wire.AppendU32(b, uint32(len(st.byz)))
	for i := range st.byz {
		bz := &st.byz[i]
		b = wire.AppendU32(b, bz.rate)
		b = wire.AppendU8(b, bz.modes)
		b = wire.AppendU64(b, bz.rng.State())
	}
	b = wire.AppendI64(b, int64(st.byzCnt))
	b = wire.AppendBool(b, st.byzAny)

	b = wire.AppendBool(b, st.faultyCnt > 0) // a have-faults byte the format keeps
	b = wire.AppendI64(b, int64(st.faultyCnt))

	b = wire.AppendU64(b, st.stats.Injected)
	b = wire.AppendU64(b, st.stats.Delivered)
	b = wire.AppendU64(b, st.stats.ConfigOps)
	b = wire.AppendU64(b, st.stats.Dropped)
	b = wire.AppendU64(b, st.stats.Rescued)
	b = wire.AppendU64(b, st.stats.ByzMisrouted)
	b = wire.AppendU64(b, st.stats.ByzDropped)
	b = wire.AppendU64(b, st.stats.ByzDuplicated)
	b = wire.AppendU64(b, st.stagedOps)
	b = wire.AppendU64(b, st.drainedOps)
	return b
}

// DecodeBinary reads a state serialized by AppendBinary. It checks framing
// only; Network.Fits checks the decoded sizes against a fabric.
func (st *NetworkState) DecodeBinary(r *wire.Reader) error {
	st.nodes = r.Int()
	st.spp = r.Int()
	st.uniqN = r.Int()
	st.tileN = r.Int()
	st.huge = r.Bool()

	n := r.Count(123) // serialized packet size
	st.pool.packets = sliceFor(st.pool.packets, n)
	for i := range st.pool.packets {
		readPacket(r, &st.pool.packets[i])
	}
	n = r.Count(4)
	st.pool.gen = sliceFor(st.pool.gen, n)
	for i := range st.pool.gen {
		st.pool.gen[i] = r.U32()
	}
	n = r.Count(4)
	st.pool.free = sliceFor(st.pool.free, n)
	for i := range st.pool.free {
		st.pool.free[i] = int32(r.U32())
	}
	st.pool.news = r.U64()
	st.pool.gets = r.U64()
	st.pool.puts = r.U64()

	n = r.Count(27) // serialized ring-slot size
	st.slots = sliceFor(st.slots, n)
	for i := range st.slots {
		s := &st.slots[i]
		s.ready = sim.Tick(r.I64())
		s.deadline = sim.Tick(r.I64())
		s.id = PacketID(r.U32())
		s.dst = int32(r.U32())
		s.task = int16(r.U16())
		s.flits = int16(r.U16())
		s.hops = r.U16()
		s.kind = Kind(r.U8())
		s.flags = r.U8()
	}

	n = r.Count(14) // router record, lower bound
	st.recs = sliceFor(st.recs, n)
	for i := range st.recs {
		readRouterRec(r, &st.recs[i])
	}
	n = r.Count(1)
	st.hop = sliceFor(st.hop, n)
	for i := range st.hop {
		st.hop[i] = int8(r.U8())
	}
	n = r.Count(8)
	st.cold = sliceFor(st.cold, n)
	for i := range st.cold {
		c := &st.cold[i]
		c.deadlockLimit = sim.Tick(r.I64())
		c.requeueLimit = int(r.I64())
		readRouterStats(r, &c.stats)
	}

	readActiveSet(r, &st.active)
	n = r.Count(12)
	st.tileActive = sliceFor(st.tileActive, n)
	for i := range st.tileActive {
		readActiveSet(r, &st.tileActive[i])
	}

	st.hasByz = r.Bool()
	n = r.Count(13)
	st.byz = sliceFor(st.byz, n)
	for i := range st.byz {
		bz := &st.byz[i]
		bz.rate = r.U32()
		bz.modes = r.U8()
		bz.rng.SetState(r.U64())
	}
	st.byzCnt = int(r.I64())
	st.byzAny = r.Bool()

	r.Bool() // have-faults: faultyCnt > 0 says the same
	st.faultyCnt = int(r.I64())

	st.stats.Injected = r.U64()
	st.stats.Delivered = r.U64()
	st.stats.ConfigOps = r.U64()
	st.stats.Dropped = r.U64()
	st.stats.Rescued = r.U64()
	st.stats.ByzMisrouted = r.U64()
	st.stats.ByzDropped = r.U64()
	st.stats.ByzDuplicated = r.U64()
	st.stagedOps = r.U64()
	st.drainedOps = r.U64()
	return r.Err()
}
