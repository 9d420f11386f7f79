package noc

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"centurion/internal/sim"
)

// Tiling and the staging context of the tick kernel (DESIGN.md §14).
//
// The router ID space is partitioned into K ≥ 1 row bands ("tiles"), each
// with its own active set, and Network.Tick sweeps the tiles — on a pool of
// worker goroutines when K > 1. There is one kernel (network.go); every
// kernel function takes a *tileScratch staging context. During a multi-tile
// sweep the context is the tile's scratch: intra-tile forwards copy slots
// straight into the destination ring, but a service whose effect would escape
// the tile — a forward to a neighbour in another tile, a Config/Debug
// delivery with fabric-global side effects — is *staged*: the port is
// recorded untouched, and after the worker barrier a single-threaded merge
// phase re-runs the staged services with a nil context (effects apply
// directly), tile by tile in FIFO order. The staged head is provably
// unchanged between the sweep and the merge (each port is serviced at most
// once per tick and only its owner tile touches its rings), so the merge
// services it exactly as a one-worker sweep would have — which makes the
// parallel kernel bit-identical to the one-worker reference by construction,
// independent of the worker count and of goroutine scheduling.
//
// A single-tile fabric (every grid below 2048 nodes, including the paper's
// 16×8) has no boundary: its sweep runs with a nil context, so every effect
// applies inline in service order, nothing stages and Tick returns straight
// after the sweep. It allocates no scratch and no crew.
//
// Tiling is a *semantic* parameter (it fixes the service order across tile
// boundaries) derived deterministically from the grid, never from the host:
// Params.Tiles=0 auto-sizes from the node count. The worker count is purely
// a runtime throttle (Params.Workers=0 uses GOMAXPROCS) and can never affect
// results.
//
// Byzantine arming forces the worker count to 1 for the armed interval: the
// duplication path acquires packets from the shared arena mid-sweep and the
// misroute path pushes out of arbitrary ports, neither of which is tile-safe
// (byzMeddle applies its effects directly, whatever the context). Byzantine
// runs therefore execute on one goroutine — still deterministic, just not
// parallel.

// netTile is one row band of the fabric: routers with IDs in [lo, hi).
// Boundaries fall on even rows so cmesh 2×2 clusters are never split across
// tiles (a hub router and all its members share a tile).
type netTile struct {
	lo, hi int // router/node ID range [lo, hi)
	// set is the tile's active-router set with *offset-local* indices (bit i
	// = router lo+i). Tiles own disjoint sets so workers never share a mask
	// word, which a global set could not guarantee (tile boundaries are not
	// 64-aligned).
	set *sim.ActiveSet
}

// svcRec is one staged port service: the head of ring (id, port) was left
// untouched by the tile sweep for the merge phase to service serially.
type svcRec struct {
	id   int32
	port Port
}

// recRec is a packet popped by a tile sweep that needs the recovery path
// (unreachable destination, requeue budget exhausted): the handler may
// re-inject anywhere in the fabric, so it runs at merge time.
type recRec struct {
	at  int32
	pkt *Packet
}

// dropRec is a packet popped by a tile sweep whose drop accounting
// (DropHandler + arena recycle) must run at merge time.
type dropRec struct {
	at     int32
	pkt    *Packet
	reason DropReason
}

// tileScratch is the kernel's staging context: one tile's staged work during
// a multi-tile sweep, reset every tick by the merge. A nil *tileScratch means
// effects apply directly (single-tile sweep, merge phase, Fail/Reset drains,
// byzMeddle). All preallocated and reused: the steady-state tick path stays
// 0 allocs/op once the slices have grown to the tile's working set.
type tileScratch struct {
	tile  uint16 // own tile index, compared against routerState.tile
	svc   []svcRec
	stirs []int32 // cross-tile refused-bit stirs (upstream router IDs)
	recs  []recRec
	drops []dropRec
	// stats is the tile's delta of the fabric-wide counters, added to
	// Network.stats by the merge.
	stats NetworkStats
	// staged counts staged services for the drains-exactly-once property
	// test; drained is accounted on the Network at merge.
	staged uint64
	// padding to a multiple of 64 bytes so adjacent tiles' scratch headers
	// do not false-share a cache line while workers append.
	_ [40]byte
}

func (sc *tileScratch) stageSvc(id int, port Port) {
	sc.svc = append(sc.svc, svcRec{id: int32(id), port: port})
	sc.staged++
}

// autoTiles picks the tile count for a grid: one tile below 2048 nodes (the
// tiled kernel only pays off when a tile spans several cache-resident row
// bands), then roughly one tile per 1024 nodes, capped at 64 tiles and at
// one tile per two rows. Deterministic in the grid alone.
func autoTiles(w, h int) int {
	nodes := w * h
	if nodes < 2048 || h < 4 {
		return 1
	}
	k := nodes / 1024
	if k > 64 {
		k = 64
	}
	if k > h/2 {
		k = h / 2
	}
	if k < 1 {
		k = 1
	}
	return k
}

// buildTiles partitions the fabric into k row bands (clamped to [1, number
// of row pairs]), stamps each router record with its tile and allocates the
// per-tile active sets. Only a multi-tile fabric gets scratch and a crew.
func (n *Network) buildTiles(k int) {
	w, h := n.Topo.Width(), n.Topo.Height()
	units := (h + 1) / 2 // row pairs; cmesh clusters span two rows
	if k > units {
		k = units
	}
	if k > math.MaxUint16+1 {
		k = math.MaxUint16 + 1 // routerState.tile is 16 bits
	}
	if k < 1 {
		k = 1
	}
	n.tiles = make([]netTile, k)
	per, extra := units/k, units%k
	startPair := 0
	for i := 0; i < k; i++ {
		pairs := per
		if i < extra {
			pairs++
		}
		loRow := startPair * 2
		startPair += pairs
		hiRow := startPair * 2
		if hiRow > h || i == k-1 {
			hiRow = h
		}
		t := &n.tiles[i]
		t.lo = loRow * w
		t.hi = hiRow * w
		t.set = sim.NewActiveSet(t.hi - t.lo)
		for id := t.lo; id < t.hi; id++ {
			n.state[id].tile = uint16(i)
		}
	}
	if k == 1 {
		return
	}
	n.scratch = make([]tileScratch, k)
	for i := range n.scratch {
		n.scratch[i].tile = uint16(i)
	}
	n.crew = &tickCrew{stop: make(chan struct{}), kick: make(chan struct{})}
	// The crew's workers are lazily started and park on the kick channel
	// between ticks; if the network is dropped (pooled platforms are
	// GC-collected, not closed), the cleanup releases them.
	runtime.AddCleanup(n, func(stop chan struct{}) { close(stop) }, n.crew.stop)
}

// TileCount reports how many tiles the tick kernel sweeps (1 = no boundary,
// nothing ever stages).
func (n *Network) TileCount() int { return len(n.tiles) }

// TileStaging returns the lifetime counts of staged and drained boundary
// services — equal after every Tick (each staged record drains exactly once
// in the merge phase). Exposed for the tile-boundary property tests.
func (n *Network) TileStaging() (staged, drained uint64) {
	return n.stagedOps, n.drainedOps
}

// effWorkers resolves the worker count for this tick: the configured count
// (GOMAXPROCS when 0), clamped to the tile count, and forced to 1 while any
// router is byzantine-armed (see the package comment above).
func (n *Network) effWorkers() int {
	k := len(n.tiles)
	if k == 1 || n.byzAny {
		return 1
	}
	w := n.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > k {
		w = k
	}
	return w
}

// ParallelTick reports whether the next Tick will sweep tiles on more than
// one goroutine. The platform checks it to route component stirs through
// the atomic active-set path for the duration of the tick.
func (n *Network) ParallelTick() bool { return n.effWorkers() > 1 }

// Tick advances the fabric by one cycle. It is the fused network kernel:
// sweep every tile's active set (in parallel when the crew has more than one
// worker), servicing each enrolled router's occupied ports directly against
// the flat state records in ascending node-ID order, then merge the staged
// boundary work single-threaded in tile order. A router with no queued
// packets is a no-op tick, so skipping it is bit-identical to touching
// every router (the dense oracle of the centurion stepping suites). One tile
// has no boundary, so its sweep runs with a nil context — nothing stages and
// there is nothing to merge.
func (n *Network) Tick(now sim.Tick) {
	if len(n.tiles) == 1 {
		n.sweepTile(&n.tiles[0], nil, now)
		return
	}
	if w := n.effWorkers(); w <= 1 {
		for t := range n.tiles {
			n.sweepTile(&n.tiles[t], &n.scratch[t], now)
		}
	} else {
		n.crew.run(n, now, w)
	}
	n.mergeTiles(now)
}

// sweepTile runs the kernel over one tile's active set in ascending ID
// order. Workers claim tiles dynamically, so an empty tile (an idle region
// of a mega-fabric) costs one set-length check and nothing else.
func (n *Network) sweepTile(tl *netTile, ctx *tileScratch, now sim.Tick) {
	if tl.set.Empty() {
		return
	}
	tl.set.Sweep(func(local int) bool {
		id := tl.lo + local
		st := &n.state[id]
		n.tickRouter(ctx, id, st, now)
		return st.queued > 0 && !st.faulty
	})
}

// mergeTiles drains every tile's staged work with a nil context, in
// ascending tile order, each list in FIFO order — the deterministic merge
// phase. Staged heads are still at their ring heads (only the owner tile
// touches a ring during the sweep, and a port is serviced at most once per
// tick), so servicePort sees exactly the state a one-worker sweep would.
func (n *Network) mergeTiles(now sim.Tick) {
	for t := range n.scratch {
		sc := &n.scratch[t]
		for _, rec := range sc.svc {
			n.servicePort(nil, int(rec.id), &n.state[rec.id], rec.port, now)
			n.drainedOps++
		}
		for _, id := range sc.stirs {
			n.stirRouter(int(id))
		}
		for i := range sc.recs {
			n.recoverAt(nil, int(sc.recs[i].at), sc.recs[i].pkt, now)
			sc.recs[i].pkt = nil
		}
		for i := range sc.drops {
			n.handleDrop(NodeID(sc.drops[i].at), sc.drops[i].pkt, sc.drops[i].reason)
			sc.drops[i].pkt = nil
		}
		n.stats.add(&sc.stats)
		n.stagedOps += sc.staged
		sc.staged = 0
		sc.svc = sc.svc[:0]
		sc.stirs = sc.stirs[:0]
		sc.recs = sc.recs[:0]
		sc.drops = sc.drops[:0]
		sc.stats = NetworkStats{}
	}
}

// add accumulates a tile's stats delta into the fabric-wide counters.
func (a *NetworkStats) add(b *NetworkStats) {
	a.Injected += b.Injected
	a.Delivered += b.Delivered
	a.ConfigOps += b.ConfigOps
	a.Dropped += b.Dropped
	a.Rescued += b.Rescued
	a.ByzMisrouted += b.ByzMisrouted
	a.ByzDropped += b.ByzDropped
	a.ByzDuplicated += b.ByzDuplicated
}

// tickCrew is the persistent worker pool behind the parallel sweep. Workers
// are started lazily on the first multi-worker tick and park on the kick
// channel between ticks; the calling goroutine participates as a worker, so
// w workers means w-1 goroutines. Tiles are claimed dynamically through an
// atomic cursor — safe because the sweep result is scheduling-independent
// (tiles are self-contained until the merge).
type tickCrew struct {
	stop    chan struct{}
	kick    chan struct{}
	wg      sync.WaitGroup
	started int
	cursor  atomic.Int32
	// per-tick job state, published to workers by the kick send
	// (happens-before) and cleared after the barrier so parked workers
	// never pin the network.
	net *Network
	now sim.Tick
}

// run executes one parallel sweep: publish the job, kick w-1 workers, work
// the cursor alongside them, and wait for the barrier.
func (c *tickCrew) run(n *Network, now sim.Tick, w int) {
	c.net, c.now = n, now
	c.cursor.Store(0)
	need := w - 1
	for c.started < need {
		c.started++
		go c.worker()
	}
	c.wg.Add(need)
	for i := 0; i < need; i++ {
		c.kick <- struct{}{}
	}
	c.work(n, now)
	c.wg.Wait()
	c.net = nil
}

func (c *tickCrew) worker() {
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
			c.work(c.net, c.now)
			c.wg.Done()
		}
	}
}

func (c *tickCrew) work(n *Network, now sim.Tick) {
	for {
		t := int(c.cursor.Add(1)) - 1
		if t >= len(n.tiles) {
			return
		}
		n.sweepTile(&n.tiles[t], &n.scratch[t], now)
	}
}

// actAdd enrolls a router (st is its record) in its tile's active set. A
// router enrolls on any ring push and retires once drained, so Tick sweeps
// only the part of the fabric actually carrying traffic.
func (n *Network) actAdd(id int, st *routerState) {
	t := &n.tiles[st.tile]
	t.set.Add(id - t.lo)
}
