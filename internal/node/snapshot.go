package node

import (
	"cmp"
	"slices"

	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// Checkpoint support (DESIGN.md §15). A PE's packet references (receive
// queue, in-progress slot, outbox) are captured as arena slot indices —
// stable across snapshot and restore — and resolved against the target
// platform's pool after the arena itself has been restored. The join table
// is serialized sorted by instance so two snapshots of identical state
// encode to identical bytes (map iteration order is not deterministic).

// JoinEntry is one in-flight join instance in a PEState.
type JoinEntry struct {
	Inst      uint64
	Seen      int
	Origin    noc.NodeID
	LastTouch sim.Tick
}

// OutstandingEntry is one un-acknowledged instance in a source's
// flow-control window.
type OutstandingEntry struct {
	Inst uint64
	Born sim.Tick
}

// PEState is a deep copy of one processing element's mutable state. Packet
// references are arena slot indices into the owning platform's pool
// (Current is -1 when no packet is in progress).
type PEState struct {
	Task    taskgraph.TaskID
	Alive   bool
	ClockEn bool
	FreqDiv int

	Queue   []int32
	Current int32
	BusyEnd sim.Tick

	NextGen sim.Tick
	Outbox  []int32

	Joins       []JoinEntry
	Outstanding []OutstandingEntry

	AdmitRefused bool
	NextJoin     sim.Tick
	WorkCount    uint64
	Stats        Stats
}

func packetSlot(pool *noc.PacketPool, p *noc.Packet) int32 {
	idx, ok := pool.ArenaIndex(p)
	if !ok {
		panic("node: checkpoint of a packet not bound to the platform's pool")
	}
	return idx
}

// SaveState deep-copies the PE's mutable state into st, resolving packet
// pointers to arena slots against pool (the platform's shared arena).
func (pe *PE) SaveState(st *PEState, pool *noc.PacketPool) {
	st.Task = pe.task
	st.Alive = pe.alive
	st.ClockEn = pe.clockEn
	st.FreqDiv = pe.freqDiv

	st.Queue = sim.Resize(st.Queue, len(pe.queue))
	for i, p := range pe.queue {
		st.Queue[i] = packetSlot(pool, p)
	}
	st.Current = -1
	if pe.current != nil {
		st.Current = packetSlot(pool, pe.current)
	}
	st.BusyEnd = pe.busyEnd

	st.NextGen = pe.nextGen
	st.Outbox = sim.Resize(st.Outbox, len(pe.outbox))
	for i, p := range pe.outbox {
		st.Outbox[i] = packetSlot(pool, p)
	}

	st.Joins = st.Joins[:0]
	for inst, js := range pe.joins {
		st.Joins = append(st.Joins, JoinEntry{Inst: inst, Seen: js.seen, Origin: js.origin, LastTouch: js.lastTouch})
	}
	slices.SortFunc(st.Joins, func(a, b JoinEntry) int { return cmp.Compare(a.Inst, b.Inst) })

	// The live slice's order is an artifact of swap-removal driven by join
	// map iteration (AckInstance via gcJoins), not state: every consumer
	// treats the window as a set. Sort by instance so the encoding is
	// canonical, like the join table above.
	st.Outstanding = sim.Resize(st.Outstanding, len(pe.outstanding))
	for i, o := range pe.outstanding {
		st.Outstanding[i] = OutstandingEntry{Inst: o.inst, Born: o.born}
	}
	slices.SortFunc(st.Outstanding, func(a, b OutstandingEntry) int { return cmp.Compare(a.Inst, b.Inst) })

	st.AdmitRefused = pe.admitRefused
	st.NextJoin = pe.nextJoin
	st.WorkCount = pe.workCount
	st.Stats = pe.Stats
}

// LoadState restores the PE from st, resolving arena slots against pool
// (which must already hold the restored arena). Construction wiring — env,
// params, stimulus hooks — stays with the target.
func (pe *PE) LoadState(st *PEState, pool *noc.PacketPool) {
	pe.task = st.Task
	pe.alive = st.Alive
	pe.clockEn = st.ClockEn
	pe.freqDiv = st.FreqDiv

	pe.queue = sim.Resize(pe.queue, len(st.Queue))
	for i, idx := range st.Queue {
		pe.queue[i] = pool.ArenaPacket(idx)
	}
	pe.current = nil
	if st.Current >= 0 {
		pe.current = pool.ArenaPacket(st.Current)
	}
	pe.busyEnd = st.BusyEnd

	pe.nextGen = st.NextGen
	pe.outbox = sim.Resize(pe.outbox, len(st.Outbox))
	for i, idx := range st.Outbox {
		pe.outbox[i] = pool.ArenaPacket(idx)
	}

	if pe.joins == nil {
		pe.joins = make(map[uint64]joinState, len(st.Joins))
	} else {
		clear(pe.joins)
	}
	for _, j := range st.Joins {
		pe.joins[j.Inst] = joinState{seen: j.Seen, origin: j.Origin, lastTouch: j.LastTouch}
	}

	pe.outstanding = sim.Resize(pe.outstanding, len(st.Outstanding))
	for i, o := range st.Outstanding {
		pe.outstanding[i] = outstandingInst{inst: o.Inst, born: o.Born}
	}

	pe.admitRefused = st.AdmitRefused
	pe.nextJoin = st.NextJoin
	pe.workCount = st.WorkCount
	pe.Stats = st.Stats
}

// DirectoryState is a deep copy of the task directory's mutable state. The
// per-task owner lists are derived data: restore rebuilds them.
type DirectoryState struct {
	TaskOf  []taskgraph.TaskID
	Alive   []bool
	Version uint64
}

// SaveState copies the directory's authoritative state into st.
func (d *Directory) SaveState(st *DirectoryState) {
	st.TaskOf = append(st.TaskOf[:0], d.taskOf...)
	st.Alive = append(st.Alive[:0], d.alive...)
	st.Version = d.Version
}

// LoadState restores the directory from st, which must cover the
// directory's nodes with tasks of its graph (Platform.Restore checks both).
func (d *Directory) LoadState(st *DirectoryState) {
	copy(d.taskOf, st.TaskOf)
	copy(d.alive, st.Alive)
	d.reindex()
	d.Version = st.Version
}
