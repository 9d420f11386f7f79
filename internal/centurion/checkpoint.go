package centurion

import (
	"errors"
	"fmt"

	"centurion/internal/aim"
	"centurion/internal/noc"
	"centurion/internal/node"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// Checkpoint is a deep, self-contained capture of one platform's mutable
// simulation state at a between-step boundary (DESIGN.md §15): the packet
// arena, ring slots and router records, PE/engine/directory/thermal state,
// every RNG stream, the activity sets and the pending wake/retry timers.
// Everything construction-derived — topology, task graph, wiring closures,
// tile layout — stays with the platform, and the routers' next-hop rows
// travel with their records, so restoring a checkpoint into a same-shape
// platform is a handful of bulk copies with no route recomputation.
//
// What is deliberately NOT captured is the event queue itself (it holds
// closures): Restore rebuilds the pending wake and controller-retry events
// from the recorded timers, and fault schedules must be re-applied by the
// caller (Controller.ApplySchedule skips the events that already fired
// before the checkpoint). One checkpoint may be restored into many
// platforms — it is read-only during Restore — which is what makes
// fork-per-variant sweeps cheap.
type Checkpoint struct {
	// Shape identity: a checkpoint restores only into a platform built for
	// the same geometry.
	width, height int
	topology      string

	now  sim.Tick
	seed uint64
	rng  uint64

	nextPkt  uint64
	nextInst uint64
	counters Counters

	net     noc.NetworkState
	dir     node.DirectoryState
	pes     []node.PEState
	engines []aim.EngineState

	hasHeat   bool
	heat      thermal.State
	nextHeat  sim.Tick
	throttled []bool

	peActive  sim.ActiveSetState
	engActive sim.ActiveSetState
	peWakeAt  []sim.Tick
	engWakeAt []sim.Tick

	retries []retryRec
}

// retryRec is one pending controller-retry in checkpoint form: the held
// packet as an arena slot, the tap, and the scheduled attempt tick.
type retryRec struct {
	slot int32
	tap  noc.NodeID
	at   sim.Tick
}

// Now returns the simulation tick the checkpoint was taken at.
func (cp *Checkpoint) Now() sim.Tick { return cp.now }

// Snapshot captures the platform's full mutable state into a fresh
// Checkpoint. Use SnapshotInto to reuse a checkpoint's allocations.
func (p *Platform) Snapshot() *Checkpoint {
	cp := &Checkpoint{}
	p.SnapshotInto(cp)
	return cp
}

// SnapshotInto captures the platform's state into cp, reusing its backing
// storage. The platform must be at a between-step boundary (which is the
// only externally observable state — Step never returns mid-tick).
func (p *Platform) SnapshotInto(cp *Checkpoint) {
	cp.width, cp.height = p.Cfg.Width, p.Cfg.Height
	cp.topology = p.Cfg.Topology
	cp.now = p.clock.Now()
	cp.seed = p.Cfg.Seed
	cp.rng = p.rng.State()
	cp.nextPkt, cp.nextInst = p.nextPkt, p.nextInst
	cp.counters = p.counters

	p.Net.SaveState(&cp.net)
	p.Dir.SaveState(&cp.dir)

	cp.pes = sim.Resize(cp.pes, len(p.pes))
	for i, pe := range p.pes {
		pe.SaveState(&cp.pes[i], p.pool)
	}
	cp.engines = sim.Resize(cp.engines, len(p.engines))
	for i, e := range p.engines {
		e.SaveState(&cp.engines[i])
	}

	cp.hasHeat = p.heat != nil
	if p.heat != nil {
		p.heat.SaveState(&cp.heat)
		cp.nextHeat = p.nextHeat
		cp.throttled = append(cp.throttled[:0], p.throttled...)
	} else {
		cp.heat.Temp = cp.heat.Temp[:0]
		cp.heat.Last = cp.heat.Last[:0]
		cp.nextHeat = 0
		cp.throttled = cp.throttled[:0]
	}

	p.peSet.SaveState(&cp.peActive)
	p.engSet.SaveState(&cp.engActive)
	cp.peWakeAt = append(cp.peWakeAt[:0], p.peWake.at...)
	cp.engWakeAt = append(cp.engWakeAt[:0], p.engWake.at...)

	cp.retries = sim.Resize(cp.retries, len(p.ctlRetry))
	for i := range p.ctlRetry {
		rec := &p.ctlRetry[i]
		idx, ok := p.pool.ArenaIndex(rec.pkt)
		if !ok {
			panic("centurion: retry packet not bound to the platform pool")
		}
		cp.retries[i] = retryRec{slot: idx, tap: rec.tap, at: rec.at}
	}
}

// fits reports why cp cannot be restored into this platform, or nil when it
// can — what only the target knows: the same dimensions, topology, node
// count and thermal configuration; every per-node section sized for this
// fabric, and the active sets memberships of it; one engine record per node
// of the kind and slice lengths the platform's own engine writes; and every
// task a directory entry, PE or engine names registered in this platform's
// graph or None, and every task a packet carries too (see
// NetworkState.CheckTasks). The network section's fit is
// Network.LoadState's to check. It reads O(nodes + arena) records.
func (p *Platform) fits(cp *Checkpoint) error {
	nodes := len(p.pes)
	if cp.width != p.Cfg.Width || cp.height != p.Cfg.Height || cp.topology != p.Cfg.Topology ||
		len(cp.pes) != nodes {
		return fmt.Errorf("centurion: checkpoint shape mismatch: checkpoint is %dx%d %q (%d nodes), platform is %dx%d %q (%d nodes)",
			cp.width, cp.height, cp.topology, len(cp.pes), p.Cfg.Width, p.Cfg.Height, p.Cfg.Topology, nodes)
	}
	if cp.hasHeat != (p.heat != nil) {
		return errors.New("centurion: checkpoint thermal-model mismatch")
	}
	heatN := 0
	if p.heat != nil {
		heatN = nodes
	}
	if len(cp.dir.TaskOf) != nodes || len(cp.dir.Alive) != nodes || len(cp.engines) != nodes ||
		len(cp.peWakeAt) != nodes || len(cp.engWakeAt) != nodes ||
		len(cp.heat.Temp) != heatN || len(cp.heat.Last) != heatN || len(cp.throttled) != heatN {
		return fmt.Errorf("centurion: checkpoint sections mis-sized for a %d-node platform", nodes)
	}
	if err := cp.peActive.Check(nodes); err != nil {
		return fmt.Errorf("centurion: checkpoint PE set: %w", err)
	}
	if err := cp.engActive.Check(nodes); err != nil {
		return fmt.Errorf("centurion: checkpoint engine set: %w", err)
	}
	own := &p.fitState
	for i, e := range p.engines {
		e.SaveState(own)
		st := &cp.engines[i]
		if st.Kind != own.Kind || len(st.Counts) != len(own.Counts) || len(st.Thresholds) != len(own.Thresholds) {
			return fmt.Errorf("centurion: checkpoint engine %d is a kind-%d record with %d/%d counters, platform engine %q writes kind %d with %d/%d",
				i, st.Kind, len(st.Counts), len(st.Thresholds), e.Name(), own.Kind, len(own.Counts), len(own.Thresholds))
		}
	}
	g := p.Graph
	registered := func(t taskgraph.TaskID) bool { return g.Task(t) != nil }
	valid := func(t taskgraph.TaskID) bool { return t == taskgraph.None || registered(t) }
	for i := 0; i < nodes; i++ {
		if t := cp.dir.TaskOf[i]; !valid(t) {
			return fmt.Errorf("centurion: checkpoint directory maps node %d to task %d, which graph %q lacks", i, t, g.Name)
		}
		if t := cp.pes[i].Task; !valid(t) {
			return fmt.Errorf("centurion: checkpoint PE %d runs task %d, which graph %q lacks", i, t, g.Name)
		}
		if t := cp.engines[i].Current; !valid(t) {
			return fmt.Errorf("centurion: checkpoint engine %d tracks task %d, which graph %q lacks", i, t, g.Name)
		}
	}
	return cp.net.CheckTasks(registered)
}

// Restore rewinds the platform to the checkpointed state. The checkpoint
// must fit the platform: built for the same shape (dimensions, topology,
// ring capacity, engine kinds, thermal configuration) and naming only tasks
// of its graph. A checkpoint that does not fit is refused with an error
// before the first write, leaving the platform as it was; one that fits
// overwrites everything about the platform's current state — fresh,
// mid-run, or leased back from a pool. Checkpoint bytes from outside the
// process are checked for self-consistency by DecodeCheckpoint first; a
// Snapshot of a live platform is consistent by construction. Pending fault
// schedules are NOT part of a checkpoint: re-apply them after Restore
// (Controller.ApplySchedule skips already-fired events).
//
// Restoring is allocation-free at steady state: bulk copies into retained
// backing, plus one event-queue entry per pending wake or retry.
func (p *Platform) Restore(cp *Checkpoint) error {
	if err := p.fits(cp); err != nil {
		return err
	}
	// The arena first: every packet reference restored below resolves
	// against it. Its fit is checked before its first write, so a refusal
	// here still leaves the platform untouched.
	if err := p.Net.LoadState(&cp.net); err != nil {
		return err
	}

	p.Cfg.Seed = cp.seed
	p.clock.SetNow(cp.now)
	p.events.Clear()
	// Drop the previous run's retry records — the arena restore above
	// rewrote every packet wholesale, so the held pointers must not be
	// reclaimed through Put.
	for i := range p.ctlRetry {
		p.ctlRetry[i] = ctlRetryRec{}
	}
	p.ctlRetry = p.ctlRetry[:0]
	p.rng.SetState(cp.rng)
	p.nextPkt, p.nextInst = cp.nextPkt, cp.nextInst
	p.counters = cp.counters
	p.netPar = false

	p.Dir.LoadState(&cp.dir)
	for i, pe := range p.pes {
		pe.LoadState(&cp.pes[i], p.pool)
	}
	for i, e := range p.engines {
		e.LoadState(&cp.engines[i])
	}

	if p.heat != nil {
		p.heat.LoadState(&cp.heat)
		p.nextHeat = cp.nextHeat
		copy(p.throttled, cp.throttled)
	}

	p.peSet.LoadState(&cp.peActive)
	p.engSet.LoadState(&cp.engActive)
	// Rebuild the pending wake events from the recorded timers, using the
	// target's own bound closures. Only the earliest pending wake per member
	// is recorded; superseded later events the source queue may still hold
	// are spurious by the stepping core's contract (an extra tick on a
	// parked component is observation-free), so dropping them preserves
	// bit-identity of every counter and series.
	p.peWake.restore(cp.peWakeAt)
	p.engWake.restore(cp.engWakeAt)

	// Re-arm the pending controller retries in record order — the slice
	// order mirrors the retry events' seq order in the source queue.
	for i := range cp.retries {
		rec := cp.retries[i]
		pkt := p.pool.ArenaPacket(rec.slot)
		p.ctlRetry = append(p.ctlRetry, ctlRetryRec{pkt: pkt, tap: rec.tap, at: rec.at})
		tap := rec.tap
		p.events.Schedule(rec.at, func(later sim.Tick) { p.injectConfig(tap, pkt, later) })
	}
	return nil
}

// restore rebuilds a wake table from a recorded timer array: the pending
// tick per member plus one freshly scheduled event bound to the target's
// own closure.
func (w *wakeTable) restore(at []sim.Tick) {
	for id := range w.at {
		w.at[id] = at[id]
		if at[id] >= 0 {
			w.events.Schedule(at[id], w.fn[id])
		}
	}
}
