package aim

import (
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// NIParams tune the Network Interaction engine.
type NIParams struct {
	// Threshold is the firing level of every per-task thresholder.
	Threshold int
	// InhibitWeight is how many inhibitory impulses each unit of local work
	// (internal delivery or generation) applies to all counters. The paper's
	// base NI model is excitation-only (internal deliveries excite their own
	// task's counter, keeping busy nodes re-elected); a non-zero weight adds
	// the social-inhibition factor of Figure 1 as an ablatable extension.
	InhibitWeight int
	// InternalWeight is the excitation an internally delivered packet applies
	// to its own task's counter. Values above 1 strengthen self-reinforcement
	// (the experience factor of Figure 1): a busy node re-elects its task
	// before through-traffic can capture it.
	InternalWeight int
	// NeighborWeight is the excitation a neighbour's switch announcement
	// applies to that task's counter (0 disables the information-transfer
	// extension; the base model of the paper's experiments does not use it).
	NeighborWeight int
	// PinSources prevents switching away from a source task (the fork–join
	// topology "requires Task 1 nodes to start the shape"; DESIGN.md §5).
	PinSources bool
	// AdaptStep enables the paper's future-work adaptive thresholds: every
	// applied switch raises this node's firing level by AdaptStep (damping
	// churn), and the level decays back toward the base threshold by one
	// every AdaptDecay ticks. 0 disables adaptation.
	AdaptStep int
	// AdaptDecay is the decay interval for adaptive thresholds.
	AdaptDecay sim.Tick
}

// DefaultNIParams are the experiment defaults (tuned per DESIGN.md §6).
func DefaultNIParams() NIParams {
	return NIParams{
		Threshold:      48,
		InhibitWeight:  0,
		InternalWeight: 3,
		PinSources:     true,
	}
}

// NI is the Network Interaction model: a dedicated thresholder per task ID.
// Each time the local router forwards a packet, the counter of the packet's
// destination task is excited; once a task's count exceeds its threshold the
// node switches to that task and all counters reset.
type NI struct {
	par     NIParams
	base    NIParams // as-constructed copy, restored by Reset
	graph   *taskgraph.Graph
	current taskgraph.TaskID
	// ths is one contiguous block of thresholders indexed by TaskID, so a
	// decision pass walks a single cache-friendly allocation instead of
	// chasing a pointer per task. Entries for IDs the graph does not use stay
	// at threshold 0, which marks them invalid (a live thresholder's firing
	// level is always >= 1).
	ths []Thresholder
	ids []taskgraph.TaskID

	// Adaptive-threshold state (active when par.AdaptStep > 0).
	level     int
	lastDecay sim.Tick
}

// NewNI builds a Network Interaction engine with the given parameters.
func NewNI(g *taskgraph.Graph, par NIParams) *NI {
	if par.Threshold <= 0 {
		par.Threshold = DefaultNIParams().Threshold
	}
	if par.AdaptStep > 0 && par.AdaptDecay <= 0 {
		par.AdaptDecay = sim.Ms(10)
	}
	e := &NI{par: par, base: par, graph: g, ids: g.TaskIDs(), level: par.Threshold}
	e.ths = make([]Thresholder, int(g.MaxTaskID())+1)
	for _, id := range e.ids {
		e.ths[id].SetThreshold(par.Threshold)
	}
	return e
}

// valid reports whether the task ID has a live thresholder.
func (e *NI) valid(task taskgraph.TaskID) bool {
	return int(task) < len(e.ths) && e.ths[task].threshold > 0
}

// Level returns the current (possibly adapted) firing level.
func (e *NI) Level() int { return e.level }

// NewNIFactory returns a Factory producing NI engines with the parameters.
func NewNIFactory(par NIParams) Factory {
	return func(g *taskgraph.Graph) Engine { return NewNI(g, par) }
}

// Name implements Engine.
func (e *NI) Name() string { return "network-interaction" }

// OnRouted implements Engine: excite the destination task's thresholder.
func (e *NI) OnRouted(task taskgraph.TaskID, now sim.Tick) {
	if e.valid(task) {
		e.ths[task].Excite(1)
	}
}

// OnInternal implements Engine: a packet routed to the internal port is
// still a routed packet — it excites its own task's counter, which is what
// keeps a busy node re-electing its current task. With a non-zero
// InhibitWeight the social-inhibition extension additionally damps all
// counters on local work.
func (e *NI) OnInternal(task taskgraph.TaskID, now sim.Tick) {
	w := e.par.InternalWeight
	if w <= 0 {
		w = 1
	}
	if e.valid(task) {
		e.ths[task].Excite(w)
	}
	e.inhibitAll(e.par.InhibitWeight)
}

// OnGenerated implements Engine: generation only matters for the
// social-inhibition extension (sources are pinned in the base model).
func (e *NI) OnGenerated(now sim.Tick) {
	e.inhibitAll(e.par.InhibitWeight)
}

// OnDeadlineLapse implements Engine: the base NI model ignores lapses.
func (e *NI) OnDeadlineLapse(taskgraph.TaskID, sim.Tick) {}

// OnNeighborSignal implements Engine: optional information transfer.
func (e *NI) OnNeighborSignal(task taskgraph.TaskID, now sim.Tick) {
	if e.par.NeighborWeight > 0 && e.valid(task) {
		e.ths[task].Excite(e.par.NeighborWeight)
	}
}

// Decide implements Engine: the first fired thresholder (by task ID) wins.
func (e *NI) Decide(now sim.Tick) (taskgraph.TaskID, bool) {
	e.decayThreshold(now)
	if e.par.PinSources && e.graph.IsSource(e.current) {
		return taskgraph.None, false
	}
	for _, id := range e.ids {
		if !e.ths[id].Fired() {
			continue
		}
		e.resetAll()
		if id == e.current {
			// Re-electing the current task just confirms it; counters reset
			// (the paper's "task counters are reset" applies on any firing).
			return taskgraph.None, false
		}
		e.raiseThreshold()
		return id, true
	}
	return taskgraph.None, false
}

// raiseThreshold applies the adaptive-threshold churn damping after an
// applied switch.
func (e *NI) raiseThreshold() {
	if e.par.AdaptStep <= 0 {
		return
	}
	e.level += e.par.AdaptStep
	if e.level > CounterMax {
		e.level = CounterMax
	}
	for _, id := range e.ids {
		e.ths[id].SetThreshold(e.level)
	}
}

// decayThreshold relaxes an adapted level back toward the base threshold.
func (e *NI) decayThreshold(now sim.Tick) {
	if e.par.AdaptStep <= 0 || e.level <= e.par.Threshold {
		return
	}
	if now-e.lastDecay < e.par.AdaptDecay {
		return
	}
	e.lastDecay = now
	e.level--
	for _, id := range e.ids {
		e.ths[id].SetThreshold(e.level)
	}
}

// NextDecide implements Engine: without new stimuli the only self-driven
// behaviour is the adaptive-threshold decay, which can newly satisfy a
// counter's firing level. The base (non-adaptive) model is purely
// stimulus-driven.
func (e *NI) NextDecide(now sim.Tick) (sim.Tick, bool) {
	if e.par.AdaptStep <= 0 || e.level <= e.par.Threshold {
		return 0, false
	}
	return e.lastDecay + e.par.AdaptDecay, true
}

// NoteTask implements Engine.
func (e *NI) NoteTask(task taskgraph.TaskID) { e.current = task }

// SetParam implements Engine.
func (e *NI) SetParam(param, value int) {
	switch param {
	case ParamThreshold:
		e.par.Threshold = value
		e.level = value
		for _, id := range e.ids {
			e.ths[id].SetThreshold(value)
		}
	case ParamInhibit:
		e.par.InhibitWeight = value
	case ParamNeighborWeight:
		e.par.NeighborWeight = value
	case ParamPinSources:
		e.par.PinSources = value != 0
	case ParamAdaptStep:
		e.par.AdaptStep = value
		if value > 0 && e.par.AdaptDecay <= 0 {
			e.par.AdaptDecay = sim.Ms(10)
		}
	}
}

// Reset implements Engine: parameters return to their constructed values and
// all dynamic state clears, as if the engine were rebuilt.
func (e *NI) Reset() {
	e.par = e.base
	e.level = e.base.Threshold
	e.lastDecay = 0
	for _, id := range e.ids {
		e.ths[id].SetThreshold(e.level)
		e.ths[id].Reset()
	}
}

// Counts exposes the counter values (for tests and the embedded-equivalence
// checks against the PicoBlaze implementation).
func (e *NI) Counts() []int {
	out := make([]int, len(e.ths))
	for i := range e.ths {
		out[i] = e.ths[i].Count()
	}
	return out
}

func (e *NI) inhibitAll(n int) {
	if n <= 0 {
		return
	}
	for _, id := range e.ids {
		e.ths[id].Inhibit(n)
	}
}

func (e *NI) resetAll() {
	for _, id := range e.ids {
		e.ths[id].Reset()
	}
}
