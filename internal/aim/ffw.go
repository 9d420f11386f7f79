package aim

import (
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// FFWParams tune the Foraging for Work engine.
type FFWParams struct {
	// Timeout is the task-switch timeout: how long after the deadline
	// monitor arms the engine the node waits (for its own task's work to
	// resume) before adopting the task of the next queued packet.
	// The paper's experiments use 20 ms.
	Timeout sim.Tick
	// ArmOnLapse selects the paper's full model: the timeout counter is set
	// up when "a packet deadline comes too close or has lapsed". When false,
	// the engine degrades to a pure idleness timeout (an ablation that is
	// unstable under load — see BenchmarkAblationFFWNoLapseArming).
	ArmOnLapse bool
	// PinSources prevents switching away from a source task (DESIGN.md §5).
	PinSources bool
}

// DefaultFFWParams are the paper's experiment settings: a 20 ms timeout
// armed by the deadline-lapse monitor.
func DefaultFFWParams() FFWParams {
	return FFWParams{
		Timeout:    sim.Ms(20),
		ArmOnLapse: true,
		PinSources: true,
	}
}

// QueuePeek looks up the destination task of the next data packet in the
// local router's queues. ok is false when nothing is queued. The platform
// wires this to noc.Router.QueuedHeadTaskFunc.
type QueuePeek func(now sim.Tick) (taskgraph.TaskID, bool)

// FFW is the Foraging for Work model, following the paper's description:
// three monitors (task of packet routed, packet routed to internal node,
// time since sent). A threshold circuit detects when a packet deadline has
// come too close or lapsed and sets up a timeout counter; once that timer
// expires, the node switches to the task of the next packet in the routing
// queue "in order to sink and process it locally". Every internally routed
// packet resets the timeout, so as long as a node's current task suits the
// routing and processing requirements, task switching is suppressed.
type FFW struct {
	par     FFWParams
	base    FFWParams // as-constructed copy, restored by Reset
	graph   *taskgraph.Graph
	current taskgraph.TaskID
	peek    QueuePeek

	armed    bool
	armTime  sim.Tick
	lastWork sim.Tick
}

// NewFFW builds a Foraging for Work engine.
func NewFFW(g *taskgraph.Graph, par FFWParams) *FFW {
	if par.Timeout <= 0 {
		par.Timeout = DefaultFFWParams().Timeout
	}
	return &FFW{par: par, base: par, graph: g}
}

// NewFFWFactory returns a Factory producing FFW engines with the parameters.
func NewFFWFactory(par FFWParams) Factory {
	return func(g *taskgraph.Graph) Engine { return NewFFW(g, par) }
}

// SetQueuePeek wires the router-queue monitor. Decide returns no decision
// until a peek function is attached.
func (e *FFW) SetQueuePeek(p QueuePeek) { e.peek = p }

// Name implements Engine.
func (e *FFW) Name() string { return "foraging-for-work" }

// OnRouted implements Engine: through-traffic alone is not local work.
func (e *FFW) OnRouted(taskgraph.TaskID, sim.Tick) {}

// OnInternal implements Engine: an internally routed packet disarms the
// task-switch timeout — the node's task is serving real demand.
func (e *FFW) OnInternal(task taskgraph.TaskID, now sim.Tick) {
	e.armed = false
	e.lastWork = now
}

// OnGenerated implements Engine: a generating source is doing work.
func (e *FFW) OnGenerated(now sim.Tick) {
	e.armed = false
	e.lastWork = now
}

// OnDeadlineLapse implements Engine: a late packet in the routing queue is
// the evidence of service failure that arms the switch timer.
func (e *FFW) OnDeadlineLapse(task taskgraph.TaskID, now sim.Tick) {
	if e.par.ArmOnLapse && !e.armed {
		e.armed = true
		e.armTime = now
	}
}

// OnNeighborSignal implements Engine: FFW is purely local.
func (e *FFW) OnNeighborSignal(taskgraph.TaskID, sim.Tick) {}

// Decide implements Engine.
func (e *FFW) Decide(now sim.Tick) (taskgraph.TaskID, bool) {
	if e.peek == nil {
		return taskgraph.None, false
	}
	if e.par.PinSources && e.graph.IsSource(e.current) {
		return taskgraph.None, false
	}
	if e.par.ArmOnLapse {
		if !e.armed || now-e.armTime < e.par.Timeout {
			return taskgraph.None, false
		}
		e.armed = false
	} else {
		// Ablation: pure idleness timeout, re-armed every window.
		if now-e.lastWork < e.par.Timeout {
			return taskgraph.None, false
		}
		e.lastWork = now
	}
	task, ok := e.peek(now)
	if !ok || task == e.current || task == taskgraph.None {
		return taskgraph.None, false
	}
	return task, true
}

// NextDecide implements Engine. In the paper's lapse-armed model the
// engine is dormant until the armed timeout expires; in the pure-idleness
// ablation Decide re-arms lastWork every Timeout window, so the next
// self-driven mutation is always one timeout after the last.
func (e *FFW) NextDecide(now sim.Tick) (sim.Tick, bool) {
	if e.peek == nil {
		return 0, false
	}
	if e.par.PinSources && e.graph.IsSource(e.current) {
		return 0, false
	}
	if e.par.ArmOnLapse {
		if !e.armed {
			return 0, false
		}
		return e.armTime + e.par.Timeout, true
	}
	return e.lastWork + e.par.Timeout, true
}

// NoteTask implements Engine.
func (e *FFW) NoteTask(task taskgraph.TaskID) { e.current = task }

// SetParam implements Engine.
func (e *FFW) SetParam(param, value int) {
	switch param {
	case ParamTimeout:
		if value > 0 {
			e.par.Timeout = sim.Tick(value)
		}
	case ParamLapseBoost:
		e.par.ArmOnLapse = value != 0
	case ParamPinSources:
		e.par.PinSources = value != 0
	}
}

// Reset implements Engine: parameters return to their constructed values and
// all dynamic state clears, as if the engine were rebuilt.
func (e *FFW) Reset() {
	e.par = e.base
	e.armed = false
	e.armTime = 0
	e.lastWork = 0
}

// Armed exposes the timer state (for tests).
func (e *FFW) Armed() bool { return e.armed }
