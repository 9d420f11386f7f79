// Package aim implements the paper's Artificial Intelligence Module: the
// social-insect-inspired decision engines embedded at every router of the
// many-core fabric.
//
// All engines are built from the same stimulus–threshold primitive the paper
// identifies as common to the response-threshold, foraging-for-work and
// network task-allocation models: impulse inputs (monitor events) excite or
// inhibit counters, and when a counter crosses its threshold a knob fires
// (here: the task-switch knob of the local processing element).
//
// Two concrete engines reproduce the paper's experiments:
//
//   - NI (Network Interaction): a thresholder per task ID counts routed
//     packets by destination task; crossing a threshold switches the node to
//     that task and resets all counters.
//   - FFW (Foraging for Work): a task-switch timeout re-armed by internally
//     routed packets; on expiry the node adopts the task of the next packet
//     in its routing queue.
//
// A third engine, None, is the paper's no-intelligence baseline.
package aim

import (
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// Engine is the decision interface of an AIM. The platform feeds it monitor
// impulses (the router's sense taps) and runs a decision pass whenever the
// engine is stimulated or asks for one; a returned decision actuates the task
// knob of the local node. Every method is part of the one contract: the
// platform has no fallback mode for engines that cannot park, reset or be
// checkpointed.
type Engine interface {
	// Name identifies the model in tables and traces.
	Name() string

	// OnRouted fires for every data packet the local router forwards
	// (stimulus: task ID of packet routed).
	OnRouted(task taskgraph.TaskID, now sim.Tick)
	// OnInternal fires for every data packet accepted by the local
	// processing element (stimulus: packet routed to internal node).
	OnInternal(task taskgraph.TaskID, now sim.Tick)
	// OnGenerated fires when the local node emits a work item (a busy
	// source is doing useful work).
	OnGenerated(now sim.Tick)
	// OnDeadlineLapse fires when the router notices a late packet.
	OnDeadlineLapse(task taskgraph.TaskID, now sim.Tick)
	// OnNeighborSignal fires when a neighbouring node's AIM announces a
	// task switch (the "signals from intelligence modules of neighbouring
	// nodes" monitor; used by the information-transfer extension).
	OnNeighborSignal(task taskgraph.TaskID, now sim.Tick)

	// Decide runs one decision pass. It returns the task to switch to and
	// true when the engine's pathways fired a switch decision.
	Decide(now sim.Tick) (taskgraph.TaskID, bool)

	// NextDecide is queried immediately after every Decide call. It returns
	// the earliest future tick at which Decide could act or mutate engine
	// state without any new stimulus arriving first (FFW's armed timeout
	// expiring, an adaptive NI threshold decaying); has is false when,
	// absent stimuli, every future Decide call would be a pure no-op
	// returning no switch. The platform re-polls an engine on the tick of
	// every stimulus, every RCAP SetParam and every applied switch, so
	// NextDecide only needs to cover the engine's self-driven timers. An
	// engine that wants a pass every tick returns now+1.
	NextDecide(now sim.Tick) (at sim.Tick, has bool)

	// NoteTask informs the engine of the node's (new) current task — at
	// start-up and after a switch was applied.
	NoteTask(task taskgraph.TaskID)

	// SetParam applies an RCAP parameter write (see the Param* constants).
	SetParam(param, value int)

	// Reset restores the engine to its exactly-as-constructed state:
	// counters and timers clear, and parameters rewritten through RCAP
	// SetParam uploads return to their constructed values, so a recycled
	// platform (Platform.Reset) cannot leak a previous run's configuration
	// into the next one.
	Reset()

	// SaveState captures the engine's mutable state into st, reusing st's
	// slices; LoadState restores it (see EngineState). LoadState panics on
	// a record of another kind or shape.
	SaveState(st *EngineState)
	LoadState(st *EngineState)
}

// RCAP parameter indices understood by the engines' SetParam (uploaded by
// the experiment controller through OpAIMParam config packets).
const (
	ParamThreshold      = 1 // NI: thresholder firing level
	ParamInhibit        = 2 // NI: inhibition weight of internal work
	ParamTimeout        = 3 // FFW: task-switch timeout in ticks
	ParamPinSources     = 4 // both: 1 = never switch away from a source task
	ParamNeighborWeight = 5 // NI: excitation weight of neighbour signals
	ParamLapseBoost     = 6 // FFW: non-zero enables deadline-lapse arming
	ParamAdaptStep      = 7 // NI: adaptive-threshold step (0 disables)
)

// Factory builds one engine per node. Engines must not be shared between
// nodes — each AIM is embedded at its own router.
type Factory func(g *taskgraph.Graph) Engine
