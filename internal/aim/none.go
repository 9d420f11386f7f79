package aim

import (
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// None is the paper's no-intelligence baseline: the node keeps its statically
// mapped task forever (heuristic fixed mapping, minimised Manhattan
// distance). All monitor impulses are ignored.
type None struct{}

// NewNone returns the baseline engine.
func NewNone(*taskgraph.Graph) Engine { return None{} }

// Name implements Engine.
func (None) Name() string { return "none" }

// OnRouted implements Engine.
func (None) OnRouted(taskgraph.TaskID, sim.Tick) {}

// OnInternal implements Engine.
func (None) OnInternal(taskgraph.TaskID, sim.Tick) {}

// OnGenerated implements Engine.
func (None) OnGenerated(sim.Tick) {}

// OnDeadlineLapse implements Engine.
func (None) OnDeadlineLapse(taskgraph.TaskID, sim.Tick) {}

// OnNeighborSignal implements Engine.
func (None) OnNeighborSignal(taskgraph.TaskID, sim.Tick) {}

// Decide implements Engine: the baseline never switches.
func (None) Decide(sim.Tick) (taskgraph.TaskID, bool) { return taskgraph.None, false }

// NextDecide implements Engine: the baseline has no timers and never
// needs another poll.
func (None) NextDecide(sim.Tick) (sim.Tick, bool) { return 0, false }

// NoteTask implements Engine.
func (None) NoteTask(taskgraph.TaskID) {}

// SetParam implements Engine.
func (None) SetParam(int, int) {}

// Reset implements Engine.
func (None) Reset() {}
