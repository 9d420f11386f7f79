package aim

import (
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// Checkpoint support (DESIGN.md §15). Each engine's *mutable* state — live
// parameters (RCAP-writable), the tracked current task, thresholder
// counters, timers — is captured into a flat EngineState; the construction
// inputs (task graph, as-built base parameters, queue-peek wiring) stay with
// the target engine, which must be of the same kind and built over the same
// graph.

// EngineState kinds. Kinds below StateExternal are assigned here; kinds from
// StateExternal up belong to engines outside this package (an application's
// own aim.Engine), which reuse the generic fields below as they see fit. The
// checkpoint codec writes Kind and every field for any kind, so a new kind
// moves no byte of another kind's record.
const (
	StateNone uint8 = iota
	StateNI
	StateFFW
	// StatePB is the embedded PicoBlaze NI engine (package picoblaze):
	// Current, NIPar.Threshold and NIPar.PinSources are its live registers,
	// Counts holds the scratchpad bytes and Thresholds the latched impulse
	// counts per input port.
	StatePB

	// StateExternal is the first kind free for engines outside package aim.
	StateExternal uint8 = 128
)

// EngineState is a serializable snapshot of one engine's mutable state. The
// Kind discriminator selects which field group is meaningful; a restore
// into an engine of a different kind panics.
type EngineState struct {
	Kind    uint8
	Current taskgraph.TaskID

	// Network Interaction (StateNI): live params, per-task thresholder
	// counters and firing levels, adaptive-threshold state.
	NIPar      NIParams
	Counts     []int32
	Thresholds []int32
	Level      int
	LastDecay  sim.Tick

	// Foraging for Work (StateFFW): live params and the switch timer.
	FFWPar   FFWParams
	Armed    bool
	ArmTime  sim.Tick
	LastWork sim.Tick
}

// SaveState implements Engine.
func (e *NI) SaveState(st *EngineState) {
	counts, ths := st.Counts[:0], st.Thresholds[:0]
	*st = EngineState{Kind: StateNI, Current: e.current, NIPar: e.par, Level: e.level, LastDecay: e.lastDecay}
	for i := range e.ths {
		counts = append(counts, int32(e.ths[i].count))
		ths = append(ths, int32(e.ths[i].threshold))
	}
	st.Counts, st.Thresholds = counts, ths
}

// LoadState implements Engine.
func (e *NI) LoadState(st *EngineState) {
	if st.Kind != StateNI {
		panic("aim: checkpoint engine kind mismatch (want NI)")
	}
	if len(st.Counts) != len(e.ths) || len(st.Thresholds) != len(e.ths) {
		panic("aim: NI checkpoint thresholder count mismatch")
	}
	e.par = st.NIPar
	e.current = st.Current
	e.level = st.Level
	e.lastDecay = st.LastDecay
	for i := range e.ths {
		e.ths[i].count = int(st.Counts[i])
		e.ths[i].threshold = int(st.Thresholds[i])
	}
}

// SaveState implements Engine.
func (e *FFW) SaveState(st *EngineState) {
	counts, ths := st.Counts[:0], st.Thresholds[:0]
	*st = EngineState{Kind: StateFFW, Current: e.current, FFWPar: e.par,
		Armed: e.armed, ArmTime: e.armTime, LastWork: e.lastWork}
	st.Counts, st.Thresholds = counts, ths
}

// LoadState implements Engine.
func (e *FFW) LoadState(st *EngineState) {
	if st.Kind != StateFFW {
		panic("aim: checkpoint engine kind mismatch (want FFW)")
	}
	e.par = st.FFWPar
	e.current = st.Current
	e.armed = st.Armed
	e.armTime = st.ArmTime
	e.lastWork = st.LastWork
}

// SaveState implements Engine (the baseline engine is stateless).
func (None) SaveState(st *EngineState) {
	counts, ths := st.Counts[:0], st.Thresholds[:0]
	*st = EngineState{Kind: StateNone}
	st.Counts, st.Thresholds = counts, ths
}

// LoadState implements Engine.
func (None) LoadState(st *EngineState) {
	if st.Kind != StateNone {
		panic("aim: checkpoint engine kind mismatch (want None)")
	}
}
