package picoblaze

import (
	"fmt"

	"centurion/internal/aim"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// AIM port map: the monitor/knob interface the router fabric exposes to the
// embedded controller (Figure 2 of the paper). Input ports 0x01..0x0F carry
// the latched impulse counts per task ID ("functions for interfacing to
// convert between impulse sequences and binary number representation");
// reading a latch clears it. PortMaxTask reads the graph's highest task ID,
// which bounds the program's scans.
const (
	PortImpulseBase = 0x00 // +taskID
	PortCurrentTask = 0x10
	PortThreshold   = 0x11
	PortMaxTask     = 0x12
	PortSwitchKnob  = 0x20
	PortDone        = 0x2F
)

// NIProgram is the Network Interaction threshold pathway as PicoBlaze
// assembly: accumulate latched impulses into per-task scratchpad counters
// (saturating), then scan the counters in task order; the first counter at
// or above the threshold resets all counters and — unless it re-elects the
// current task — drives the task-switch knob.
//
// Registers: s0 task cursor, s1 counter, s2 impulses, s3 threshold,
// s4 current task, s5/s6 reset loop temporaries, s7 highest task ID.
const NIProgram = `
; Network Interaction stimulus-threshold pathway (paper §IV-A1).
start:
        INPUT   s3, 11          ; threshold parameter register
        INPUT   s4, 10          ; current task
        INPUT   s7, 12          ; highest task ID of the graph
        LOAD    s0, 01
accum:
        INPUT   s2, (s0)        ; latched impulses for task s0 (clears latch)
        FETCH   s1, (s0)        ; per-task counter lives in scratchpad[task]
        ADD     s1, s2
        JUMP    NC, nosat
        LOAD    s1, FF          ; saturate at 255 like the 8-bit hardware
nosat:
        STORE   s1, (s0)
        COMPARE s0, s7
        JUMP    Z, scan
        ADD     s0, 01
        JUMP    accum

scan:
        LOAD    s0, 01
check:
        FETCH   s1, (s0)
        COMPARE s1, s3          ; C set when threshold > counter
        JUMP    NC, fired
        COMPARE s0, s7
        JUMP    Z, done
        ADD     s0, 01
        JUMP    check

fired:
        CALL    resetall
        COMPARE s0, s4
        JUMP    Z, done         ; re-election of the current task: no knob
        OUTPUT  s0, 20          ; task-switch knob
done:
        OUTPUT  s0, 2F          ; handshake: decision pass complete
        JUMP    start

resetall:
        LOAD    s5, 01
        LOAD    s6, 00
ra:
        STORE   s6, (s5)
        COMPARE s5, s7
        RETURN  Z
        ADD     s5, 01
        JUMP    ra
`

// DecideBudget bounds the instructions one Decide pass may execute.
const DecideBudget = 512

// NIEngine hosts the NI pathway on an emulated PicoBlaze, implementing
// aim.Engine so the platform can embed instruction-level intelligence in
// place of the behavioural model. Impulses latch into 8-bit registers
// between decision passes, exactly like the hardware interface.
type NIEngine struct {
	cpu   *CPU
	graph *taskgraph.Graph

	pending    [16]int // latched impulses per port, saturating at 255
	current    taskgraph.TaskID
	threshold  uint8
	internalW  int
	pinSources bool
	base       aim.NIParams // as-constructed threshold and pin-sources, restored by Reset

	decision taskgraph.TaskID
	decided  bool
	done     bool
}

// NewNIEngine assembles the NI program and wraps it in an aim.Engine with
// the NI parameters its excitation-only 8-bit pathway honours: the threshold
// (clamped to the parameter register's [1, 255]), the internal weight and
// pinned sources; the inhibition and neighbour weights do not apply.
// Graphs with more than 15 task IDs do not fit the 4-bit port map.
func NewNIEngine(g *taskgraph.Graph, par aim.NIParams) (*NIEngine, error) {
	if g.MaxTaskID() > 15 {
		return nil, fmt.Errorf("picoblaze: task ID %d exceeds the AIM port map", g.MaxTaskID())
	}
	e := &NIEngine{
		graph:      g,
		internalW:  par.InternalWeight,
		pinSources: par.PinSources,
	}
	if par.Threshold < 1 {
		par.Threshold = 1
	}
	if par.Threshold > 255 {
		par.Threshold = 255
	}
	e.threshold = uint8(par.Threshold)
	e.base = par
	if e.internalW <= 0 {
		e.internalW = 1
	}
	cpu, err := newCPU(MustAssemble(NIProgram))
	if err != nil {
		return nil, err
	}
	cpu.readPort, cpu.writePort = e.In, e.Out
	e.cpu = cpu
	return e, nil
}

// NewNIEngineFactory returns an aim.Factory producing embedded NI engines;
// it panics if the program cannot host the graph (construction-time error).
func NewNIEngineFactory(par aim.NIParams) aim.Factory {
	return func(g *taskgraph.Graph) aim.Engine {
		e, err := NewNIEngine(g, par)
		if err != nil {
			panic(err)
		}
		return e
	}
}

// In implements Bus: the monitor side of the AIM interface.
func (e *NIEngine) In(p uint8) uint8 {
	switch {
	case p > PortImpulseBase && p < PortImpulseBase+16:
		t := int(p - PortImpulseBase)
		v := e.pending[t]
		e.pending[t] = 0
		return uint8(v)
	case p == PortCurrentTask:
		return uint8(e.current)
	case p == PortThreshold:
		return e.threshold
	case p == PortMaxTask:
		return uint8(e.graph.MaxTaskID())
	}
	return 0
}

// Out implements Bus: the knob side of the AIM interface.
func (e *NIEngine) Out(p uint8, v uint8) {
	switch p {
	case PortSwitchKnob:
		e.decision = taskgraph.TaskID(v)
		e.decided = true
	case PortDone:
		e.done = true
	}
}

// Name implements aim.Engine.
func (e *NIEngine) Name() string { return "network-interaction/picoblaze" }

// OnRouted implements aim.Engine.
func (e *NIEngine) OnRouted(task taskgraph.TaskID, now sim.Tick) { e.latch(task, 1) }

// OnInternal implements aim.Engine.
func (e *NIEngine) OnInternal(task taskgraph.TaskID, now sim.Tick) { e.latch(task, e.internalW) }

// latch adds n impulses to a task's 8-bit input latch, saturating like the
// hardware counter.
func (e *NIEngine) latch(task taskgraph.TaskID, n int) {
	if task > 0 && int(task) < len(e.pending) {
		e.pending[task] = min(e.pending[task]+n, 255)
	}
}

// OnGenerated implements aim.Engine.
func (e *NIEngine) OnGenerated(sim.Tick) {}

// OnDeadlineLapse implements aim.Engine.
func (e *NIEngine) OnDeadlineLapse(taskgraph.TaskID, sim.Tick) {}

// OnNeighborSignal implements aim.Engine.
func (e *NIEngine) OnNeighborSignal(taskgraph.TaskID, sim.Tick) {}

// Decide implements aim.Engine: one full pass of the embedded program.
func (e *NIEngine) Decide(now sim.Tick) (taskgraph.TaskID, bool) {
	if e.pinSources && e.graph.IsSource(e.current) {
		return taskgraph.None, false
	}
	e.decided = false
	e.done = false
	e.cpu.PC = 0 // restart the pass; scratchpad counters persist
	for i := 0; i < DecideBudget && !e.done; i++ {
		if !e.cpu.Step() {
			return taskgraph.None, false
		}
	}
	if !e.decided || e.decision == e.current || e.decision == taskgraph.None {
		return taskgraph.None, false
	}
	return e.decision, true
}

// NextDecide implements aim.Engine: the pathway has no timers, so without a
// new latched impulse (which re-polls the engine) or RCAP write every pass
// leaves all counters below threshold and fires nothing.
func (e *NIEngine) NextDecide(sim.Tick) (sim.Tick, bool) { return 0, false }

// NoteTask implements aim.Engine.
func (e *NIEngine) NoteTask(task taskgraph.TaskID) { e.current = task }

// SetParam implements aim.Engine (RCAP parameter writes).
func (e *NIEngine) SetParam(param, value int) {
	switch param {
	case aim.ParamThreshold:
		if value < 1 {
			value = 1
		}
		if value > 255 {
			value = 255
		}
		e.threshold = uint8(value)
	case aim.ParamInhibit:
		// The embedded pathway is excitation-only; ignored.
	case aim.ParamPinSources:
		e.pinSources = value != 0
	}
}

// Reset implements aim.Engine: clears the core, its counters and latches,
// and restores the constructed threshold and pin-sources parameters.
func (e *NIEngine) Reset() {
	e.cpu.Reset()
	e.pending = [16]int{}
	e.threshold = uint8(e.base.Threshold)
	e.pinSources = e.base.PinSources
}

// SaveState implements aim.Engine as an aim.StatePB record: the live
// parameters, the scratchpad and the input latches. Registers, flags, PC and
// call stack are not captured: every decision pass restarts at PC 0, loads
// each register before reading it and returns from every call, so they are
// dead between passes.
func (e *NIEngine) SaveState(st *aim.EngineState) {
	counts, latches := st.Counts[:0], st.Thresholds[:0]
	*st = aim.EngineState{Kind: aim.StatePB, Current: e.current}
	st.NIPar.Threshold = int(e.threshold)
	st.NIPar.PinSources = e.pinSources
	for _, b := range e.cpu.Scratch {
		counts = append(counts, int32(b))
	}
	for _, v := range e.pending {
		latches = append(latches, int32(v))
	}
	st.Counts, st.Thresholds = counts, latches
}

// LoadState implements aim.Engine.
func (e *NIEngine) LoadState(st *aim.EngineState) {
	if st.Kind != aim.StatePB {
		panic("picoblaze: checkpoint engine kind mismatch (want PicoBlaze NI)")
	}
	if len(st.Counts) != len(e.cpu.Scratch) || len(st.Thresholds) != len(e.pending) {
		panic("picoblaze: checkpoint scratchpad or latch count mismatch")
	}
	e.current = st.Current
	e.threshold = uint8(st.NIPar.Threshold)
	e.pinSources = st.NIPar.PinSources
	for i := range e.cpu.Scratch {
		e.cpu.Scratch[i] = uint8(st.Counts[i])
	}
	for i := range e.pending {
		e.pending[i] = int(st.Thresholds[i])
	}
}

// Counters exposes the scratchpad counter values for tests.
func (e *NIEngine) Counters(maxTask taskgraph.TaskID) []int {
	out := make([]int, int(maxTask)+1)
	for t := 1; t <= int(maxTask); t++ {
		out[t] = int(e.cpu.Scratch[t])
	}
	return out
}

// Steps reports the total instructions executed (hardware cost accounting).
func (e *NIEngine) Steps() uint64 { return e.cpu.Steps }

var _ aim.Engine = (*NIEngine)(nil)
