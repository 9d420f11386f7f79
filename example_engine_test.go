package centurion_test

import (
	"fmt"

	"centurion"
	"centurion/internal/aim"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// deficit is a custom aim.Engine: every deadline lapse scores a deficit for
// the late packet's task; once a task's deficit leads by a margin and the
// node has been idle for a grace period, the node adopts it.
type deficit struct {
	graph   *taskgraph.Graph
	current taskgraph.TaskID
	scores  []int
	margin  int
	grace   sim.Tick
	lastIn  sim.Tick
}

func newDeficit(g *taskgraph.Graph) aim.Engine {
	return &deficit{
		graph:  g,
		scores: make([]int, int(g.MaxTaskID())+1),
		margin: 6,
		grace:  sim.Ms(10),
	}
}

func (d *deficit) Name() string { return "deficit-scheduler" }

func (d *deficit) OnRouted(task taskgraph.TaskID, now sim.Tick) {}

func (d *deficit) OnInternal(task taskgraph.TaskID, now sim.Tick) {
	d.lastIn = now
	// Serving our own task pays down its deficit.
	if int(task) < len(d.scores) && d.scores[task] > 0 {
		d.scores[task]--
	}
}

func (d *deficit) OnGenerated(now sim.Tick) { d.lastIn = now }

func (d *deficit) OnDeadlineLapse(task taskgraph.TaskID, now sim.Tick) {
	if int(task) < len(d.scores) {
		d.scores[task] += 2
	}
}

func (d *deficit) OnNeighborSignal(task taskgraph.TaskID, now sim.Tick) {}

func (d *deficit) Decide(now sim.Tick) (taskgraph.TaskID, bool) {
	if d.graph.IsSource(d.current) || now-d.lastIn < d.grace {
		return taskgraph.None, false
	}
	best, bestScore := taskgraph.None, d.margin-1
	for t := 1; t < len(d.scores); t++ {
		if d.scores[t] > bestScore && taskgraph.TaskID(t) != d.current {
			best, bestScore = taskgraph.TaskID(t), d.scores[t]
		}
	}
	if best == taskgraph.None {
		return taskgraph.None, false
	}
	for t := range d.scores {
		d.scores[t] = 0
	}
	return best, true
}

// NextDecide asks for a decision pass every tick: the idle grace period
// expires on the clock, not on a stimulus.
func (d *deficit) NextDecide(now sim.Tick) (sim.Tick, bool) { return now + 1, true }

func (d *deficit) NoteTask(task taskgraph.TaskID) { d.current = task }
func (d *deficit) SetParam(param, value int)      {}
func (d *deficit) Reset() {
	clear(d.scores)
	d.current, d.lastIn = taskgraph.None, 0
}

// stateDeficit tags this engine's checkpoint records; kinds from
// aim.StateExternal up are free for engines outside package aim.
const stateDeficit = aim.StateExternal

// SaveState records the scores, the last-input tick and the current task in
// the generic EngineState fields, so platforms running this engine can be
// checkpointed, forked and resumed.
func (d *deficit) SaveState(st *aim.EngineState) {
	counts, ths := st.Counts[:0], st.Thresholds[:0]
	*st = aim.EngineState{Kind: stateDeficit, Current: d.current, LastWork: d.lastIn}
	for _, v := range d.scores {
		counts = append(counts, int32(v))
	}
	st.Counts, st.Thresholds = counts, ths
}

func (d *deficit) LoadState(st *aim.EngineState) {
	if st.Kind != stateDeficit || len(st.Counts) != len(d.scores) {
		panic("deficit: checkpoint record does not fit this engine")
	}
	d.current, d.lastIn = st.Current, st.LastWork
	for t, v := range st.Counts {
		d.scores[t] = int(v)
	}
}

// Plug a new decision engine into every router of the platform: a
// "deficit scheduler" — a deliberately non-biological engine that tracks
// which task's packets wait longest and greedily adopts it — raced against
// Foraging for Work on the same seeds. The AIM slot at each router accepts
// any stimulus-to-knob pathway; the social-insect models are one family
// among many.
func ExampleWithEngineFactory() {
	fmt.Printf("%-6s %-20s %s\n", "seed", "deficit (inst/ms)", "ffw (inst/ms)")
	var dTotal, fTotal float64
	for seed := uint64(1); seed <= 5; seed++ {
		custom := centurion.NewSystem(
			centurion.WithEngineFactory(newDeficit),
			centurion.WithSeed(seed),
		)
		custom.RunMs(1000)
		dRate := float64(custom.Throughput()) / 1000

		ffw := centurion.NewSystem(
			centurion.WithModel(centurion.ModelFFW),
			centurion.WithSeed(seed),
		)
		ffw.RunMs(1000)
		fRate := float64(ffw.Throughput()) / 1000

		dTotal += dRate
		fTotal += fRate
		fmt.Printf("%-6d %-20.2f %.2f\n", seed, dRate, fRate)
	}
	fmt.Printf("\nmean over 5 seeds: deficit %.2f vs FFW %.2f inst/ms\n", dTotal/5, fTotal/5)
	fmt.Println("(the deficit engine starts from the heuristic mapping, FFW from a random one)")
	// Output:
	// seed   deficit (inst/ms)    ffw (inst/ms)
	// 1      2.15                 2.04
	// 2      2.15                 2.03
	// 3      2.15                 2.58
	// 4      2.14                 2.97
	// 5      2.15                 2.11
	//
	// mean over 5 seeds: deficit 2.15 vs FFW 2.35 inst/ms
	// (the deficit engine starts from the heuristic mapping, FFW from a random one)
}
