package picoblaze

import (
	"testing"
	"testing/quick"

	"centurion/internal/aim"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

func fj() *taskgraph.Graph { return taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams()) }

func newPB(t *testing.T, par aim.NIParams) *NIEngine {
	t.Helper()
	e, err := NewNIEngine(fj(), par)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPBEngineFiresAtThreshold(t *testing.T) {
	e := newPB(t, aim.NIParams{Threshold: 5, InternalWeight: 1, PinSources: true})
	e.NoteTask(taskgraph.ForkSink)
	for i := 0; i < 4; i++ {
		e.OnRouted(taskgraph.ForkWorker, sim.Tick(i))
	}
	if _, ok := e.Decide(4); ok {
		t.Fatal("fired below threshold")
	}
	e.OnRouted(taskgraph.ForkWorker, 5)
	task, ok := e.Decide(5)
	if !ok || task != taskgraph.ForkWorker {
		t.Fatalf("Decide = %d,%v, want worker", task, ok)
	}
	// Counters reset after firing.
	for _, c := range e.Counters(3) {
		if c != 0 {
			t.Fatalf("counters not reset: %v", e.Counters(3))
		}
	}
}

func TestPBEngineReElection(t *testing.T) {
	e := newPB(t, aim.NIParams{Threshold: 3, InternalWeight: 1, PinSources: true})
	e.NoteTask(taskgraph.ForkWorker)
	for i := 0; i < 3; i++ {
		e.OnRouted(taskgraph.ForkWorker, 0)
	}
	if task, ok := e.Decide(0); ok {
		t.Fatalf("re-election switched to %d", task)
	}
	for _, c := range e.Counters(3) {
		if c != 0 {
			t.Fatal("counters not reset on re-election")
		}
	}
}

func TestPBEnginePinsSources(t *testing.T) {
	e := newPB(t, aim.NIParams{Threshold: 1, InternalWeight: 1, PinSources: true})
	e.NoteTask(taskgraph.ForkSource)
	e.OnRouted(taskgraph.ForkWorker, 0)
	if _, ok := e.Decide(0); ok {
		t.Fatal("pinned source switched")
	}
	e.SetParam(aim.ParamPinSources, 0)
	if task, ok := e.Decide(1); !ok || task != taskgraph.ForkWorker {
		t.Fatalf("unpinned Decide = %d,%v", task, ok)
	}
}

func TestPBEngineInternalWeight(t *testing.T) {
	e := newPB(t, aim.NIParams{Threshold: 6, InternalWeight: 3, PinSources: true})
	e.NoteTask(taskgraph.ForkSink)
	e.OnInternal(taskgraph.ForkWorker, 0)
	e.OnInternal(taskgraph.ForkWorker, 1)
	task, ok := e.Decide(1)
	if !ok || task != taskgraph.ForkWorker {
		t.Fatalf("internal weight 3 x2 should fire threshold 6; got %d,%v", task, ok)
	}
}

func TestPBEngineThresholdParam(t *testing.T) {
	e := newPB(t, aim.DefaultNIParams())
	e.NoteTask(taskgraph.ForkSink)
	e.SetParam(aim.ParamThreshold, 2)
	e.OnRouted(taskgraph.ForkWorker, 0)
	e.OnRouted(taskgraph.ForkWorker, 0)
	if _, ok := e.Decide(0); !ok {
		t.Fatal("RCAP threshold write ignored")
	}
}

func TestPBEngineSaturation(t *testing.T) {
	e := newPB(t, aim.NIParams{Threshold: 255, InternalWeight: 1, PinSources: true})
	e.NoteTask(taskgraph.ForkSink)
	for i := 0; i < 1000; i++ {
		e.OnRouted(taskgraph.ForkSink, sim.Tick(i))
	}
	// Own-task saturation fires a re-election (reset), not a switch.
	if task, ok := e.Decide(0); ok {
		t.Fatalf("saturated own-task counter switched to %d", task)
	}
	// Counter must have saturated at 255, not wrapped.
	e2 := newPB(t, aim.NIParams{Threshold: 200, InternalWeight: 1, PinSources: true})
	e2.NoteTask(taskgraph.ForkSink)
	for i := 0; i < 300; i++ {
		e2.OnRouted(taskgraph.ForkWorker, sim.Tick(i))
	}
	if task, ok := e2.Decide(0); !ok || task != taskgraph.ForkWorker {
		t.Fatalf("300 impulses vs threshold 200: %d,%v (wrap would miss)", task, ok)
	}
}

func TestPBEngineReset(t *testing.T) {
	e := newPB(t, aim.NIParams{Threshold: 10, InternalWeight: 1})
	e.NoteTask(taskgraph.ForkSink)
	for i := 0; i < 5; i++ {
		e.OnRouted(taskgraph.ForkWorker, 0)
	}
	e.Decide(0)
	e.SetParam(aim.ParamThreshold, 2) // an RCAP write Reset must undo
	e.Reset()
	for _, c := range e.Counters(3) {
		if c != 0 {
			t.Fatal("Reset left counters")
		}
	}
	e.NoteTask(taskgraph.ForkSink)
	for i := 0; i < 5; i++ {
		e.OnRouted(taskgraph.ForkWorker, 0)
	}
	if task, ok := e.Decide(0); ok {
		t.Fatalf("5 impulses fired %d after Reset: the RCAP threshold 2 survived", task)
	}
}

func TestPBEngineRejectsWideGraphs(t *testing.T) {
	g := taskgraph.New("wide")
	for i := 1; i <= 16; i++ {
		tk := taskgraph.Task{ID: taskgraph.TaskID(i)}
		if i == 1 {
			tk.GenPeriod = 10
		}
		g.AddTask(tk)
	}
	for i := 1; i < 16; i++ {
		g.AddEdge(taskgraph.TaskID(i), taskgraph.TaskID(i+1), 1)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNIEngine(g, aim.DefaultNIParams()); err == nil {
		t.Error("16-task graph accepted despite 4-bit port map")
	}
}

// The embedded implementation must make the same decisions as the
// behavioural Go engine for arbitrary impulse schedules — the paper's AIM is
// "uploaded program code" implementing exactly the behavioural pathway — on
// every graph shape it accepts, not only the 3-task fork–join.
func TestPBEquivalenceWithBehaviouralNI(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graph *taskgraph.Graph
	}{
		{"forkjoin", fj()},
		{"pipeline", taskgraph.Pipeline(5, 120, 24)},
		{"diamond", taskgraph.Diamond(120, 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(pbMatchesNI(tc.graph), &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// pbMatchesNI returns the equivalence property on graph g: impulses for
// every task ID, starting from the highest-numbered (a sink, never pinned).
func pbMatchesNI(g *taskgraph.Graph) func(events []uint8) bool {
	tasks := uint8(g.MaxTaskID())
	return func(events []uint8) bool {
		par := aim.NIParams{Threshold: 20, InternalWeight: 3, PinSources: true}
		ref := aim.NewNI(g, par)
		emb, err := NewNIEngine(g, aim.NIParams{Threshold: 20, InternalWeight: 3, PinSources: true})
		if err != nil {
			return false
		}
		cur := g.MaxTaskID()
		ref.NoteTask(cur)
		emb.NoteTask(cur)
		now := sim.Tick(0)
		for _, ev := range events {
			task := taskgraph.TaskID(ev%tasks + 1)
			switch (ev / tasks) % 3 {
			case 0:
				ref.OnRouted(task, now)
				emb.OnRouted(task, now)
			case 1:
				ref.OnInternal(task, now)
				emb.OnInternal(task, now)
			case 2:
				// Decision poll between impulses.
				rt, rok := ref.Decide(now)
				et, eok := emb.Decide(now)
				if rok != eok || (rok && rt != et) {
					return false
				}
				if rok {
					cur = rt
					ref.NoteTask(cur)
					emb.NoteTask(cur)
				}
			}
			now++
		}
		rt, rok := ref.Decide(now)
		et, eok := emb.Decide(now)
		return rok == eok && (!rok || rt == et)
	}
}

func TestPBEngineStepBudget(t *testing.T) {
	e := newPB(t, aim.DefaultNIParams())
	e.NoteTask(taskgraph.ForkSink)
	before := e.Steps()
	e.Decide(0)
	used := e.Steps() - before
	if used == 0 || used > DecideBudget {
		t.Errorf("decision pass used %d instructions, budget %d", used, DecideBudget)
	}
}
