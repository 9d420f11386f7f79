package taskgraph

import (
	"strings"
	"testing"
)

func TestForkJoinStructure(t *testing.T) {
	g := ForkJoin(DefaultForkJoinParams())
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.IsSource(ForkSource) {
		t.Error("task 1 should be a source")
	}
	if g.IsSource(ForkWorker) || g.IsSource(ForkSink) {
		t.Error("tasks 2,3 should not be sources")
	}
	if !g.IsSink(ForkSink) {
		t.Error("task 3 should be a sink")
	}
	if g.IsSink(ForkSource) || g.IsSink(ForkWorker) {
		t.Error("tasks 1,2 should not be sinks")
	}
	if got := g.JoinWidth(ForkSink); got != 3 {
		t.Errorf("JoinWidth(sink) = %d, want 3 (join of 3 branches)", got)
	}
	if got := g.InWidth(ForkWorker); got != 3 {
		t.Errorf("InWidth(worker) = %d, want 3 (fanout of source edge)", got)
	}
	if got := g.InWidth(ForkSource); got != 0 {
		t.Errorf("InWidth(source) = %d, want 0", got)
	}
	succ := g.Successors(ForkSource)
	if len(succ) != 1 || succ[0].To != ForkWorker || succ[0].Width != 3 {
		t.Errorf("Successors(source) = %+v, want one edge to worker width 3", succ)
	}
	if src := g.Sources(); len(src) != 1 || src[0] != ForkSource {
		t.Errorf("Sources = %v", src)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != ForkSink {
		t.Errorf("Sinks = %v", snk)
	}
	if g.Task(ForkSource).GenPeriod != 120 {
		t.Errorf("source GenPeriod = %d, want 120 ticks (one instance per 12 ms = 1 packet per 4 ms)", g.Task(ForkSource).GenPeriod)
	}
}

func TestTopoOrder(t *testing.T) {
	g := ForkJoin(DefaultForkJoinParams())
	order := g.TopoOrder()
	if len(order) != 3 {
		t.Fatalf("TopoOrder length %d", len(order))
	}
	pos := map[TaskID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		for _, e := range g.Successors(id) {
			if pos[e.From] >= pos[e.To] {
				t.Errorf("edge %d->%d violates topological order %v", e.From, e.To, order)
			}
		}
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := New("cyclic").
		AddTask(Task{ID: 1, GenPeriod: 10}).
		AddTask(Task{ID: 2}).
		AddEdge(1, 2, 1).
		AddEdge(2, 1, 1)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate on cyclic graph = %v, want cycle error", err)
	}
}

func TestValidateDetectsUnknownEdgeEndpoint(t *testing.T) {
	g := New("bad").AddTask(Task{ID: 1}).AddEdge(1, 9, 1)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Errorf("Validate = %v, want unknown-task error", err)
	}
}

func TestValidateDetectsSelfLoop(t *testing.T) {
	g := New("loop").AddTask(Task{ID: 1}).AddEdge(1, 1, 1)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Errorf("Validate = %v, want self-loop error", err)
	}
}

func TestValidateDetectsUnreachable(t *testing.T) {
	g := New("island").
		AddTask(Task{ID: 1}).
		AddTask(Task{ID: 2}).
		AddTask(Task{ID: 3}).
		AddEdge(1, 2, 1)
	// Task 3 has no predecessors so it is a source itself; build a real
	// unreachable case instead: 3 -> 4 island... but 3 would be a source.
	// Unreachability therefore requires a node with predecessors whose
	// ancestors are unreachable, which the acyclicity check already excludes.
	// So: any validated DAG has all tasks reachable; just confirm this one
	// validates (3 is a source AND a sink).
	if err := g.Validate(); err != nil {
		t.Errorf("Validate = %v, want nil (task 3 is its own source/sink)", err)
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Error("Validate on empty graph succeeded")
	}
}

func TestAddTaskPanics(t *testing.T) {
	mustPanic(t, "zero ID", func() { New("x").AddTask(Task{ID: 0}) })
	mustPanic(t, "dup ID", func() {
		New("x").AddTask(Task{ID: 1}).AddTask(Task{ID: 1})
	})
	mustPanic(t, "bad width", func() {
		New("x").AddTask(Task{ID: 1}).AddEdge(1, 1, 0)
	})
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestPipelineGraph(t *testing.T) {
	g := Pipeline(4, 40, 20)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Errorf("pipeline sources=%v sinks=%v", g.Sources(), g.Sinks())
	}
	if g.JoinWidth(TaskID(4)) != 1 {
		t.Errorf("pipeline sink JoinWidth = %d", g.JoinWidth(TaskID(4)))
	}
	mustPanic(t, "short pipeline", func() { Pipeline(1, 40, 20) })
}

func TestDiamondGraph(t *testing.T) {
	g := Diamond(40, 20)
	if g.JoinWidth(TaskID(4)) != 2 {
		t.Errorf("diamond sink JoinWidth = %d, want 2", g.JoinWidth(TaskID(4)))
	}
	if got := len(g.Successors(1)); got != 2 {
		t.Errorf("diamond source successors = %d, want 2", got)
	}
}

func TestMaxTaskID(t *testing.T) {
	g := ForkJoin(DefaultForkJoinParams())
	if got := g.MaxTaskID(); got != 3 {
		t.Errorf("MaxTaskID = %d, want 3", got)
	}
}
