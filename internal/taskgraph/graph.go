// Package taskgraph models the application task graphs that the Centurion
// platform schedules across its many-core fabric, along with the static task
// mappers used as baselines by the paper's experiments.
//
// The central instance is the fork–join graph of the paper's Figure 3: a
// source task (task 1) fans out to three parallel workers (task 2) whose
// results join at a sink (task 3), i.e. a 1:3:1 ratio. The graph model is
// deliberately general — arbitrary DAGs with per-edge fan-out — so the same
// machinery supports the additional workloads exercised by the examples.
package taskgraph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// TaskID identifies a task class within a graph. Task IDs are small positive
// integers; 0 means "no task" (an idle node).
type TaskID int

// None is the TaskID of an idle node.
const None TaskID = 0

// Edge is a directed dependency between two task classes. Width is the
// fan-out: how many packets a single completed unit of From produces for To.
type Edge struct {
	From, To TaskID
	Width    int
}

// Task describes one task class in a graph.
type Task struct {
	ID TaskID
	// Name is a human-readable label used by traces and table renderers.
	Name string
	// Ratio is the relative share of nodes the paper's heuristic mapping
	// assigns to this task (the fork–join graph uses 1:3:1).
	Ratio int
	// ProcTicks is the processing latency of one packet of this task on a
	// processing element running at full frequency.
	ProcTicks int
	// GenPeriod is non-zero only for source tasks: the tick interval between
	// generated work items (the paper's task 1 emits 1 packet every 4 ms).
	GenPeriod int
}

// Graph is a directed acyclic task graph.
type Graph struct {
	Name  string
	tasks map[TaskID]*Task
	edges []Edge
	order []TaskID // topological order, computed by Validate

	// memo caches the derived adjacency and classification queries that sit
	// on the simulator's per-packet hot paths (Successors on every emission,
	// JoinWidth on every join arrival). It is built lazily on first use,
	// invalidated by AddTask/AddEdge, and swapped atomically so independent
	// runs sharing one immutable graph (experiments.RunMany) stay race-free.
	memo atomic.Pointer[graphMemo]
}

// graphMemo holds the precomputed query results, indexed densely by TaskID.
type graphMemo struct {
	succ     [][]Edge // outgoing edges sorted by destination
	pred     [][]Edge // incoming edges sorted by source
	isSource []bool
	isSink   []bool
	joinW    []int // packets of one instance a join waits for (min 1)
	arrivals []int // raw per-instance arrival counts
	ids      []TaskID
	byID     []*Task // dense TaskID → *Task (nil for unregistered IDs)
	sources  []TaskID
	sinks    []TaskID
}

// memoized returns the derived-query cache, building it on first use.
func (g *Graph) memoized() *graphMemo {
	if m := g.memo.Load(); m != nil {
		return m
	}
	n := int(g.MaxTaskID()) + 1
	for _, e := range g.edges {
		// Size for unvalidated graphs whose edges mention unregistered IDs;
		// Validate rejects them, but the accessors must not panic first.
		if int(e.From) >= n {
			n = int(e.From) + 1
		}
		if int(e.To) >= n {
			n = int(e.To) + 1
		}
	}
	m := &graphMemo{
		succ:     make([][]Edge, n),
		pred:     make([][]Edge, n),
		isSource: make([]bool, n),
		isSink:   make([]bool, n),
		joinW:    make([]int, n),
		arrivals: make([]int, n),
	}
	for _, e := range g.edges {
		m.succ[e.From] = append(m.succ[e.From], e)
		m.pred[e.To] = append(m.pred[e.To], e)
	}
	for id := range m.succ {
		sort.Slice(m.succ[id], func(i, j int) bool { return m.succ[id][i].To < m.succ[id][j].To })
		sort.Slice(m.pred[id], func(i, j int) bool { return m.pred[id][i].From < m.pred[id][j].From })
	}
	m.byID = make([]*Task, n)
	for id, t := range g.tasks {
		m.ids = append(m.ids, id)
		if uint(int(id)) < uint(n) {
			m.byID[id] = t
		}
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	for _, id := range m.ids {
		m.isSource[id] = len(m.pred[id]) == 0
		m.isSink[id] = len(m.succ[id]) == 0
		if m.isSource[id] {
			m.sources = append(m.sources, id)
		}
		if m.isSink[id] {
			m.sinks = append(m.sinks, id)
		}
	}
	// Per-instance arrivals, propagated in topological order (Kahn over the
	// memoized adjacency; cycles leave arrivals at zero, matching the
	// pre-memo behaviour of an unvalidated graph only approximately — every
	// platform workload passes Validate first).
	indeg := make([]int, n)
	for _, id := range m.ids {
		indeg[id] = len(m.pred[id])
	}
	queue := append([]TaskID(nil), m.sources...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if m.isSource[id] {
			m.arrivals[id] = 1
		} else {
			total := 0
			for _, e := range m.pred[id] {
				total += m.arrivals[e.From] * e.Width
			}
			m.arrivals[id] = total
		}
		for _, e := range m.succ[id] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	for _, id := range m.ids {
		m.joinW[id] = m.arrivals[id]
		if m.joinW[id] <= 0 {
			m.joinW[id] = 1
		}
	}
	g.memo.Store(m)
	return m
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, tasks: make(map[TaskID]*Task)}
}

// AddTask registers a task class. It panics if the ID is zero or duplicated;
// graph construction errors are programming errors, not runtime conditions.
func (g *Graph) AddTask(t Task) *Graph {
	if t.ID == None {
		panic("taskgraph: task ID 0 is reserved for idle nodes")
	}
	if _, dup := g.tasks[t.ID]; dup {
		panic(fmt.Sprintf("taskgraph: duplicate task %d", t.ID))
	}
	if t.Ratio <= 0 {
		t.Ratio = 1
	}
	tt := t
	g.tasks[t.ID] = &tt
	g.memo.Store(nil)
	return g
}

// AddEdge registers a dependency edge with the given fan-out width.
func (g *Graph) AddEdge(from, to TaskID, width int) *Graph {
	if width <= 0 {
		panic("taskgraph: edge width must be positive")
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Width: width})
	g.memo.Store(nil)
	return g
}

// Task returns the task with the given ID, or nil when absent.
func (g *Graph) Task(id TaskID) *Task {
	// Dense memoized lookup: Task sits on the simulator's per-tick paths
	// (every generation and processing decision), where the map probe was
	// measurable.
	if m := g.memoized(); uint(int(id)) < uint(len(m.byID)) {
		return m.byID[id]
	}
	return nil
}

// Tasks returns all task classes sorted by ID.
func (g *Graph) Tasks() []*Task {
	out := make([]*Task, 0, len(g.tasks))
	for _, t := range g.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TaskIDs returns all task IDs sorted ascending. The slice is memoized —
// callers must not modify it.
func (g *Graph) TaskIDs() []TaskID { return g.memoized().ids }

// MaxTaskID returns the largest registered task ID (0 for an empty graph).
// Engines size their per-task thresholder arrays from it.
func (g *Graph) MaxTaskID() TaskID {
	var maxID TaskID
	for id := range g.tasks {
		if id > maxID {
			maxID = id
		}
	}
	return maxID
}

// Successors returns the outgoing edges of a task, sorted by destination.
// The slice is memoized — callers must not modify it.
func (g *Graph) Successors(id TaskID) []Edge {
	m := g.memoized()
	if int(id) >= len(m.succ) || id < 0 {
		return nil
	}
	return m.succ[id]
}

// InWidth returns the total fan-in edge width of a task (the sum of the
// widths of its incoming edges).
func (g *Graph) InWidth(id TaskID) int {
	w := 0
	for _, e := range g.edges {
		if e.To == id {
			w += e.Width
		}
	}
	return w
}

// JoinWidth returns the number of packets of one instance that must arrive
// at task id before its join completes (1 for non-join tasks).
func (g *Graph) JoinWidth(id TaskID) int {
	m := g.memoized()
	if int(id) >= len(m.joinW) || id < 0 {
		return 1
	}
	return m.joinW[id]
}

// IsSource reports whether the task has no predecessors (it generates work
// spontaneously). In the paper's fork–join graph task 1 is the only source.
func (g *Graph) IsSource(id TaskID) bool {
	m := g.memoized()
	if int(id) >= len(m.isSource) || id < 0 {
		return false
	}
	return m.isSource[id]
}

// IsSink reports whether the task has no successors (its completions are the
// application's throughput events — task 3 in the fork–join graph).
func (g *Graph) IsSink(id TaskID) bool {
	m := g.memoized()
	if int(id) >= len(m.isSink) || id < 0 {
		return false
	}
	return m.isSink[id]
}

// Sources returns all source task IDs sorted ascending. The slice is
// memoized — callers must not modify it.
func (g *Graph) Sources() []TaskID { return g.memoized().sources }

// Sinks returns all sink task IDs sorted ascending. The slice is memoized —
// callers must not modify it.
func (g *Graph) Sinks() []TaskID { return g.memoized().sinks }

// Validate checks the structural invariants the platform depends on:
// every edge endpoint exists, the graph is acyclic, there is at least one
// source and one sink, and every task is reachable from a source. On success
// it caches a topological order.
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return fmt.Errorf("taskgraph %q: no tasks", g.Name)
	}
	for _, e := range g.edges {
		if _, ok := g.tasks[e.From]; !ok {
			return fmt.Errorf("taskgraph %q: edge from unknown task %d", g.Name, e.From)
		}
		if _, ok := g.tasks[e.To]; !ok {
			return fmt.Errorf("taskgraph %q: edge to unknown task %d", g.Name, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("taskgraph %q: self-loop on task %d", g.Name, e.From)
		}
	}
	order, err := g.topoSort()
	if err != nil {
		return fmt.Errorf("taskgraph %q: %w", g.Name, err)
	}
	g.order = order
	if len(g.Sources()) == 0 {
		return fmt.Errorf("taskgraph %q: no source task", g.Name)
	}
	if len(g.Sinks()) == 0 {
		return fmt.Errorf("taskgraph %q: no sink task", g.Name)
	}
	// Reachability from sources.
	reach := make(map[TaskID]bool)
	var stack []TaskID
	for _, s := range g.Sources() {
		reach[s] = true
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Successors(id) {
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for id := range g.tasks {
		if !reach[id] {
			return fmt.Errorf("taskgraph %q: task %d unreachable from any source", g.Name, id)
		}
	}
	return nil
}

// TopoOrder returns the task IDs in a topological order. Validate must have
// succeeded first; otherwise TopoOrder computes the order on the fly and
// panics on cyclic graphs.
func (g *Graph) TopoOrder() []TaskID {
	if g.order != nil {
		out := make([]TaskID, len(g.order))
		copy(out, g.order)
		return out
	}
	order, err := g.topoSort()
	if err != nil {
		panic(err)
	}
	return order
}

func (g *Graph) topoSort() ([]TaskID, error) {
	indeg := make(map[TaskID]int, len(g.tasks))
	for id := range g.tasks {
		indeg[id] = 0
	}
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var ready []TaskID
	for _, id := range g.TaskIDs() {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var order []TaskID
	for len(ready) > 0 {
		// Pop the smallest ID for determinism.
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, e := range g.Successors(id) {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("cycle detected (%d of %d tasks ordered)", len(order), len(g.tasks))
	}
	return order, nil
}

// String summarises the graph for traces.
func (g *Graph) String() string {
	return fmt.Sprintf("taskgraph %q: %d tasks, %d edges", g.Name, len(g.tasks), len(g.edges))
}
