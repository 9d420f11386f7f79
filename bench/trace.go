package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the span that caused this one (0 = none), and is set
// only where causality guarantees the child ends before the parent does.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	// StartNs and EndNs are nanoseconds since the tracer was created.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// opRef names the client-side span of the operation that owns a canonical
// spec key, so spans recorded on other goroutines (store writes, dispatch
// RPCs) can be attached to it.
type opRef struct {
	op   string
	span int
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil *tracer records nothing, which is how untraced runs stay free
// of tracing cost. Recording is switched on for the timed phase only, so
// set-up traffic does not pollute the per-layer figures.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	byKey map[string]opRef
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byKey: make(map[string]opRef)}
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin; id 0 is ignored.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// own records that the operation's client span owns the spec key.
func (t *tracer) own(key, op string, spanID int) {
	if t == nil || spanID == 0 {
		return
	}
	t.mu.Lock()
	t.byKey[key] = opRef{op, spanID}
	t.mu.Unlock()
}

// owner looks up the operation that owns a spec key.
func (t *tracer) owner(key string) opRef {
	if t == nil {
		return opRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key]
}

// durations returns the length in seconds of every closed span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.EndNs >= s.StartNs && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkNesting verifies the trace's structural contract: every span is
// closed, and a span with a parent lies inside the parent's interval and
// belongs to the same operation.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) names unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) op %q differs from parent %d (%s) op %q", s.ID, s.Name, s.Op, p.ID, p.Name, p.Op)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
	}
	return nil
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	PerLayer map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func writeTraceFile(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
