package server

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// fastSpec is a small canonical spec that simulates in a few milliseconds.
func fastSpec(t *testing.T, seed uint64) RunSpec {
	t.Helper()
	s := RunSpec{Model: "ffw", Seed: seed, DurationMs: 40, Width: 8, Height: 4}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func waitDone(t *testing.T, e *Engine, j *Job) *RunResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Wait(ctx, j); err != nil {
		t.Fatalf("waiting for job: %v", err)
	}
	snap, result := e.Snapshot(j)
	if snap.State != JobDone {
		t.Fatalf("job state = %s (%s), want done", snap.State, snap.Error)
	}
	return result
}

func TestEngineRunsAndCaches(t *testing.T) {
	e := NewEngine(2, 16, 8)
	defer e.Close()

	spec := fastSpec(t, 3)
	j1, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitDone(t, e, j1)
	if len(r1.Runs) != 1 {
		t.Fatalf("got %d run summaries, want 1", len(r1.Runs))
	}
	if r1.Series == nil || len(r1.Series.Throughput) != 40 {
		t.Fatalf("single run should carry its 40-window series, got %+v", r1.Series)
	}

	// The same spec again: a cache hit, answered without re-simulating.
	j2, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2 := waitDone(t, e, j2)
	snap, _ := e.Snapshot(j2)
	if !snap.CacheHit {
		t.Error("identical spec was not served from the cache")
	}
	if r2 != r1 {
		t.Error("cache returned a different result object")
	}
	if stats := e.Stats(); stats.Cache.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", stats.Cache.Hits)
	}
}

func TestEngineDeterministic(t *testing.T) {
	// Two engines, no shared cache: identical specs must produce identical
	// results by simulation, not by memoization.
	e1 := NewEngine(1, 4, 0)
	defer e1.Close()
	e2 := NewEngine(1, 4, 0)
	defer e2.Close()

	spec := fastSpec(t, 11)
	j1, _ := e1.Submit(spec)
	j2, _ := e2.Submit(spec)
	r1, r2 := waitDone(t, e1, j1), waitDone(t, e2, j2)
	if !reflect.DeepEqual(r1.Runs[0], r2.Runs[0]) {
		t.Errorf("same spec diverged:\n%+v\n%+v", r1.Runs[0], r2.Runs[0])
	}

	// ni-pb is the NI pathway assembled for the PicoBlaze: served on any
	// graph, it must reproduce ni's run bit for bit.
	for _, body := range []string{
		`{"graph": "forkjoin", "seed": 3, "duration_ms": 300, "num_faults": 8, "fault_at_ms": 150}`,
		`{"graph": "pipeline", "seed": 3, "duration_ms": 300, "ni": {"threshold": 30}}`,
		`{"graph": "diamond", "seed": 3, "duration_ms": 300}`,
	} {
		var runs [2]RunSummary
		for i, model := range []string{"ni", "ni-pb"} {
			spec, err := ParseSpec([]byte(`{"model": "` + model + `", ` + body[1:]))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Execute(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = res.Runs[0]
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: ni-pb diverged from ni:\n  ni:    %+v\n  ni-pb: %+v", body, runs[0], runs[1])
		}
	}
}

func TestEngineBatchSeedDerivation(t *testing.T) {
	e := NewEngine(2, 16, 8)
	defer e.Close()

	batch := fastSpec(t, 20)
	batch.Runs = 3
	if err := batch.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	j, err := e.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	r := waitDone(t, e, j)
	if len(r.Runs) != 3 {
		t.Fatalf("got %d summaries, want 3", len(r.Runs))
	}
	if r.Series != nil {
		t.Error("batch result should omit the per-window series")
	}
	if r.Aggregate.Runs != 3 {
		t.Errorf("aggregate over %d runs, want 3", r.Aggregate.Runs)
	}
	for i, run := range r.Runs {
		if want := uint64(20 + i); run.Seed != want {
			t.Errorf("run %d seed = %d, want %d", i, run.Seed, want)
		}
	}

	// Each batch member equals the equivalent standalone run.
	solo := fastSpec(t, 21)
	js, _ := e.Submit(solo)
	rs := waitDone(t, e, js)
	if !reflect.DeepEqual(rs.Runs[0], r.Runs[1]) {
		t.Errorf("batch member (seed 21) != standalone run (seed 21):\n%+v\n%+v", r.Runs[1], rs.Runs[0])
	}

	// Replay for finished jobs mirrors Series: batches carry neither, so
	// a late subscriber sees only the done signal.
	replay, live, cancel := e.Subscribe(j)
	defer cancel()
	for range live {
	}
	if len(replay) != 0 {
		t.Errorf("finished batch replayed %d samples, want 0 (no series retained)", len(replay))
	}
}

func TestEngineRejectsSubmitAfterClose(t *testing.T) {
	e := NewEngine(1, 4, 0)
	e.Close()
	if _, err := e.Submit(fastSpec(t, 70)); err != ErrClosed {
		t.Errorf("Submit after Close: got %v, want ErrClosed", err)
	}
}

func TestEnginePrunesJobHistory(t *testing.T) {
	old := maxJobHistory
	maxJobHistory = 2
	defer func() { maxJobHistory = old }()

	e := NewEngine(1, 8, 8)
	defer e.Close()

	var ids []string
	for seed := uint64(80); seed < 83; seed++ {
		j, err := e.Submit(fastSpec(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, e, j)
		ids = append(ids, j.ID)
	}
	if _, ok := e.Job(ids[0]); ok {
		t.Errorf("oldest terminal job %s survived beyond the history bound", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := e.Job(id); !ok {
			t.Errorf("recent job %s pruned too early", id)
		}
	}

	// Cache-hit traffic churns its own history, not the computed jobs'.
	for i := 0; i < 3; i++ {
		j, err := e.Submit(fastSpec(t, 82))
		if err != nil {
			t.Fatal(err)
		}
		if !j.CacheHit {
			t.Fatalf("repeat submission %d missed the cache", i)
		}
	}
	if _, ok := e.Job(ids[2]); !ok {
		t.Error("cache-hit flood evicted a computed job from history")
	}
}

func TestEngineCoalescesInflightDuplicates(t *testing.T) {
	e := NewEngine(1, 16, 8)
	defer e.Close()

	// Occupy the single worker so subsequent submissions stay queued.
	blocker := fastSpec(t, 30)
	blocker.DurationMs = 2000
	if err := blocker.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	jb, err := e.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}

	spec := fastSpec(t, 31)
	j1, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != j2.ID {
		t.Errorf("identical in-flight specs got distinct jobs %s and %s", j1.ID, j2.ID)
	}
	waitDone(t, e, jb)
	waitDone(t, e, j1)
}

func TestEngineQueueFull(t *testing.T) {
	e := NewEngine(1, 1, 0)
	defer e.Close()

	long := fastSpec(t, 40)
	long.DurationMs = 3000
	if err := long.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(long); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the first job up, then fill the queue.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the first job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Submit(fastSpec(t, 41)); err != nil {
		t.Fatalf("queueing second job: %v", err)
	}
	if _, err := e.Submit(fastSpec(t, 42)); err != ErrQueueFull {
		t.Errorf("third submission: got %v, want ErrQueueFull", err)
	}
}

func TestEngineCancelOnClose(t *testing.T) {
	e := NewEngine(1, 4, 0)
	long := fastSpec(t, 50)
	long.DurationMs = 60000
	if err := long.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	j, err := e.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	// A second job that never leaves the queue must also terminate.
	queued, err := e.Submit(fastSpec(t, 51))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	snap, _ := e.Snapshot(j)
	if snap.State != JobFailed {
		t.Errorf("running job state after Close = %s, want failed", snap.State)
	}
	select {
	case <-queued.done:
	default:
		t.Fatal("queued job left unterminated by Close")
	}
	qsnap, _ := e.Snapshot(queued)
	if qsnap.State != JobFailed {
		t.Errorf("queued job state after Close = %s, want failed", qsnap.State)
	}
}

func TestEngineSubscribeStreamsAllWindows(t *testing.T) {
	e := NewEngine(1, 4, 0)
	defer e.Close()

	spec := fastSpec(t, 60)
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	replay, live, cancel := e.Subscribe(j)
	defer cancel()
	samples := append([]Sample(nil), replay...)
	for s := range live {
		samples = append(samples, s)
	}
	if len(samples) != spec.DurationMs {
		t.Fatalf("streamed %d samples, want %d", len(samples), spec.DurationMs)
	}
	for i, s := range samples {
		if s.TimeMs != float64(i) {
			t.Fatalf("sample %d at %.0f ms, want %d ms", i, s.TimeMs, i)
		}
	}
}
