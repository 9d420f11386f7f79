package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The deterministic chaos property suite (DESIGN.md §16): the seeded chaos
// schedule replays exactly; duplicate delivery completes exactly once;
// checkpoint commits are fenced, idempotent and carried into the next lease;
// expiry runs on the injected monotonic clock only; and a crashed
// coordinator's journal replays every open job without losing or doubling
// one.

// fakeTransport is an always-succeeding inner transport that records the
// delivered call sequence.
type fakeTransport struct {
	mu    sync.Mutex
	calls []string
}

func (f *fakeTransport) Post(ctx context.Context, path string, body, out any) (int, error) {
	f.mu.Lock()
	f.calls = append(f.calls, path)
	f.mu.Unlock()
	return http.StatusOK, nil
}

func (f *fakeTransport) delivered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// mapCkptStore is an in-memory CheckpointStore for coordinator tests.
type mapCkptStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapCkptStore() *mapCkptStore { return &mapCkptStore{m: map[string][]byte{}} }

func (s *mapCkptStore) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok, nil
}

func (s *mapCkptStore) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
	return nil
}

func (s *mapCkptStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

func (s *mapCkptStore) has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	return ok
}

// TestChaosTransportDeterministicSchedule: equal seeds replay the exact same
// failure schedule over the same call sequence; a different seed draws a
// different one.
func TestChaosTransportDeterministicSchedule(t *testing.T) {
	cfg := ChaosConfig{
		Seed:          7,
		DropRate:      0.20,
		ReplyLossRate: 0.15,
		DupRate:       0.15,
		DelayRate:     0.10,
		MaxDelay:      time.Millisecond,
	}
	run := func(cfg ChaosConfig) ([]string, ChaosStats, int) {
		inner := &fakeTransport{}
		tr := NewChaosTransport(inner, cfg)
		var outcomes []string
		for i := 0; i < 300; i++ {
			status, err := tr.Post(context.Background(), fmt.Sprintf("/v1/jobs/%d/x", i%7), nil, nil)
			outcomes = append(outcomes, fmt.Sprintf("%d/%v", status, err))
		}
		return outcomes, tr.Stats(), inner.delivered()
	}
	o1, s1, d1 := run(cfg)
	o2, s2, d2 := run(cfg)
	if s1 != s2 || d1 != d2 {
		t.Fatalf("same seed drew different schedules: %+v (%d delivered) vs %+v (%d)", s1, d1, s2, d2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("call %d outcome diverged under the same seed: %s vs %s", i, o1[i], o2[i])
		}
	}
	if s1.Dropped == 0 || s1.RepliesLost == 0 || s1.Duplicated == 0 || s1.Delayed == 0 {
		t.Fatalf("schedule never exercised some mode: %+v", s1)
	}
	if want := 300 - int(s1.Dropped) + int(s1.Duplicated); d1 != want {
		t.Fatalf("delivered %d calls, want %d (300 - %d dropped + %d duplicated)", d1, want, s1.Dropped, s1.Duplicated)
	}

	other := cfg
	other.Seed = 8
	o3, _, _ := run(other)
	same := true
	for i := range o1 {
		if o1[i] != o3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds replayed an identical 300-call schedule")
	}
}

// TestChaosTransportPartitionHealsAndExemptions: a partition window fails
// every non-exempt call undelivered and heals when it closes.
func TestChaosTransportPartitionHealsAndExemptions(t *testing.T) {
	inner := &fakeTransport{}
	tr := NewChaosTransport(inner, ChaosConfig{
		Partitions: []ChaosWindow{{From: 0, To: 40 * time.Millisecond}},
		Exempt:     []string{"/v1/workers/register"},
	})
	if _, err := tr.Post(context.Background(), "/v1/jobs/1/heartbeat", nil, nil); !errors.Is(err, ErrChaosDropped) {
		t.Fatalf("call inside the partition returned %v, want ErrChaosDropped", err)
	}
	if status, err := tr.Post(context.Background(), "/v1/workers/register", nil, nil); err != nil || status != http.StatusOK {
		t.Fatalf("exempt path was interfered with: %d, %v", status, err)
	}
	time.Sleep(50 * time.Millisecond)
	if status, err := tr.Post(context.Background(), "/v1/jobs/1/heartbeat", nil, nil); err != nil || status != http.StatusOK {
		t.Fatalf("partition never healed: %d, %v", status, err)
	}
	st := tr.Stats()
	if st.Partitioned != 1 || inner.delivered() != 2 {
		t.Fatalf("partition accounting off: %+v, %d delivered", st, inner.delivered())
	}
}

// TestChaosExactlyOnceUnderDuplicateDelivery is the end-to-end exactly-once
// property: a worker whose every RPC may be duplicated or have its reply
// lost (so the worker itself retries applied transitions) still completes
// every job exactly once at the coordinator, and every submitter gets its
// result.
func TestChaosExactlyOnceUnderDuplicateDelivery(t *testing.T) {
	cfg := fastConfig()
	cfg.LeaseTTL = 80 * time.Millisecond
	cfg.MaxAttempts = 10
	c := NewCoordinator(cfg)
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The lease poll is exempt: it is a pull, and duplicating it only
	// grants ghost leases that expire — legal but slow. The property under
	// test is the mutation paths (heartbeat, progress, complete), where a
	// retried or duplicated delivery of an applied transition must be
	// indistinguishable from a single one.
	tr := NewChaosTransport(NewHTTPTransport(ts.URL, nil), ChaosConfig{
		Seed:          11,
		DropRate:      0.05,
		ReplyLossRate: 0.25,
		DupRate:       0.25,
		Exempt:        []string{"/v1/workers/register", "/lease"},
	})
	var executions atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "chaotic",
			Slots:       2,
			Transport:   tr,
			Logf:        t.Logf,
			MaxBackoff:  50 * time.Millisecond,
			ExecuteResumable: func(ctx context.Context, job ResumableJob) ([]byte, string) {
				executions.Add(1)
				// Results cross the wire as json.RawMessage, so they must be
				// valid JSON — exactly like the real sweep-cell executor's.
				return []byte(fmt.Sprintf("%q", "r:"+string(job.Payload))), ""
			},
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().WorkersLive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const jobs = 12
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Execute(context.Background(), fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("p%d", i)), nil)
			if err == nil && string(res) != fmt.Sprintf("%q", fmt.Sprintf("r:p%d", i)) {
				err = fmt.Errorf("job %d returned %q", i, res)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	st := c.Stats()
	if st.Completed != jobs {
		t.Fatalf("completed %d times for %d jobs — exactly-once violated: %+v", st.Completed, jobs, st)
	}
	cs := tr.Stats()
	if cs.Duplicated == 0 || cs.RepliesLost == 0 {
		t.Fatalf("chaos schedule never manufactured duplicates: %+v", cs)
	}
	if executions.Load() < jobs {
		t.Fatalf("executed %d of %d jobs", executions.Load(), jobs)
	}
	cancel()
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
}

// manualClock is an injectable monotonic time source.
type manualClock struct{ now atomic.Int64 }

func (m *manualClock) read() time.Duration     { return time.Duration(m.now.Load()) }
func (m *manualClock) advance(d time.Duration) { m.now.Add(int64(d)) }
func (m *manualClock) set(d time.Duration)     { m.now.Store(int64(d)) }

// TestCheckpointFencingAndResume: commits are fenced on the (job, worker,
// attempt) triple, duplicate and reordered deliveries are idempotent no-ops,
// and a requeued job's next lease carries the newest committed checkpoint —
// while every post from the superseded attempt is rejected, so two attempts
// are never live at once.
func TestCheckpointFencingAndResume(t *testing.T) {
	clk := &manualClock{}
	cfg := fastConfig()
	cfg.Clock = clk.read
	c := NewCoordinator(cfg)
	defer c.Close()
	w1 := registerWorker(t, c, "w1")
	w2 := registerWorker(t, c, "w2")

	resCh, errCh := startExecute(c, "k", []byte("p"))
	l := leaseOne(t, c, w1)
	if l.Attempt != 1 || l.Checkpoint != nil {
		t.Fatalf("fresh lease = %+v", l)
	}

	ckA, ckB, ckC := []byte("ck-a"), []byte("ck-b"), []byte("ck-c")
	if err := c.Checkpoint(l.JobID, w1, 1, 10, ckA); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	// Duplicate and reordered-older deliveries: accepted idempotently,
	// nothing rolls back, nothing is recommitted.
	if err := c.Checkpoint(l.JobID, w1, 1, 10, ckB); err != nil {
		t.Fatalf("duplicate checkpoint: %v", err)
	}
	if err := c.Checkpoint(l.JobID, w1, 1, 5, ckB); err != nil {
		t.Fatalf("reordered older checkpoint: %v", err)
	}
	if got := c.Stats().CheckpointsCommitted; got != 1 {
		t.Fatalf("CheckpointsCommitted = %d after duplicates, want 1", got)
	}
	if err := c.Checkpoint(l.JobID, w1, 1, 20, ckC); err != nil {
		t.Fatalf("newer checkpoint: %v", err)
	}
	// Fencing: wrong attempt, wrong worker.
	if err := c.Checkpoint(l.JobID, w1, 2, 30, ckA); err == nil {
		t.Fatal("checkpoint with a future attempt was accepted")
	}
	if err := c.Checkpoint(l.JobID, w2, 1, 30, ckA); err == nil {
		t.Fatal("checkpoint from a non-holder was accepted")
	}

	// Expire the lease on the injected clock; the requeued job's next lease
	// resumes from the newest committed checkpoint.
	clk.set(cfg.LeaseTTL + time.Millisecond)
	waitRequeue := time.Now().Add(5 * time.Second)
	for c.Stats().Requeued == 0 {
		if time.Now().After(waitRequeue) {
			t.Fatal("lease never expired on the injected clock")
		}
		time.Sleep(5 * time.Millisecond)
	}
	l2 := leaseOne(t, c, w2)
	if l2.Attempt != 2 || string(l2.Checkpoint) != string(ckC) || l2.CheckpointTick != 20 {
		t.Fatalf("resumed lease = attempt %d tick %d ckpt %q", l2.Attempt, l2.CheckpointTick, l2.Checkpoint)
	}
	if got := c.Stats().Resumes; got != 1 {
		t.Fatalf("Resumes = %d, want 1", got)
	}

	// The superseded attempt is fully fenced: no heartbeat, no checkpoint,
	// no completion.
	if err := c.Heartbeat(l.JobID, w1, 1); err == nil {
		t.Fatal("stale attempt heartbeat accepted")
	}
	if err := c.Checkpoint(l.JobID, w1, 1, 40, ckA); err == nil {
		t.Fatal("stale attempt checkpoint accepted")
	}
	if err := c.Complete(l.JobID, w1, 1, []byte("stale result"), ""); err == nil {
		t.Fatal("stale attempt completion accepted")
	}

	if err := c.Complete(l2.JobID, w2, 2, []byte("real result"), ""); err != nil {
		t.Fatalf("live attempt completion: %v", err)
	}
	if res := <-resCh; string(res) != "real result" {
		t.Fatalf("submitter received %q", res)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Completed != 1 || st.StaleRejected < 5 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestMonotonicClockWallStepImmunity: lease expiry is driven only by the
// injected monotonic source. Wall time passing (or stepping) while the
// monotonic clock stands still expires nothing; monotonic progress alone
// does.
func TestMonotonicClockWallStepImmunity(t *testing.T) {
	clk := &manualClock{}
	cfg := fastConfig()
	cfg.Clock = clk.read
	c := NewCoordinator(cfg)
	defer c.Close()
	w := registerWorker(t, c, "w1")
	_, _ = startExecute(c, "k", nil)
	leaseOne(t, c, w)

	// Three lease-TTLs of wall time pass; the monotonic clock is frozen, so
	// nothing may expire — a wall-clock step can never mass-expire leases.
	time.Sleep(3 * cfg.LeaseTTL)
	if st := c.Stats(); st.Expired != 0 || st.Leased != 1 {
		t.Fatalf("frozen monotonic clock still expired leases: %+v", st)
	}

	clk.set(cfg.LeaseTTL + time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("monotonic progress did not expire the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalCrashReplayAndAdoption: after a coordinator crash the journal
// replays every open job — leased jobs keep their holder and attempt,
// pending jobs rejoin the queue — a retrying client adopts its orphan
// instead of double-enqueueing, an unadopted orphan's result flows to the
// OrphanResult sink, and the requeued orphan resumes from the checkpoint
// mirrored in the durable store.
func TestJournalCrashReplayAndAdoption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jrnl")
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ckstore := newMapCkptStore()
	cfg := fastConfig()
	cfg.Journal = jr
	cfg.CheckpointStore = ckstore
	c1 := NewCoordinator(cfg)
	w := registerWorker(t, c1, "w1")

	// Job A: leased, with a committed checkpoint.
	_, errA := startExecute(c1, "ka", []byte("pa"))
	la := leaseOne(t, c1, w)
	if la.Key != "ka" {
		t.Fatalf("leased %q first, want ka", la.Key)
	}
	if err := c1.Checkpoint(la.JobID, w, la.Attempt, 7, []byte("ckpt-a")); err != nil {
		t.Fatal(err)
	}
	// Job B: completed before the crash — it must NOT replay.
	resB, _ := startExecute(c1, "kb", []byte("pb"))
	lb := leaseOne(t, c1, w)
	if err := c1.Complete(lb.JobID, w, lb.Attempt, []byte("rb"), ""); err != nil {
		t.Fatal(err)
	}
	if got := <-resB; string(got) != "rb" {
		t.Fatalf("job B result %q", got)
	}
	// Job C: still pending at the crash.
	_, errC := startExecute(c1, "kc", []byte("pc"))
	waitPending := time.Now().Add(5 * time.Second)
	for c1.Stats().Pending == 0 {
		if time.Now().After(waitPending) {
			t.Fatal("job C never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	c1.CrashForTest()
	if err := <-errA; !errors.Is(err, ErrClosed) {
		t.Fatalf("job A waiter got %v across the crash, want ErrClosed", err)
	}
	if err := <-errC; !errors.Is(err, ErrClosed) {
		t.Fatalf("job C waiter got %v across the crash, want ErrClosed", err)
	}

	// Life two: replay the journal the crash left behind.
	jr2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var orphanMu sync.Mutex
	orphaned := map[string]string{}
	cfg2 := fastConfig()
	// A roomier TTL so the replayed ka lease (held by the dead worker) is
	// still unexpired while the adopted kc round-trips below.
	cfg2.LeaseTTL = 200 * time.Millisecond
	cfg2.Journal = jr2
	cfg2.CheckpointStore = ckstore
	cfg2.OrphanResult = func(key string, result []byte) {
		orphanMu.Lock()
		orphaned[key] = string(result)
		orphanMu.Unlock()
	}
	c2 := NewCoordinator(cfg2)
	defer c2.Close()
	if got := c2.Stats().JournalReplays; got != 2 {
		t.Fatalf("replayed %d jobs, want 2 (ka leased + kc pending)", got)
	}

	// The worker rejoins first — with no live worker registered, the expiry
	// loop's no-worker sweep would fail the adopted job over to local
	// fallback (correct for a real deployment, but not the path under test).
	w2 := registerWorker(t, c2, "rejoined")
	// The retrying client adopts its orphan: no duplicate enqueue, and its
	// waiter attaches to the replayed job.
	resC2, errC2 := startExecute(c2, "kc", []byte("pc"))
	time.Sleep(25 * time.Millisecond) // let the Execute goroutine adopt before leasing

	// kc is the only pending job (ka is still leased to the dead w-1 under a
	// fresh TTL), so the rejoining worker gets it first.
	lc := leaseOne(t, c2, w2)
	if lc.Key != "kc" || lc.Checkpoint != nil {
		t.Fatalf("first post-restart lease = %+v, want fresh kc", lc)
	}
	if err := c2.Complete(lc.JobID, w2, lc.Attempt, []byte("rc"), ""); err != nil {
		t.Fatal(err)
	}
	if got := <-resC2; string(got) != "rc" {
		t.Fatalf("adopted job returned %q to its new waiter", got)
	}
	if err := <-errC2; err != nil {
		t.Fatal(err)
	}

	// ka's replayed lease (held by the dead worker) lapses, requeues, and
	// the next lease resumes from the checkpoint mirrored in the store.
	lk := leaseOne(t, c2, w2)
	if lk.Key != "ka" {
		t.Fatalf("requeued lease is %q, want ka", lk.Key)
	}
	if lk.Attempt != la.Attempt+1 {
		t.Fatalf("replayed lease attempt %d, want %d (fencing must advance)", lk.Attempt, la.Attempt+1)
	}
	// The store persists only the checkpoint bytes (the payload embeds its
	// own position); the tick watermark is in-memory fencing state, so a
	// store-restored lease reports tick 0 — which correctly admits any
	// future commit.
	if string(lk.Checkpoint) != "ckpt-a" {
		t.Fatalf("restored lease carries ckpt %q, want the store-mirrored ckpt-a", lk.Checkpoint)
	}
	if got := c2.Stats().Resumes; got != 1 {
		t.Fatalf("Resumes = %d", got)
	}
	if err := c2.Complete(lk.JobID, w2, lk.Attempt, []byte("ra"), ""); err != nil {
		t.Fatal(err)
	}
	// Unadopted orphan: the result lands in the sink, and the dead
	// checkpoint is deleted from the store.
	orphanMu.Lock()
	got := orphaned["ka"]
	orphanMu.Unlock()
	if got != "ra" {
		t.Fatalf("orphan sink received %q for ka", got)
	}
	waitCkptGone := time.Now().Add(5 * time.Second)
	for ckstore.has("ckpt/ka") {
		if time.Now().After(waitCkptGone) {
			t.Fatal("completed job's checkpoint never left the store")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Life three: everything completed, nothing left to replay.
	c2.Close()
	jr3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	if open := jr3.Pending(); len(open) != 0 {
		t.Fatalf("journal still holds %d open jobs after all completed", len(open))
	}
}

// TestJournalTornTailAndCompaction: a torn tail record (the crash landed
// mid-append) is truncated away without touching committed records, and
// compaction preserves the open set and the ID horizon across reopen.
func TestJournalTornTailAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jrnl")
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := jr.Enqueue(fmt.Sprintf("dj-%d", i), fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Lease("dj-2", "w-9", 3); err != nil {
		t.Fatal(err)
	}
	if err := jr.Complete("dj-3"); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: a partial header lands at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 0, 0, 0, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	jr2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := jr2.Stats(); !st.TruncatedTail {
		t.Fatalf("torn tail not reported: %+v", st)
	}
	open := jr2.Pending()
	if len(open) != 4 {
		t.Fatalf("replayed %d open jobs, want 4", len(open))
	}
	byID := map[string]*JournalJob{}
	for _, j := range open {
		byID[j.ID] = j
	}
	if j := byID["dj-2"]; j == nil || j.WorkerID != "w-9" || j.Attempt != 3 || j.Key != "k2" {
		t.Fatalf("dj-2 replayed as %+v", byID["dj-2"])
	}
	if _, done := byID["dj-3"]; done {
		t.Fatal("completed dj-3 replayed as open")
	}
	if got := jr2.MaxJobID(); got != 5 {
		t.Fatalf("MaxJobID = %d, want 5", got)
	}

	// Compaction rewrites only the open set; a reopen sees the same jobs.
	if err := jr2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	jr3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	open3 := jr3.Pending()
	if len(open3) != len(open) {
		t.Fatalf("compaction changed the open set: %d vs %d", len(open3), len(open))
	}
	for i := range open {
		a, b := open[i], open3[i]
		if a.ID != b.ID || a.Key != b.Key || string(a.Payload) != string(b.Payload) || a.WorkerID != b.WorkerID || a.Attempt != b.Attempt {
			t.Fatalf("open job %d diverged across compaction: %+v vs %+v", i, a, b)
		}
	}
	if got := jr3.MaxJobID(); got != 5 {
		t.Fatalf("MaxJobID after compaction = %d, want 5", got)
	}
}
