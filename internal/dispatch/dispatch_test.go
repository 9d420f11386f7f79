package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastConfig is a millisecond-scale lease clock so expiry paths run in
// test time.
func fastConfig() Config {
	return Config{
		LeaseTTL:    60 * time.Millisecond,
		PollWait:    50 * time.Millisecond,
		MaxAttempts: 3,
	}
}

// registerWorker registers a test worker and fails the test on error.
func registerWorker(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	id, _, _, err := c.Register(name, 4)
	if err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
	return id
}

// startExecute submits a job from a background goroutine and returns the
// channels its outcome lands on.
func startExecute(c *Coordinator, key string, payload []byte) (<-chan []byte, <-chan error) {
	resCh := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := c.Execute(context.Background(), key, payload, nil)
		resCh <- res
		errCh <- err
	}()
	return resCh, errCh
}

// leaseOne long-polls until a lease arrives or the deadline passes.
func leaseOne(t *testing.T, c *Coordinator, workerID string) Lease {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		l, ok, err := c.Lease(context.Background(), workerID, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if ok {
			return l
		}
	}
	t.Fatal("no lease arrived within 2s")
	return Lease{}
}

func TestExecuteNoWorkersFailsFast(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Close()
	start := time.Now()
	_, err := c.Execute(context.Background(), "k", nil, nil)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("ErrNoWorkers was not fast")
	}
}

func TestLeaseCompleteRoundTrip(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Close()
	w := registerWorker(t, c, "w1")

	resCh, errCh := startExecute(c, "key-1", []byte("payload-1"))
	l := leaseOne(t, c, w)
	if l.Key != "key-1" || string(l.Payload) != "payload-1" || l.Attempt != 1 {
		t.Fatalf("lease = %+v", l)
	}
	if err := c.Complete(l.JobID, w, l.Attempt, []byte("result-1"), ""); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if res := <-resCh; string(res) != "result-1" {
		t.Fatalf("result = %q", res)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Execute err = %v", err)
	}
	st := c.Stats()
	if st.Completed != 1 || st.LeasesGranted != 1 || st.Requeued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHeartbeatKeepsLeaseAlivePastTTL is the satellite edge case: a worker
// that heartbeats holds its lease across many TTLs.
func TestHeartbeatKeepsLeaseAlivePastTTL(t *testing.T) {
	cfg := fastConfig()
	c := NewCoordinator(cfg)
	defer c.Close()
	w := registerWorker(t, c, "w1")

	resCh, errCh := startExecute(c, "key-hb", nil)
	l := leaseOne(t, c, w)

	// Hold the lease for 5 TTLs, heartbeating at TTL/3.
	deadline := time.Now().Add(5 * cfg.LeaseTTL)
	for time.Now().Before(deadline) {
		if err := c.Heartbeat(l.JobID, w, l.Attempt); err != nil {
			t.Fatalf("heartbeat rejected while lease should be alive: %v", err)
		}
		time.Sleep(cfg.LeaseTTL / 3)
	}
	if st := c.Stats(); st.Expired != 0 || st.Requeued != 0 {
		t.Fatalf("lease expired despite heartbeats: %+v", st)
	}
	if err := c.Complete(l.JobID, w, l.Attempt, []byte("late-but-alive"), ""); err != nil {
		t.Fatalf("Complete after long heartbeat run: %v", err)
	}
	if res := <-resCh; string(res) != "late-but-alive" {
		t.Fatalf("result = %q", res)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerDeathRequeuesExactlyOnce is the satellite edge case: a worker
// that leases and dies silently loses the job to exactly one requeue, and
// the next worker's completion wins.
func TestWorkerDeathRequeuesExactlyOnce(t *testing.T) {
	cfg := fastConfig()
	c := NewCoordinator(cfg)
	defer c.Close()
	dead := registerWorker(t, c, "doomed")
	alive := registerWorker(t, c, "survivor")

	resCh, errCh := startExecute(c, "key-death", nil)
	l1 := leaseOne(t, c, dead)
	// The doomed worker never heartbeats again: its lease must expire and
	// the job requeue exactly once.
	l2 := leaseOne(t, c, alive)
	if l2.JobID != l1.JobID {
		t.Fatalf("requeued lease is a different job: %s vs %s", l2.JobID, l1.JobID)
	}
	if l2.Attempt != 2 {
		t.Fatalf("attempt after one death = %d, want 2", l2.Attempt)
	}
	if err := c.Complete(l2.JobID, alive, l2.Attempt, []byte("second-try"), ""); err != nil {
		t.Fatalf("survivor's Complete: %v", err)
	}
	if res := <-resCh; string(res) != "second-try" {
		t.Fatalf("result = %q", res)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Requeued != 1 || st.Expired != 1 {
		t.Fatalf("requeue counters = %+v, want exactly one requeue", st)
	}
}

// TestDuplicateCompleteAfterExpiryRejected is the satellite edge case: a
// worker that lost its lease cannot complete the job — neither while the
// job waits for a new lease nor after someone else took it.
func TestDuplicateCompleteAfterExpiryRejected(t *testing.T) {
	cfg := fastConfig()
	c := NewCoordinator(cfg)
	defer c.Close()
	zombie := registerWorker(t, c, "zombie")
	alive := registerWorker(t, c, "alive")

	resCh, errCh := startExecute(c, "key-dup", nil)
	l1 := leaseOne(t, c, zombie)

	// Wait for the lease to expire and the job to requeue.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Requeued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Expired but not yet re-leased: the zombie's completion must be
	// rejected (the lease is gone, the work belongs to the queue).
	if err := c.Complete(l1.JobID, zombie, l1.Attempt, []byte("zombie-result"), ""); err == nil {
		t.Fatal("zombie Complete accepted while job was requeued-pending")
	}
	l2 := leaseOne(t, c, alive)
	if err := c.Complete(l2.JobID, alive, l2.Attempt, []byte("fresh"), ""); err != nil {
		t.Fatalf("fresh Complete: %v", err)
	}
	// After the fact the zombie tries again: the job is finished and gone.
	if err := c.Complete(l1.JobID, zombie, l1.Attempt, []byte("zombie-late"), ""); err == nil {
		t.Fatal("zombie Complete accepted after the job finished")
	}
	if res := <-resCh; string(res) != "fresh" {
		t.Fatalf("delivered result = %q, want the live worker's", res)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.StaleRejected < 2 {
		t.Fatalf("stale rejections = %d, want >= 2", st.StaleRejected)
	}
}

// TestHeartbeatAfterExpiryRejected: a lost lease also rejects heartbeats,
// which is how a partitioned worker learns to abandon the job.
func TestHeartbeatAfterExpiryRejected(t *testing.T) {
	cfg := fastConfig()
	c := NewCoordinator(cfg)
	defer c.Close()
	w := registerWorker(t, c, "w1")
	registerWorker(t, c, "w2") // keeps the queue "serviceable" so the job requeues

	_, errCh := startExecute(c, "key-hb-exp", nil)
	l := leaseOne(t, c, w)
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Requeued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Heartbeat(l.JobID, w, l.Attempt); err == nil {
		t.Fatal("heartbeat accepted after expiry")
	}
	c.Close() // fail the requeued job so the waiter exits
	<-errCh
}

// TestAttemptCapExhaustsToError: a job whose every lease dies stops being
// retried after MaxAttempts and fails with ErrAttemptsExhausted.
func TestAttemptCapExhaustsToError(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxAttempts = 2
	c := NewCoordinator(cfg)
	defer c.Close()
	w := registerWorker(t, c, "unlucky")

	_, errCh := startExecute(c, "key-cap", nil)
	for i := 0; i < cfg.MaxAttempts; i++ {
		l := leaseOne(t, c, w)
		if l.Attempt != i+1 {
			t.Fatalf("attempt %d on lease %d", l.Attempt, i+1)
		}
		// Never heartbeat, never complete: let it expire.
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrAttemptsExhausted) {
			t.Fatalf("err = %v, want ErrAttemptsExhausted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job never failed after exhausting attempts")
	}
}

// TestPendingJobsFailWhenAllWorkersVanish: jobs stuck pending with no live
// worker fail with ErrNoWorkers instead of stranding their waiters.
func TestPendingJobsFailWhenAllWorkersVanish(t *testing.T) {
	cfg := Config{LeaseTTL: 30 * time.Millisecond, PollWait: 10 * time.Millisecond, MaxAttempts: 3}
	c := NewCoordinator(cfg)
	defer c.Close()
	registerWorker(t, c, "ghost") // registers, then never polls again

	_, errCh := startExecute(c, "key-vanish", nil)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("err = %v, want ErrNoWorkers", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending job not failed after the worker went silent")
	}
}

// TestRemoteErrorPropagates: a worker-reported execution failure reaches
// the waiter as RemoteError (and is not retried).
func TestRemoteErrorPropagates(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Close()
	w := registerWorker(t, c, "w1")
	_, errCh := startExecute(c, "key-err", nil)
	l := leaseOne(t, c, w)
	if err := c.Complete(l.JobID, w, l.Attempt, nil, "spec exploded"); err != nil {
		t.Fatal(err)
	}
	err := <-errCh
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "spec exploded" {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if st := c.Stats(); st.Failed != 1 {
		t.Fatalf("failed = %d", st.Failed)
	}
}

// TestLongPollWakesOnSubmit: an idle long-poll returns promptly once work
// arrives, well before its wait budget.
func TestLongPollWakesOnSubmit(t *testing.T) {
	cfg := fastConfig()
	cfg.PollWait = 2 * time.Second
	c := NewCoordinator(cfg)
	defer c.Close()
	w := registerWorker(t, c, "w1")

	leaseCh := make(chan Lease, 1)
	go func() {
		l, ok, err := c.Lease(context.Background(), w, 2*time.Second)
		if err == nil && ok {
			leaseCh <- l
		}
	}()
	time.Sleep(30 * time.Millisecond) // let the poll park
	start := time.Now()
	_, _ = startExecute(c, "key-wake", nil)
	select {
	case <-leaseCh:
		if d := time.Since(start); d > time.Second {
			t.Fatalf("long-poll took %s to wake", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long-poll never woke")
	}
	c.Close()
}

// TestWorkerHTTPEndToEnd drives the real wire path: RunWorker against the
// coordinator's HTTP routes, with progress forwarding and a graceful drain.
func TestWorkerHTTPEndToEnd(t *testing.T) {
	cfg := fastConfig()
	c := NewCoordinator(cfg)
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var executed atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "e2e",
			Slots:       2,
			ExecuteResumable: func(ctx context.Context, job ResumableJob) ([]byte, string) {
				executed.Add(1)
				job.Progress([]byte(fmt.Sprintf(`["progress for %s"]`, job.Key)))
				return []byte(`{"echo":"` + string(job.Payload) + `"}`), ""
			},
		})
	}()

	// Wait for the worker's registration to land before submitting, since
	// Execute fast-fails when no live worker is known.
	regDeadline := time.Now().Add(5 * time.Second)
	for c.Stats().WorkersLive == 0 {
		if time.Now().After(regDeadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var progressed atomic.Int64
	for i := 0; i < 8; i++ {
		res, err := c.Execute(context.Background(), fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("p%d", i)),
			func(b []byte) { progressed.Add(1) })
		if err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
		want := fmt.Sprintf(`{"echo":"p%d"}`, i)
		if string(res) != want {
			t.Fatalf("result %d = %s, want %s", i, res, want)
		}
	}
	if executed.Load() != 8 {
		t.Fatalf("executed = %d", executed.Load())
	}
	if progressed.Load() != 8 {
		t.Fatalf("progress posts = %d", progressed.Load())
	}

	cancel() // graceful drain: no in-flight jobs, worker exits promptly
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("RunWorker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not drain")
	}
	// The drained worker deregistered itself, so on this slot-less
	// coordinator new submissions fail fast with ErrNoWorkers instead of
	// waiting out its liveness window.
	if c.Stats().WorkersLive != 0 {
		t.Fatalf("worker still live after graceful drain: %+v", c.Stats())
	}
	if _, err := c.Execute(context.Background(), "post-drain", nil, nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("post-drain Execute err = %v, want ErrNoWorkers", err)
	}
}
