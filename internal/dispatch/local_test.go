package dispatch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// The coordinator's in-process slots (RunLocal): built-in executors on the
// same queue as remote workers, leasing only while no remote worker is live.

// echoSlots starts n slots whose executor returns "ran:"+payload and counts
// its runs.
func echoSlots(c *Coordinator, n int) *atomic.Int64 {
	var runs atomic.Int64
	c.RunLocal(n, func(_ context.Context, job ResumableJob) ([]byte, string) {
		runs.Add(1)
		return []byte("ran:" + string(job.Payload)), ""
	})
	return &runs
}

// stillPending asserts the queue holds want jobs and no slot ran any, after
// giving the slots time to (wrongly) take them.
func stillPending(t *testing.T, c *Coordinator, runs *atomic.Int64, want int) {
	t.Helper()
	time.Sleep(30 * time.Millisecond)
	if st := c.Stats(); st.Pending != want || runs.Load() != 0 {
		t.Fatalf("with a live remote worker: pending %d, slot runs %d; want %d pending, none run", st.Pending, runs.Load(), want)
	}
}

func TestSlotsDeferToLiveRemoteWorker(t *testing.T) {
	clk := &manualClock{}
	cfg := fastConfig()
	cfg.Clock = clk.read
	c := NewCoordinator(cfg)
	defer c.Close()
	w := registerWorker(t, c, "remote")
	runs := echoSlots(c, 2)

	// A live remote worker takes the queue; the slots leave it alone.
	resCh, errCh := startExecute(c, "k1", []byte("p1"))
	stillPending(t, c, runs, 1)
	l := leaseOne(t, c, w)
	if err := c.Complete(l.JobID, w, l.Attempt, []byte("remote"), ""); err != nil {
		t.Fatal(err)
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res) != "remote" {
		t.Fatalf("remote job returned %q, %v", res, err)
	}

	// The last remote worker deregisters: the slots take what is pending.
	resCh, errCh = startExecute(c, "k2", []byte("p2"))
	stillPending(t, c, runs, 1)
	c.Deregister(w)
	if res, err := <-resCh, <-errCh; err != nil || string(res) != "ran:p2" {
		t.Fatalf("after deregistration: %q, %v; want the slot's result", res, err)
	}

	// A worker registers and falls silent: the slots wait out its liveness
	// window, then the lease clock hands them the queue.
	registerWorker(t, c, "ghost")
	resCh, errCh = startExecute(c, "k3", []byte("p3"))
	time.Sleep(30 * time.Millisecond)
	if st := c.Stats(); st.Pending != 1 {
		t.Fatalf("slots took a job while a remote worker was live: %+v", st)
	}
	clk.advance(c.livenessWindow() + time.Millisecond)
	select {
	case res := <-resCh:
		if err := <-errCh; err != nil || string(res) != "ran:p3" {
			t.Fatalf("after the liveness lapse: %q, %v; want the slot's result", res, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slots never took the queue after the remote worker's liveness lapsed")
	}
	if st := c.Stats(); st.Completed != 3 || st.Failed != 0 || runs.Load() != 2 {
		t.Fatalf("stats %+v, slot runs %d; want 3 completions, 2 of them in-process", st, runs.Load())
	}
}

func TestSlotsAreNotRegistryEntries(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Close()
	started, release := make(chan struct{}), make(chan struct{})
	c.RunLocal(3, func(ctx context.Context, _ ResumableJob) ([]byte, string) {
		started <- struct{}{}
		<-release
		return []byte("ok"), ""
	})
	// A coordinator with slots queues without any live worker.
	_, errCh := startExecute(c, "k", nil)
	<-started
	if st := c.Stats(); st.WorkersRegistered != 0 || st.WorkersLive != 0 || st.Leased != 1 {
		t.Fatalf("while a slot runs a job: %+v; want no workers and one lease", st)
	}
	registerWorker(t, c, "remote")
	if st := c.Stats(); st.WorkersRegistered != 1 || st.WorkersLive != 1 {
		t.Fatalf("with one remote worker: %+v; want exactly it counted", st)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestCloseCancelsInProcessJob(t *testing.T) {
	c := NewCoordinator(fastConfig())
	started := make(chan struct{})
	var exited atomic.Bool
	c.RunLocal(2, func(ctx context.Context, _ ResumableJob) ([]byte, string) {
		close(started)
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond) // a slot slow to wind down
		exited.Store(true)
		return nil, "cancelled"
	})
	_, errCh := startExecute(c, "long", nil)
	<-started
	c.Close()
	if !exited.Load() {
		t.Fatal("Close returned before the cancelled in-process job's slot exited")
	}
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter returned %v, want ErrClosed", err)
	}
	if st := c.Stats(); st.Leased != 0 || st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats after Close = %+v; want the job failed once, not completed", st)
	}
}
