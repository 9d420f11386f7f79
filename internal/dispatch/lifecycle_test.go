package dispatch

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"centurion/internal/store"
)

// lifecycleRig is one coordinator life under a manual clock, with a journal,
// an in-memory checkpoint store and one registered 1-slot worker.
type lifecycleRig struct {
	c   *Coordinator
	clk *manualClock
	jr  *Journal
	ck  *store.MemStore
	w   string
}

// newLifecycleRig starts a coordinator life over the journal at path (opened
// or created) and checkpoint store ck, on clock clk.
func newLifecycleRig(t *testing.T, path string, ck *store.MemStore, clk *manualClock) *lifecycleRig {
	t.Helper()
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.MaxAttempts = 2
	cfg.Clock = clk.read
	cfg.Journal = jr
	cfg.CheckpointStore = ck
	r := &lifecycleRig{c: NewCoordinator(cfg), clk: clk, jr: jr, ck: ck}
	id, _, _, err := r.c.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	r.w = id
	return r
}

// expire moves the clock by d and runs the lease clock's scan.
func (r *lifecycleRig) expire(d time.Duration) {
	r.clk.advance(d)
	r.c.expireOverdue(r.clk.read())
}

// leaseAndCommit leases the next job to the rig's worker and commits one
// checkpoint for it.
func (r *lifecycleRig) leaseAndCommit(t *testing.T, wantKey string) Lease {
	t.Helper()
	l := leaseOne(t, r.c, r.w)
	if l.Key != wantKey {
		t.Fatalf("leased %q, want %q", l.Key, wantKey)
	}
	if err := r.c.Checkpoint(l.JobID, r.w, l.Attempt, int64(l.Attempt), []byte("ckpt-"+wantKey)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !r.hasCheckpoint(wantKey) {
		t.Fatalf("checkpoint of %q never reached the store", wantKey)
	}
	return l
}

func (r *lifecycleRig) hasCheckpoint(key string) bool {
	_, ok, _ := r.ck.Get(ckptKeyPrefix + key)
	return ok
}

// journaled reports whether the journal still holds jobID open.
func journaled(jr *Journal, jobID string) bool {
	for _, jj := range jr.Pending() {
		if jj.ID == jobID {
			return true
		}
	}
	return false
}

// waiterResult is what one Execute returned.
type waiterResult struct {
	res []byte
	err error
}

// startWaiter submits key under ctx; the channel has room for a second
// (wrong) return so a double release would be seen, not block.
func startWaiter(c *Coordinator, ctx context.Context, key string) <-chan waiterResult {
	ch := make(chan waiterResult, 2)
	go func() {
		res, err := c.Execute(ctx, key, []byte("payload-"+key), nil)
		ch <- waiterResult{res, err}
	}()
	return ch
}

func awaitWaiter(t *testing.T, ch <-chan waiterResult) waiterResult {
	t.Helper()
	select {
	case wr := <-ch:
		return wr
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never returned")
		return waiterResult{}
	}
}

// TestLeaseLifecycle drives a job to every way it can end and checks each
// end leaves the same clean state behind: the job's waiter returned once
// with the expected error, the stats count exactly one end and no lease,
// the job's checkpoint record is gone from the store, its journal record is
// closed, and the 1-slot worker that held it leases a fresh job next.
// Every job starts leased with one committed checkpoint.
func TestLeaseLifecycle(t *testing.T) {
	var remote *RemoteError
	rows := []struct {
		name string
		// end drives the leased job l to its end; cancel withdraws its
		// waiter.
		end  func(t *testing.T, r *lifecycleRig, l Lease, cancel context.CancelFunc)
		want func(waiterResult) bool
	}{
		{
			name: "complete",
			end: func(t *testing.T, r *lifecycleRig, l Lease, _ context.CancelFunc) {
				if err := r.c.Complete(l.JobID, r.w, l.Attempt, []byte("result"), ""); err != nil {
					t.Fatalf("Complete: %v", err)
				}
			},
			want: func(wr waiterResult) bool { return wr.err == nil && string(wr.res) == "result" },
		},
		{
			name: "complete with an execution error",
			end: func(t *testing.T, r *lifecycleRig, l Lease, _ context.CancelFunc) {
				if err := r.c.Complete(l.JobID, r.w, l.Attempt, nil, "boom"); err != nil {
					t.Fatalf("Complete: %v", err)
				}
			},
			want: func(wr waiterResult) bool { return errors.As(wr.err, &remote) && remote.Msg == "boom" },
		},
		{
			name: "waiter gone while pending",
			end: func(t *testing.T, r *lifecycleRig, l Lease, cancel context.CancelFunc) {
				r.expire(r.c.cfg.LeaseTTL + time.Millisecond) // requeued, checkpoint kept
				if st := r.c.Stats(); st.Pending != 1 || st.Requeued != 1 {
					t.Fatalf("after expiry: %+v, want the job requeued", st)
				}
				cancel()
			},
			want: func(wr waiterResult) bool { return errors.Is(wr.err, context.Canceled) },
		},
		{
			name: "waiter gone while leased",
			end: func(t *testing.T, r *lifecycleRig, l Lease, cancel context.CancelFunc) {
				cancel()
				deadline := time.Now().Add(5 * time.Second)
				for journaled(r.jr, l.JobID) {
					if time.Now().After(deadline) {
						t.Fatal("withdrawn job never ended")
					}
					time.Sleep(time.Millisecond)
				}
				// The holder's late result is stale: the job is gone.
				if err := r.c.Complete(l.JobID, r.w, l.Attempt, []byte("late"), ""); err == nil {
					t.Fatal("Complete of a withdrawn job was accepted")
				}
			},
			want: func(wr waiterResult) bool { return errors.Is(wr.err, context.Canceled) },
		},
		{
			name: "attempts exhausted",
			end: func(t *testing.T, r *lifecycleRig, l Lease, _ context.CancelFunc) {
				r.expire(r.c.cfg.LeaseTTL + time.Millisecond)
				l2 := leaseOne(t, r.c, r.w)
				if l2.Attempt != 2 || string(l2.Checkpoint) != "ckpt-job" {
					t.Fatalf("second lease = %+v, want attempt 2 resuming from the checkpoint", l2)
				}
				r.expire(r.c.cfg.LeaseTTL + time.Millisecond)
			},
			want: func(wr waiterResult) bool { return errors.Is(wr.err, ErrAttemptsExhausted) },
		},
		{
			name: "no live worker while pending",
			end: func(t *testing.T, r *lifecycleRig, l Lease, _ context.CancelFunc) {
				r.expire(r.c.cfg.LeaseTTL + time.Millisecond) // requeued
				r.expire(r.c.livenessWindow())                // the worker falls silent
			},
			want: func(wr waiterResult) bool { return errors.Is(wr.err, ErrNoWorkers) },
		},
		{
			name: "no live worker at expiry",
			end: func(t *testing.T, r *lifecycleRig, l Lease, _ context.CancelFunc) {
				r.expire(r.c.livenessWindow() + time.Millisecond)
			},
			want: func(wr waiterResult) bool { return errors.Is(wr.err, ErrNoWorkers) },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newLifecycleRig(t, filepath.Join(t.TempDir(), "queue.jrnl"), store.NewMemStore(), &manualClock{})
			defer r.c.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			waiter := startWaiter(r.c, ctx, "job")
			l := r.leaseAndCommit(t, "job")

			row.end(t, r, l, cancel)
			wr := awaitWaiter(t, waiter)
			st := r.c.Stats()

			// The same worker is free for the next job: a poll renews its
			// liveness (a real worker polls continuously), then it leases.
			if _, ok, err := r.c.Lease(context.Background(), r.w, time.Millisecond); ok || err != nil {
				t.Fatalf("poll on an empty queue: ok=%v err=%v", ok, err)
			}
			next := startWaiter(r.c, context.Background(), "next")
			ln := leaseOne(t, r.c, r.w)
			if ln.Key != "next" {
				t.Fatalf("next lease is %q, want the fresh job", ln.Key)
			}
			if err := r.c.Complete(ln.JobID, r.w, ln.Attempt, []byte("ok"), ""); err != nil {
				t.Fatalf("Complete of the next job: %v", err)
			}
			if nr := awaitWaiter(t, next); nr.err != nil || string(nr.res) != "ok" {
				t.Fatalf("next job returned %q, %v", nr.res, nr.err)
			}

			if r.hasCheckpoint("job") {
				t.Fatal("the ended job's checkpoint record is still in the store")
			}
			if journaled(r.jr, l.JobID) {
				t.Fatal("the ended job is still open in the journal")
			}
			if st.Leased != 0 || st.Pending != 0 || st.Completed+st.Failed != 1 {
				t.Fatalf("stats after the end = %+v, want no lease and exactly one end counted", st)
			}
			if !row.want(wr) || len(waiter) != 0 {
				t.Fatalf("waiter returned %q, %v (%d more returns)", wr.res, wr.err, len(waiter))
			}
		})
	}

	// The same ends for a job an in-process slot holds. The remote attempt's
	// lease lapses (the job requeues with its checkpoint), the slots start,
	// and the remote worker deregisters, so a slot leases the job at attempt
	// 2, resuming from the checkpoint. After the end the slot is free: it
	// runs the next job. Shutdown has no next job; Close must return only
	// after the slot's cancelled run has exited.
	localRows := []struct {
		name string
		// run is the slot's executor for the job; end drives the job to its
		// end once the slot runs it.
		run  func(ctx context.Context) ([]byte, string)
		end  func(r *lifecycleRig, cancel context.CancelFunc)
		want func(waiterResult) bool
	}{
		{
			name: "in-process complete",
			run:  func(context.Context) ([]byte, string) { return []byte("result"), "" },
			end:  func(*lifecycleRig, context.CancelFunc) {},
			want: func(wr waiterResult) bool { return wr.err == nil && string(wr.res) == "result" },
		},
		{
			name: "in-process execution error",
			run:  func(context.Context) ([]byte, string) { return nil, "boom" },
			end:  func(*lifecycleRig, context.CancelFunc) {},
			want: func(wr waiterResult) bool { return errors.As(wr.err, &remote) && remote.Msg == "boom" },
		},
		{
			name: "in-process, waiter gone while leased",
			run:  func(ctx context.Context) ([]byte, string) { <-ctx.Done(); return []byte("late"), "" },
			end:  func(_ *lifecycleRig, cancel context.CancelFunc) { cancel() },
			want: func(wr waiterResult) bool { return errors.Is(wr.err, context.Canceled) },
		},
		{
			name: "in-process shutdown",
			run:  func(ctx context.Context) ([]byte, string) { <-ctx.Done(); return nil, "cancelled" },
			end:  func(r *lifecycleRig, _ context.CancelFunc) { r.c.Close() },
			want: func(wr waiterResult) bool { return errors.Is(wr.err, ErrClosed) },
		},
	}
	for _, row := range localRows {
		t.Run(row.name, func(t *testing.T) {
			r := newLifecycleRig(t, filepath.Join(t.TempDir(), "queue.jrnl"), store.NewMemStore(), &manualClock{})
			defer r.c.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			waiter := startWaiter(r.c, ctx, "job")
			l := r.leaseAndCommit(t, "job")
			r.expire(r.c.cfg.LeaseTTL + time.Millisecond) // requeued, checkpoint kept

			leased := make(chan ResumableJob, 1)
			var exited atomic.Bool
			r.c.RunLocal(1, func(ctx context.Context, job ResumableJob) ([]byte, string) {
				if job.Key == "next" {
					return []byte("ok"), ""
				}
				defer exited.Store(true)
				leased <- job
				return row.run(ctx)
			})
			r.c.Deregister(r.w)
			var job ResumableJob
			select {
			case job = <-leased:
			case <-time.After(5 * time.Second):
				t.Fatal("no slot leased the job after the remote worker left")
			}
			if job.Attempt != 2 || string(job.Checkpoint) != "ckpt-job" {
				t.Fatalf("slot lease = attempt %d checkpoint %q, want attempt 2 resuming from %q", job.Attempt, job.Checkpoint, "ckpt-job")
			}
			row.end(r, cancel)
			wr := awaitWaiter(t, waiter)
			st := r.c.Stats()

			if row.name == "in-process shutdown" {
				if !exited.Load() {
					t.Fatal("Close returned before the slot's cancelled run exited")
				}
			} else if nr := awaitWaiter(t, startWaiter(r.c, context.Background(), "next")); nr.err != nil || string(nr.res) != "ok" {
				t.Fatalf("the slot did not run the next job: %q, %v", nr.res, nr.err)
			}
			if r.hasCheckpoint("job") {
				t.Fatal("the ended job's checkpoint record is still in the store")
			}
			if journaled(r.jr, l.JobID) {
				t.Fatal("the ended job is still open in the journal")
			}
			if st.Leased != 0 || st.Pending != 0 || st.Completed+st.Failed != 1 {
				t.Fatalf("stats after the end = %+v, want no lease and exactly one end counted", st)
			}
			if !row.want(wr) || len(waiter) != 0 {
				t.Fatalf("waiter returned %q, %v (%d more returns)", wr.res, wr.err, len(waiter))
			}
		})
	}

	// Shutdown ends a normal job like any other end, but an orphan (a job
	// replayed from the journal with no waiter) stays open, checkpoint and
	// all, so the next life retries it. The coordinator is gone after
	// Close, so "leases a fresh job next" is checked in that next life.
	t.Run("close with a normal job and an orphan in flight", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "queue.jrnl")
		ck, clk := store.NewMemStore(), &manualClock{}

		life1 := newLifecycleRig(t, path, ck, clk)
		w1 := startWaiter(life1.c, context.Background(), "orphan")
		lo := life1.leaseAndCommit(t, "orphan")
		life1.c.CrashForTest()
		if wr := awaitWaiter(t, w1); !errors.Is(wr.err, ErrClosed) {
			t.Fatalf("waiter across the crash returned %v", wr.err)
		}

		life2 := newLifecycleRig(t, path, ck, clk)
		if st := life2.c.Stats(); st.JournalReplays != 1 || st.Leased != 1 {
			t.Fatalf("life 2 replay: %+v, want the orphan back under its lease", st)
		}
		waiter := startWaiter(life2.c, context.Background(), "normal")
		ln := life2.leaseAndCommit(t, "normal")
		life2.c.Close()
		if wr := awaitWaiter(t, waiter); !errors.Is(wr.err, ErrClosed) {
			t.Fatalf("waiter returned %v, want ErrClosed", wr.err)
		}
		if st := life2.c.Stats(); st.Leased != 0 || st.Pending != 0 || st.Completed+st.Failed != 2 {
			t.Fatalf("stats after Close = %+v, want no lease and both ends counted", st)
		}
		if life2.hasCheckpoint("normal") {
			t.Fatal("the closed job's checkpoint record is still in the store")
		}
		if !life2.hasCheckpoint("orphan") {
			t.Fatal("the orphan's checkpoint was dropped; the next life cannot resume it")
		}

		life3 := newLifecycleRig(t, path, ck, clk)
		defer life3.c.Close()
		if journaled(life3.jr, ln.JobID) || !journaled(life3.jr, lo.JobID) {
			t.Fatalf("journal after Close holds %v, want only the orphan %s", life3.jr.Pending(), lo.JobID)
		}
		life3.expire(life3.c.cfg.LeaseTTL + time.Millisecond) // the dead holder's lease lapses
		l3 := leaseOne(t, life3.c, life3.w)
		if l3.Key != "orphan" || string(l3.Checkpoint) != "ckpt-orphan" {
			t.Fatalf("life 3 leased %+v, want the orphan resuming from its checkpoint", l3)
		}
		if err := life3.c.Complete(l3.JobID, life3.w, l3.Attempt, []byte("ok"), ""); err != nil {
			t.Fatal(err)
		}
		if life3.hasCheckpoint("orphan") || journaled(life3.jr, lo.JobID) {
			t.Fatal("the orphan's records outlived its completion")
		}
	})
}
