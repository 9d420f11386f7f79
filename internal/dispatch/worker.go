package dispatch

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"centurion/internal/sim"
)

// ResumableJob is the worker-side view of a leased job under the
// checkpoint-resume protocol (DESIGN.md §16). Checkpoint, when non-nil, is
// the latest checkpoint a previous attempt committed: the executor restores
// it and resumes instead of starting from tick zero.
type ResumableJob struct {
	Key     string
	Payload []byte
	Attempt int
	// Checkpoint and CheckpointTick describe the resume point (nil/0 for a
	// fresh start).
	Checkpoint     []byte
	CheckpointTick int64
	// Progress forwards an intermediate sample batch to the submitter.
	Progress func(samples []byte)
	// Commit ships an encoded checkpoint at progress stamp tick to the
	// coordinator. Ticks must be strictly increasing within a run. Failures
	// are safe to ignore — a missed commit only widens the window of work a
	// later attempt repeats — except that a coordinator-confirmed fencing
	// rejection also cancels the job's ctx (the lease is gone).
	Commit func(ctx context.Context, tick int64, data []byte) error
}

// ExecuteResumableFunc runs one leased job and returns the result payload,
// or a non-empty errMsg when the job itself failed deterministically. ctx is
// cancelled when the lease is lost or the worker is hard-stopped, at which
// point the function should return promptly (its result will be discarded).
// An executor that wants no checkpoints ignores job.Commit.
type ExecuteResumableFunc func(ctx context.Context, job ResumableJob) (result []byte, errMsg string)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name labels the worker in the coordinator's registry.
	Name string
	// Slots is how many jobs the worker leases concurrently (default 1).
	Slots int
	// ExecuteResumable runs one job. Required.
	ExecuteResumable ExecuteResumableFunc
	// Client is the HTTP client (default a fresh one; it must not set a
	// global timeout, long-polls outlive typical timeouts).
	Client *http.Client
	// Transport overrides how RPCs reach the coordinator (default: HTTP
	// against Coordinator using Client). The chaos harness injects a
	// hostile network here.
	Transport Transport
	// Logf receives operational messages (default: discarded).
	Logf func(format string, args ...any)
	// HardStop, when closed, aborts everything immediately: in-flight jobs
	// are abandoned without completion, so their leases expire at the
	// coordinator and the work is requeued — the crash path, used by tests
	// to kill a worker mid-job. Graceful shutdown is the ctx instead:
	// cancelling RunWorker's ctx stops leasing but drains in-flight jobs.
	HardStop <-chan struct{}
	// MaxBackoff caps the retry backoff on coordinator loss (default 5s).
	MaxBackoff time.Duration
}

// registration is the identity the coordinator handed us.
type registration struct {
	id   string
	ttl  time.Duration
	poll time.Duration
	gen  uint64 // bumped on every (re-)registration
}

// worker is the daemon's run state.
type worker struct {
	o    WorkerOptions
	tr   Transport
	logf func(string, ...any)

	mu  sync.Mutex
	reg registration

	rngMu sync.Mutex
	// rng is the jitter source, shared by every retry site and seeded from
	// Name, so a fleet bounced by one coordinator restart de-synchronises
	// instead of thundering back in lockstep.
	rng sim.RNG
}

// RunWorker registers against the coordinator and executes leased jobs
// until ctx is cancelled (drain: stop leasing, finish in-flight jobs) or
// HardStop is closed (abandon everything). It retries with capped
// exponential backoff across coordinator restarts and network loss, and
// re-registers when the coordinator no longer knows it. It returns nil on a
// clean drain.
func RunWorker(ctx context.Context, o WorkerOptions) error {
	if o.ExecuteResumable == nil {
		return errors.New("dispatch: WorkerOptions.ExecuteResumable is required")
	}
	if o.Slots < 1 {
		o.Slots = 1
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(o.Name))
	w := &worker{o: o, tr: o.Transport, logf: o.Logf, rng: *sim.NewRNG(h.Sum64())}
	if w.tr == nil {
		w.tr = NewHTTPTransport(o.Coordinator, o.Client)
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}

	// hardCtx dies on HardStop only; leaseCtx dies on either signal.
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	leaseCtx, leaseCancel := context.WithCancel(ctx)
	defer leaseCancel()
	if o.HardStop != nil {
		go func() {
			select {
			case <-o.HardStop:
				hardCancel()
				leaseCancel()
			case <-hardCtx.Done():
			}
		}()
	}

	if err := w.register(leaseCtx); err != nil {
		return err
	}

	var wg sync.WaitGroup
	for i := 0; i < o.Slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.slotLoop(leaseCtx, hardCtx, slot)
		}(i)
	}
	wg.Wait()
	// Graceful drain (not a hard stop): tell the coordinator we are gone so
	// queued jobs stop waiting on our liveness window and fail over to local
	// execution immediately. Best-effort — the window covers a lost goodbye.
	if hardCtx.Err() == nil {
		w.mu.Lock()
		id := w.reg.id
		w.mu.Unlock()
		byeCtx, byeCancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = w.post(byeCtx, "/v1/workers/"+id+"/deregister", struct{}{}, nil)
		byeCancel()
		w.logf("deregistered %s", id)
	}
	return nil
}

// jitter spreads a backoff delay uniformly over [d/2, 3d/2) using the
// worker's seeded RNG: deterministic per worker, different across a fleet.
func (w *worker) jitter(d time.Duration) time.Duration {
	w.rngMu.Lock()
	f := w.rng.Float64()
	w.rngMu.Unlock()
	return d/2 + time.Duration(f*float64(d))
}

// minBackoff is the first delay of every retry sequence.
const minBackoff = 50 * time.Millisecond

// backoff is the worker's one retry policy: jittered exponential delays
// from minBackoff, capped at MaxBackoff.
type backoff struct {
	w     *worker
	delay time.Duration
}

// wait sleeps the current jittered delay, then doubles it up to the cap. It
// returns false if ctx ended first.
func (b *backoff) wait(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(b.w.jitter(b.delay)):
	}
	b.delay = min(2*b.delay, b.w.o.MaxBackoff)
	return true
}

// register obtains a worker ID, retrying with backoff until ctx dies.
func (w *worker) register(ctx context.Context) error {
	b := backoff{w, minBackoff}
	for {
		var resp registerResponse
		status, err := w.post(ctx, "/v1/workers/register", registerRequest{Name: w.o.Name, Slots: w.o.Slots}, &resp)
		if err == nil && status == http.StatusOK && resp.WorkerID != "" {
			w.mu.Lock()
			w.reg = registration{
				id:   resp.WorkerID,
				ttl:  time.Duration(resp.LeaseTTLMs) * time.Millisecond,
				poll: time.Duration(resp.PollWaitMs) * time.Millisecond,
				gen:  w.reg.gen + 1,
			}
			w.mu.Unlock()
			w.logf("registered as %s (lease ttl %s)", resp.WorkerID, time.Duration(resp.LeaseTTLMs)*time.Millisecond)
			return nil
		}
		if err == nil {
			err = fmt.Errorf("register returned status %d", status)
		}
		w.logf("registration failed (%v); retrying in %s", err, b.delay)
		if !b.wait(ctx) {
			return ctx.Err()
		}
	}
}

// reRegister refreshes a registration the coordinator lost (it restarted).
// Only the first slot to notice re-registers; the rest reuse the new
// identity.
func (w *worker) reRegister(ctx context.Context, seenGen uint64) error {
	w.mu.Lock()
	current := w.reg.gen
	w.mu.Unlock()
	if current != seenGen {
		return nil // someone else already re-registered
	}
	return w.register(ctx)
}

// slotLoop is one lease slot: long-poll for a job, run it, repeat.
func (w *worker) slotLoop(leaseCtx, hardCtx context.Context, slot int) {
	b := backoff{w, minBackoff}
	for {
		if leaseCtx.Err() != nil {
			return
		}
		w.mu.Lock()
		reg := w.reg
		w.mu.Unlock()

		var lease Lease
		// The poll's own timeout bounds a coordinator that accepted the
		// connection but never answers.
		pollCtx, pollCancel := context.WithTimeout(leaseCtx, reg.poll+10*time.Second)
		status, err := w.post(pollCtx, "/v1/workers/"+reg.id+"/lease", leaseRequest{WaitMs: reg.poll.Milliseconds()}, &lease)
		pollCancel()
		switch {
		case leaseCtx.Err() != nil:
			return
		case err != nil || status == http.StatusServiceUnavailable:
			// Coordinator down or draining: back off, then try to
			// re-register (it may have restarted with an empty registry).
			w.logf("lease poll failed (status %d, err %v); backing off %s", status, err, b.delay)
			if !b.wait(leaseCtx) {
				return
			}
			if err := w.reRegister(leaseCtx, reg.gen); err != nil {
				return
			}
			continue
		case status == http.StatusNotFound:
			// The coordinator does not know us any more: re-register.
			if err := w.reRegister(leaseCtx, reg.gen); err != nil {
				return
			}
			continue
		case status == http.StatusNoContent:
			b.delay = minBackoff
			continue
		case status != http.StatusOK:
			w.logf("unexpected lease status %d; backing off %s", status, b.delay)
			if !b.wait(leaseCtx) {
				return
			}
			continue
		}
		b.delay = minBackoff
		w.runJob(hardCtx, reg, lease, slot)
	}
}

// runJob executes one leased job end to end: heartbeats at TTL/3, progress
// forwarding, completion with retry. Jobs run under hardCtx so a graceful
// drain (leaseCtx cancelled) still finishes them, while a hard stop
// abandons them mid-flight — the lease then expires and the coordinator
// requeues the work.
func (w *worker) runJob(hardCtx context.Context, reg registration, lease Lease, slot int) {
	jobCtx, cancel := context.WithCancel(hardCtx)
	defer cancel()

	w.logf("slot %d: leased %s (attempt %d, key %.12s…)", slot, lease.JobID, lease.Attempt, lease.Key)
	base := "/v1/jobs/" + lease.JobID
	auth := jobPost{WorkerID: reg.id, Attempt: lease.Attempt}

	// Only a coordinator-confirmed fencing rejection (409/404: the lease
	// really is gone) abandons the attempt; a flaky network never does on
	// its own.
	var leaseLost atomic.Bool
	fenced := func(status int) bool {
		if status != http.StatusConflict && status != http.StatusNotFound {
			return false
		}
		if !leaseLost.Swap(true) {
			w.logf("slot %d: lease on %s lost; abandoning", slot, lease.JobID)
		}
		cancel()
		return true
	}

	// Heartbeat at a third of the TTL: two beats may be lost before the
	// lease dies. Within each beat, transient delivery failures are retried
	// a few times on a short fuse.
	hbInterval := reg.ttl / 3
	if hbInterval < 5*time.Millisecond {
		hbInterval = 5 * time.Millisecond
	}
	retryGap := hbInterval / 8
	if retryGap < time.Millisecond {
		retryGap = time.Millisecond
	}
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		ticker := time.NewTicker(hbInterval)
		defer ticker.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-ticker.C:
				var status int
				var err error
				for try := 0; try < 4; try++ {
					status, err = w.post(jobCtx, base+"/heartbeat", auth, nil)
					if err == nil || jobCtx.Err() != nil {
						break
					}
					// Delivery failed; retry inside this beat's budget.
					select {
					case <-jobCtx.Done():
						return
					case <-time.After(w.jitter(retryGap)):
					}
				}
				if err == nil && fenced(status) {
					return
				}
			}
		}
	}()

	progress := func(samples []byte) {
		p := auth
		p.Samples = samples
		if status, err := w.post(jobCtx, base+"/progress", p, nil); err == nil {
			fenced(status)
		}
	}
	commit := func(cctx context.Context, tick int64, data []byte) error {
		p := auth
		p.Tick = tick
		p.Checkpoint = data
		status, err := w.post(cctx, base+"/checkpoint", p, nil)
		if err != nil {
			return err
		}
		if fenced(status) {
			return fmt.Errorf("dispatch: checkpoint rejected with status %d", status)
		}
		return nil
	}
	result, execErr := w.o.ExecuteResumable(jobCtx, ResumableJob{
		Key:            lease.Key,
		Payload:        lease.Payload,
		Attempt:        lease.Attempt,
		Checkpoint:     lease.Checkpoint,
		CheckpointTick: lease.CheckpointTick,
		Progress:       progress,
		Commit:         commit,
	})
	cancel()
	hbWG.Wait()

	if hardCtx.Err() != nil {
		// Hard-stopped: abandon without completing (the crash path).
		return
	}
	if leaseLost.Load() {
		// The lease was lost mid-run; any completion would be rejected as
		// stale. Skip the round trip.
		return
	}

	done := auth
	done.Result = result
	done.Error = execErr
	// Completion retries ride out a brief coordinator blip; if the lease
	// expires meanwhile the 409 tells us the work was requeued elsewhere.
	b := backoff{w, minBackoff}
	for attempt := 0; attempt < 5; attempt++ {
		status, err := w.post(context.Background(), base+"/complete", done, nil)
		switch {
		case err == nil && status == http.StatusNoContent:
			w.logf("slot %d: completed %s", slot, lease.JobID)
			return
		case err == nil && (status == http.StatusConflict || status == http.StatusNotFound):
			w.logf("slot %d: completion of %s rejected as stale", slot, lease.JobID)
			return
		}
		if !b.wait(hardCtx) {
			return
		}
	}
	w.logf("slot %d: could not report completion of %s; lease will expire", slot, lease.JobID)
}

// post sends one RPC to the coordinator over the worker's Transport.
func (w *worker) post(ctx context.Context, path string, body, out any) (int, error) {
	return w.tr.Post(ctx, path, body, out)
}
