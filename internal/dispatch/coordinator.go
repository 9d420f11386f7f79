// Package dispatch turns the simulation service into a horizontally
// scalable control plane, in the shape of coder's provisionerd protocol: a
// Coordinator owns a queue of opaque jobs, `centurion worker` daemons
// register and lease jobs over long-poll HTTP, heartbeat to keep their
// leases alive, stream progress back, and post results. A lease that
// outlives its TTL — a worker died, hung or partitioned — is deterministically
// requeued at the front of the queue for the next healthy worker, up to an
// attempt cap.
//
// Failure is made cheap rather than catastrophic (DESIGN.md §16): workers
// periodically post platform checkpoints, so a requeued job's next attempt
// resumes mid-run instead of from tick zero; a Journal makes the queue
// itself durable, so a coordinator restart replays pending and in-flight
// jobs instead of forgetting a sweep; and the Transport seam lets the chaos
// harness prove both properties under a hostile network.
//
// The package is payload-agnostic: jobs and results are byte slices, keyed
// by the caller's content-addressed spec keys, so the server layer stays the
// only place that knows what a run spec is.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Defaults applied by Config.withDefaults.
const (
	DefaultLeaseTTL    = 15 * time.Second
	DefaultPollWait    = 20 * time.Second
	DefaultMaxAttempts = 3
)

// CheckpointStore persists job checkpoints across coordinator restarts:
// the minimal slice of internal/store the coordinator needs, so the server
// layer can hand it the same durable backend (behind its circuit breaker)
// that results live in. Delete of an absent key must be a no-op.
type CheckpointStore interface {
	Get(key string) (val []byte, ok bool, err error)
	Put(key string, val []byte) error
	Delete(key string) error
}

// Config tunes the coordinator. Zero values select the defaults.
type Config struct {
	// LeaseTTL is how long a leased job may go without a heartbeat before
	// it is declared abandoned and requeued.
	LeaseTTL time.Duration
	// PollWait bounds how long a worker's lease long-poll blocks before
	// returning empty-handed.
	PollWait time.Duration
	// MaxAttempts caps how many times a job may be leased before the
	// coordinator gives up on remote execution and fails it (the server
	// layer then falls back to running it locally).
	MaxAttempts int
	// Clock overrides the coordinator's monotonic time source (a duration
	// since an arbitrary epoch). Nil selects time.Since of the construction
	// instant, which reads Go's monotonic clock: lease deadlines and
	// worker liveness are immune to wall-clock steps (NTP slew, VM pause
	// resync). Tests inject a manual clock to drive expiry deterministically.
	Clock func() time.Duration
	// Journal, when non-nil, makes job lifecycle transitions durable: every
	// enqueue/lease/requeue/complete/fail is appended (and fsynced) before
	// it is acknowledged, and NewCoordinator replays the journal's open
	// jobs — so a restart retries in-flight work instead of losing it. The
	// coordinator owns the journal once passed and closes it on Close.
	Journal *Journal
	// CheckpointStore, when non-nil, persists the latest committed
	// checkpoint per job key, so a job replayed from the journal resumes
	// from its last checkpoint instead of tick zero. Failures are
	// tolerated: a broken store only degrades resume granularity.
	CheckpointStore CheckpointStore
	// OrphanResult, when non-nil, receives the result of every replayed job
	// that completed without a waiter (its submitter died with the previous
	// process). The server wires this to the durable result store, so the
	// client's retry is answered without re-execution.
	OrphanResult func(key string, result []byte)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.PollWait <= 0 {
		c.PollWait = DefaultPollWait
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	return c
}

// ErrNoWorkers reports that no live worker is registered: the caller should
// execute locally instead of queueing a job nobody will lease.
var ErrNoWorkers = errors.New("dispatch: no live workers registered")

// ErrAttemptsExhausted reports that a job was leased MaxAttempts times
// without a completion — every worker that took it died or lost its lease.
var ErrAttemptsExhausted = errors.New("dispatch: lease attempts exhausted")

// ErrClosed reports an Execute on a closed or draining coordinator.
var ErrClosed = errors.New("dispatch: coordinator closed")

// RemoteError is an error the executing worker reported: the job ran and
// failed, so it must not be retried (remotely or locally) — the failure is
// deterministic.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "dispatch: remote execution failed: " + e.Msg }

// jobState is a dispatch job's position in the lease lifecycle.
type jobState int

const (
	statePending jobState = iota // queued, waiting for a lease
	stateLeased                  // held by a worker under a live lease
	stateDone                    // completed or failed; waiter notified
)

// ckptKeyPrefix namespaces job checkpoints in the shared durable store,
// apart from the result records keyed by bare canonical spec keys.
const ckptKeyPrefix = "ckpt/"

// job is one unit of remote work.
type job struct {
	id      string
	key     string
	payload []byte

	state    jobState
	workerID string        // leaseholder while stateLeased
	attempt  int           // incremented at each lease
	deadline time.Duration // lease expiry (monotonic clock) while stateLeased

	// ckpt is the latest committed checkpoint of this job's execution and
	// ckptTick its monotonically increasing progress stamp; a re-lease ships
	// it so the next attempt resumes mid-run.
	ckpt     []byte
	ckptTick int64
	// orphan marks a journal-replayed job with no live waiter; restored
	// additionally marks that its checkpoint (if any) still lives only in
	// the CheckpointStore.
	orphan   bool
	restored bool

	onProgress func([]byte)

	done   chan struct{}
	result []byte
	err    error
}

// workerState tracks one registered worker daemon.
type workerState struct {
	slots  int
	seen   time.Duration // last register/lease/heartbeat/progress/checkpoint/complete (monotonic clock)
	leased int           // currently held leases
}

// Lease is the worker-facing view of a leased job. Checkpoint, when present,
// is the latest committed checkpoint of a previous attempt: the worker
// resumes from it instead of starting over.
type Lease struct {
	JobID          string `json:"job_id"`
	Key            string `json:"key"`
	Payload        []byte `json:"payload"`
	Attempt        int    `json:"attempt"`
	Checkpoint     []byte `json:"checkpoint,omitempty"`
	CheckpointTick int64  `json:"checkpoint_tick,omitempty"`
}

// Stats is the coordinator snapshot surfaced by /healthz.
type Stats struct {
	WorkersRegistered int `json:"workers_registered"`
	WorkersLive       int `json:"workers_live"`
	Pending           int `json:"pending"`
	Leased            int `json:"leased"`

	LeasesGranted uint64 `json:"leases_granted"`
	Expired       uint64 `json:"expired"`
	Requeued      uint64 `json:"requeued"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	StaleRejected uint64 `json:"stale_rejected"`

	// CheckpointsCommitted counts accepted job checkpoints; Resumes counts
	// leases granted carrying a prior attempt's checkpoint; JournalReplays
	// counts jobs restored from the journal at startup; JournalErrors
	// counts journal appends that failed (durability degraded, service
	// continued).
	CheckpointsCommitted uint64 `json:"checkpoints_committed"`
	Resumes              uint64 `json:"resumes"`
	JournalReplays       uint64 `json:"journal_replays"`
	JournalErrors        uint64 `json:"journal_errors,omitempty"`

	// Journal, when journaling is on, is the journal's own snapshot.
	Journal *JournalStats `json:"journal,omitempty"`
}

// Coordinator owns the dispatch queue, worker registry and lease clock.
type Coordinator struct {
	cfg   Config
	epoch time.Time
	clock func() time.Duration

	mu      sync.Mutex
	wake    chan struct{} // closed+replaced whenever pending work or state changes
	pending []*job        // FIFO; expired jobs requeue at the front
	byID    map[string]*job
	orphans map[string]*job // key → open replayed job awaiting adoption
	workers map[string]*workerState
	nextJob uint64
	nextWkr uint64
	closed  bool

	leasesGranted  uint64
	expired        uint64
	requeued       uint64
	completed      uint64
	failed         uint64
	staleRejected  uint64
	ckptsCommitted uint64
	resumes        uint64
	journalReplays uint64
	journalErrors  uint64

	stopExpiry chan struct{}
	expiryDone chan struct{}
	closeOnce  sync.Once
}

// NewCoordinator starts a coordinator and its lease-expiry clock. With
// cfg.Journal set, the journal's open jobs are replayed first: pending jobs
// rejoin the queue and leased jobs keep their worker and attempt under a
// fresh TTL — a worker that survived the restart just keeps heartbeating and
// completes as if nothing happened. Replayed jobs have no waiter; a new
// Execute for the same key adopts the open job instead of enqueueing a
// duplicate, and unadopted results flow to cfg.OrphanResult.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:        cfg.withDefaults(),
		epoch:      time.Now(),
		wake:       make(chan struct{}),
		byID:       make(map[string]*job),
		orphans:    make(map[string]*job),
		workers:    make(map[string]*workerState),
		stopExpiry: make(chan struct{}),
		expiryDone: make(chan struct{}),
	}
	c.clock = c.cfg.Clock
	if c.clock == nil {
		// time.Since reads the monotonic clock: wall steps cannot move it.
		c.clock = func() time.Duration { return time.Since(c.epoch) }
	}
	if jl := c.cfg.Journal; jl != nil {
		now := c.clock()
		for _, jj := range jl.Pending() {
			j := &job{
				id:       jj.ID,
				key:      jj.Key,
				payload:  jj.Payload,
				attempt:  jj.Attempt,
				orphan:   true,
				restored: true,
				done:     make(chan struct{}),
			}
			if jj.WorkerID != "" {
				// The lease survives the restart: same holder, same attempt,
				// fresh TTL. A worker daemon that outlived us keeps
				// heartbeating under its old identity and completes normally;
				// a dead one times out and the job requeues with the
				// checkpoint it last committed.
				j.state = stateLeased
				j.workerID = jj.WorkerID
				j.deadline = now + c.cfg.LeaseTTL
			} else {
				c.pending = append(c.pending, j)
			}
			c.byID[j.id] = j
			c.orphans[j.key] = j
			c.journalReplays++
		}
		if n := jl.MaxJobID(); n > c.nextJob {
			c.nextJob = n
		}
	}
	go c.expiryLoop()
	return c
}

// journal appends a lifecycle record, tolerating failure: a full disk
// degrades durability, it must not take the control plane down. Callers
// hold c.mu.
func (c *Coordinator) journal(append func(*Journal) error) {
	if c.cfg.Journal == nil {
		return
	}
	if err := append(c.cfg.Journal); err != nil {
		c.journalErrors++
	}
}

// broadcast wakes every long-poller and waiter. Callers hold c.mu.
func (c *Coordinator) broadcast() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// livenessWindow is how long a silent worker still counts as live: it must
// cover a full idle long-poll plus scheduling slack.
func (c *Coordinator) livenessWindow() time.Duration {
	return 2 * (c.cfg.PollWait + c.cfg.LeaseTTL)
}

// liveWorkersLocked counts workers seen within the liveness window.
func (c *Coordinator) liveWorkersLocked(now time.Duration) int {
	n := 0
	for _, w := range c.workers {
		if now-w.seen <= c.livenessWindow() {
			n++
		}
	}
	return n
}

// Register adds (or re-adds) a worker daemon and returns its ID plus the
// lease timing contract it must honour.
func (c *Coordinator) Register(name string, slots int) (id string, leaseTTL, pollWait time.Duration, err error) {
	if slots < 1 {
		slots = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", 0, 0, ErrClosed
	}
	c.nextWkr++
	// The start epoch makes the ID unique to this coordinator life: job IDs
	// and attempts restart with each life, so a bare w-N would let a worker
	// that outlived a restart pass leaseHolder for an unrelated new job.
	id = fmt.Sprintf("w-%x-%d", c.epoch.UnixNano(), c.nextWkr)
	c.workers[id] = &workerState{slots: slots, seen: c.clock()}
	c.broadcast() // an Execute blocked on ErrNoWorkers re-checks… (callers poll, see Execute)
	return id, c.cfg.LeaseTTL, c.cfg.PollWait, nil
}

// Deregister removes a worker that is shutting down gracefully, so pending
// jobs stop waiting for it immediately instead of until its liveness window
// lapses. Leases the worker still holds (it drains them before calling
// this) stay valid: completion is keyed on the (job, worker, attempt)
// triple, not registry membership.
func (c *Coordinator) Deregister(workerID string) {
	c.mu.Lock()
	delete(c.workers, workerID)
	c.mu.Unlock()
	// Wake the expiry loop's no-worker sweep promptly rather than waiting
	// for its next tick: fail still-pending jobs over to local fallback.
	c.expireOverdue(c.clock())
}

// Execute queues one job for remote execution and blocks until a worker
// completes it, the attempt cap trips, or ctx is cancelled. onProgress (may
// be nil) receives raw progress payloads as workers post them.
//
// A journal-replayed open job with the same key is adopted instead of
// enqueued twice: the caller becomes the orphan's waiter, so a client
// retrying across a coordinator restart lands on the same in-flight work.
//
// With no live worker registered it fails fast with ErrNoWorkers so the
// caller can run the job in-process instead — that is what lets a
// serve-only deployment behave exactly as before this subsystem existed.
func (c *Coordinator) Execute(ctx context.Context, key string, payload []byte, onProgress func([]byte)) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	var j *job
	if o, ok := c.orphans[key]; ok {
		// Adopt: the retry after a restart attaches to the replayed job.
		delete(c.orphans, key)
		o.orphan = false
		o.onProgress = onProgress
		j = o
	} else {
		if c.liveWorkersLocked(c.clock()) == 0 {
			c.mu.Unlock()
			return nil, ErrNoWorkers
		}
		c.nextJob++
		j = &job{
			id:         fmt.Sprintf("dj-%d", c.nextJob),
			key:        key,
			payload:    payload,
			onProgress: onProgress,
			done:       make(chan struct{}),
		}
		c.journal(func(l *Journal) error { return l.Enqueue(j.id, key, payload) })
		c.byID[j.id] = j
		c.pending = append(c.pending, j)
		c.broadcast()
	}
	c.mu.Unlock()

	select {
	case <-j.done:
		return j.result, j.err
	case <-ctx.Done():
		c.abandon(j)
		return nil, ctx.Err()
	}
}

// abandon withdraws a job whose waiter gave up. A leased job's slot is
// freed at once: the holder's late Complete is refused as stale, and the
// worker moves on to the next lease.
func (c *Coordinator) abandon(j *job) {
	c.mu.Lock()
	ckpt := ""
	if j.state != stateDone { // else it ended in the race window
		ckpt = c.finish(j, nil, context.Canceled)
	}
	c.mu.Unlock()
	c.dropCheckpoint(ckpt)
}

// finish is a job's one terminal transition: every way a job ends goes
// through here. It frees the holder's slot (or the queue place), records the
// outcome, closes the job's journal record, releases the waiter, and returns
// the job's checkpoint record for the caller to delete after unlocking ("" if
// there is none). An orphan closed by shutdown is the exception: it stays
// open in the journal, checkpoint and all, so the next life retries it.
// Callers hold c.mu.
func (c *Coordinator) finish(j *job, result []byte, err error) (ckptKey string) {
	if j.state == stateLeased {
		if w, ok := c.workers[j.workerID]; ok {
			w.leased--
		}
	} else if i := slices.Index(c.pending, j); i >= 0 {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
	j.state, j.workerID = stateDone, ""
	j.result, j.err = result, err
	if err != nil {
		c.failed++
	} else {
		c.completed++
	}
	if !j.keepsRecord() {
		if err != nil {
			c.journal(func(l *Journal) error { return l.Fail(j.id) })
		} else {
			c.journal(func(l *Journal) error { return l.Complete(j.id) })
		}
		if j.ckpt != nil || j.restored {
			ckptKey = ckptKeyPrefix + j.key
		}
	}
	if j.orphan {
		delete(c.orphans, j.key)
	}
	delete(c.byID, j.id)
	close(j.done)
	c.broadcast()
	return ckptKey
}

// keepsRecord reports whether a finished job stays open in the journal: an
// orphan closed by shutdown, which the next life retries.
func (j *job) keepsRecord() bool { return j.orphan && errors.Is(j.err, ErrClosed) }

// dropCheckpoint deletes the checkpoint records finish reported, outside
// c.mu: a finished job's checkpoint is dead weight in the store.
func (c *Coordinator) dropCheckpoint(keys ...string) {
	if st := c.cfg.CheckpointStore; st != nil {
		for _, k := range keys {
			if k != "" {
				_ = st.Delete(k)
			}
		}
	}
}

// Lease blocks up to wait (capped by the configured PollWait) for a pending
// job and leases it to worker id. ok=false means the poll timed out empty —
// the worker should immediately poll again.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (Lease, bool, error) {
	if wait <= 0 || wait > c.cfg.PollWait {
		wait = c.cfg.PollWait
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return Lease{}, false, ErrClosed
		}
		w, ok := c.workers[workerID]
		if !ok {
			c.mu.Unlock()
			return Lease{}, false, fmt.Errorf("dispatch: unknown worker %q", workerID)
		}
		now := c.clock()
		w.seen = now
		if len(c.pending) > 0 && w.leased < w.slots {
			j := c.pending[0]
			c.pending = c.pending[1:]
			j.state = stateLeased
			j.workerID = workerID
			j.attempt++
			j.deadline = now + c.cfg.LeaseTTL
			w.leased++
			c.leasesGranted++
			if j.ckpt == nil && j.restored {
				// First lease since a journal replay: the latest committed
				// checkpoint (if any) lives only in the durable store.
				if st := c.cfg.CheckpointStore; st != nil {
					if v, ok, err := st.Get(ckptKeyPrefix + j.key); err == nil && ok {
						j.ckpt = v
					}
				}
				j.restored = false
			}
			if j.ckpt != nil {
				c.resumes++
			}
			c.journal(func(l *Journal) error { return l.Lease(j.id, workerID, j.attempt) })
			lease := Lease{
				JobID:          j.id,
				Key:            j.key,
				Payload:        j.payload,
				Attempt:        j.attempt,
				Checkpoint:     j.ckpt,
				CheckpointTick: j.ckptTick,
			}
			c.mu.Unlock()
			return lease, true, nil
		}
		wakeCh := c.wake
		c.mu.Unlock()
		select {
		case <-wakeCh:
		case <-timer.C:
			return Lease{}, false, nil
		case <-ctx.Done():
			return Lease{}, false, ctx.Err()
		}
	}
}

// leaseHolder validates that worker id still holds job jobID at the given
// attempt and, since any message from the holder is proof of life, extends
// the lease and the worker's liveness. Callers hold c.mu. The attempt check
// is what makes a worker that lost its lease (expiry requeued the job,
// possibly to someone else) unable to interfere: its messages carry a stale
// attempt.
func (c *Coordinator) leaseHolder(jobID, workerID string, attempt int) (*job, error) {
	j, ok := c.byID[jobID]
	if !ok {
		// A finished job is deleted from byID, so a worker that lost its
		// lease and posts after the replacement completed lands here.
		c.staleRejected++
		return nil, fmt.Errorf("dispatch: unknown job %q", jobID)
	}
	if j.state != stateLeased || j.workerID != workerID || j.attempt != attempt {
		c.staleRejected++
		return nil, fmt.Errorf("dispatch: job %s is not leased to %s at attempt %d", jobID, workerID, attempt)
	}
	now := c.clock()
	j.deadline = now + c.cfg.LeaseTTL
	if w, ok := c.workers[workerID]; ok {
		w.seen = now
	}
	return j, nil
}

// Heartbeat extends the lease on jobID. A worker whose heartbeat is
// rejected must abandon the job: its lease expired and the job belongs to
// the queue (or another worker) now.
func (c *Coordinator) Heartbeat(jobID, workerID string, attempt int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.leaseHolder(jobID, workerID, attempt)
	return err
}

// Progress forwards a raw progress payload to the job's waiter. Stale
// leases are rejected exactly like heartbeats.
func (c *Coordinator) Progress(jobID, workerID string, attempt int, payload []byte) error {
	c.mu.Lock()
	j, err := c.leaseHolder(jobID, workerID, attempt)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	onProgress := j.onProgress
	c.mu.Unlock()
	// Fan out without the coordinator lock: the server's stream publisher
	// has its own locking and must not serialise the whole control plane.
	if onProgress != nil {
		onProgress(payload)
	}
	return nil
}

// Checkpoint commits a mid-run checkpoint for jobID: fenced exactly like a
// heartbeat (only the live attempt may commit), with tick enforcing forward
// progress so a delayed or duplicated delivery of an older checkpoint can
// never roll a newer one back. An accepted checkpoint extends the lease —
// it is the strongest proof of life there is — and is mirrored to the
// durable CheckpointStore so resume survives a coordinator restart.
func (c *Coordinator) Checkpoint(jobID, workerID string, attempt int, tick int64, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("dispatch: empty checkpoint for job %q", jobID)
	}
	c.mu.Lock()
	j, err := c.leaseHolder(jobID, workerID, attempt)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if j.ckpt != nil && tick <= j.ckptTick {
		// A duplicate (or reordered older) delivery of an already-committed
		// checkpoint: idempotently accepted, nothing rolls back.
		c.mu.Unlock()
		return nil
	}
	j.ckpt = append([]byte(nil), data...)
	j.ckptTick = tick
	c.ckptsCommitted++
	key := j.key
	st := c.cfg.CheckpointStore
	c.mu.Unlock()
	if st != nil {
		// Best-effort durability outside the lock: a failed put only means a
		// post-restart resume falls back further (or to tick zero).
		_ = st.Put(ckptKeyPrefix+key, data)
		// A job that ended while the put was in flight has already had its
		// record dropped by finish; this put must not resurrect it.
		c.mu.Lock()
		ended := j.state == stateDone && !j.keepsRecord()
		c.mu.Unlock()
		if ended {
			c.dropCheckpoint(ckptKeyPrefix + key)
		}
	}
	return nil
}

// Complete finishes jobID with a result payload or a worker-reported
// execution error. A duplicate or post-expiry Complete is rejected (the
// lease-holder check fails) so exactly one attempt's result is delivered.
func (c *Coordinator) Complete(jobID, workerID string, attempt int, result []byte, execErr string) error {
	c.mu.Lock()
	j, err := c.leaseHolder(jobID, workerID, attempt)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	var jobErr error
	if execErr != "" {
		result, jobErr = nil, &RemoteError{Msg: execErr}
	}
	ckpt := c.finish(j, result, jobErr)
	c.mu.Unlock()

	c.dropCheckpoint(ckpt)
	if sink := c.cfg.OrphanResult; sink != nil && j.orphan && jobErr == nil {
		// A replayed job finished with no waiter: hand the result to the
		// server's sink (the durable result store) so the client's retry is
		// answered without re-execution.
		sink(j.key, result)
	}
	return nil
}

// expiryLoop is the lease clock: it scans for overdue leases and requeues
// (or fails) them. The scan interval tracks the TTL so tests with
// millisecond leases expire promptly without a hot loop in production.
func (c *Coordinator) expiryLoop() {
	defer close(c.expiryDone)
	interval := c.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopExpiry:
			return
		case <-ticker.C:
			c.expireOverdue(c.clock())
		}
	}
}

// expireOverdue requeues every lease whose deadline passed. Expired jobs
// rejoin the queue at the front, ordered by (deadline, id) so recovery
// order is deterministic; a job out of attempts fails instead, and a job
// with no live worker left to retry it fails with ErrNoWorkers so its
// waiter can fall back to local execution rather than wait forever.
// Orphans (journal-replayed jobs with no waiter) are exempt from the
// no-worker fast-fail — there is nobody to strand, and failing them would
// lose the very jobs the journal preserved.
func (c *Coordinator) expireOverdue(now time.Duration) {
	var ckpts []string
	defer func() { c.dropCheckpoint(ckpts...) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.liveWorkersLocked(now)
	// A queue with nobody left to serve it must not strand its waiters:
	// fail pending jobs with ErrNoWorkers so they run locally instead.
	if live == 0 {
		for _, j := range slices.Clone(c.pending) {
			if !j.orphan {
				ckpts = append(ckpts, c.finish(j, nil, ErrNoWorkers))
			}
		}
	}
	var overdue []*job
	for _, j := range c.byID {
		if j.state == stateLeased && now > j.deadline {
			overdue = append(overdue, j)
		}
	}
	if len(overdue) == 0 {
		return
	}
	sort.Slice(overdue, func(a, b int) bool {
		if overdue[a].deadline != overdue[b].deadline {
			return overdue[a].deadline < overdue[b].deadline
		}
		return overdue[a].id < overdue[b].id
	})
	for i := len(overdue) - 1; i >= 0; i-- { // reverse: front-push preserves sorted order
		j := overdue[i]
		c.expired++
		switch {
		case j.attempt >= c.cfg.MaxAttempts:
			ckpts = append(ckpts, c.finish(j, nil, fmt.Errorf("%w (%d leases lost)", ErrAttemptsExhausted, j.attempt)))
		case live == 0 && !j.orphan:
			ckpts = append(ckpts, c.finish(j, nil, ErrNoWorkers))
		default:
			if w, ok := c.workers[j.workerID]; ok {
				w.leased--
			}
			j.state, j.workerID = statePending, ""
			c.requeued++
			c.journal(func(l *Journal) error { return l.Requeue(j.id) })
			c.pending = append([]*job{j}, c.pending...)
		}
	}
	c.broadcast()
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	leased := 0
	for _, j := range c.byID {
		if j.state == stateLeased {
			leased++
		}
	}
	st := Stats{
		WorkersRegistered:    len(c.workers),
		WorkersLive:          c.liveWorkersLocked(c.clock()),
		Pending:              len(c.pending),
		Leased:               leased,
		LeasesGranted:        c.leasesGranted,
		Expired:              c.expired,
		Requeued:             c.requeued,
		Completed:            c.completed,
		Failed:               c.failed,
		StaleRejected:        c.staleRejected,
		CheckpointsCommitted: c.ckptsCommitted,
		Resumes:              c.resumes,
		JournalReplays:       c.journalReplays,
		JournalErrors:        c.journalErrors,
	}
	if c.cfg.Journal != nil {
		js := c.cfg.Journal.Stats()
		st.Journal = &js
	}
	return st
}

// Drain stops admitting new jobs and waits (until ctx expires) for leased
// and pending jobs to finish; whatever remains is failed so no waiter stays
// blocked. Always followed by Close.
func (c *Coordinator) Drain(ctx context.Context) {
	c.mu.Lock()
	c.closed = true
	c.broadcast()
	c.mu.Unlock()

	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		n := len(c.byID)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		select {
		case <-ctx.Done():
			c.failRemaining()
			return
		case <-ticker.C:
		}
	}
}

// failRemaining fails every job still tracked — drain gave up waiting.
// Orphans are released in memory but NOT journaled as failed: their
// submitters are gone either way, and leaving them open in the journal
// means the next start retries them instead of losing them.
func (c *Coordinator) failRemaining() {
	var ckpts []string
	c.mu.Lock()
	for _, j := range c.byID {
		ckpts = append(ckpts, c.finish(j, nil, ErrClosed))
	}
	c.mu.Unlock()
	c.dropCheckpoint(ckpts...)
}

// Close stops the expiry clock and fails any jobs still in flight. Safe to
// call more than once.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if !c.closed { // else Drain (or a prior Close) already sealed admission
		c.closed = true
		c.broadcast()
	}
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.stopExpiry) })
	<-c.expiryDone
	c.failRemaining()
	if c.cfg.Journal != nil {
		_ = c.cfg.Journal.Close()
	}
}

// CrashForTest simulates a coordinator process crash for recovery tests:
// the expiry clock stops, every waiter is released with ErrClosed, and —
// unlike Close — no terminal records are journaled, so the journal on disk
// is exactly what a real crash would leave behind. The journal file is
// closed so a successor can reopen the same path.
func (c *Coordinator) CrashForTest() {
	c.mu.Lock()
	c.closed = true
	c.broadcast()
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.stopExpiry) })
	<-c.expiryDone
	c.mu.Lock()
	for id, j := range c.byID {
		j.state = stateDone
		j.err = ErrClosed
		delete(c.byID, id)
		close(j.done)
	}
	c.pending = nil
	for k := range c.orphans {
		delete(c.orphans, k)
	}
	c.mu.Unlock()
	if c.cfg.Journal != nil {
		_ = c.cfg.Journal.Close()
	}
}
