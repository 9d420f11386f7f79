package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"centurion/internal/centurion"
	"centurion/internal/experiments"
	"centurion/internal/metrics"
)

// JobState is a job's position in its lifecycle.
type JobState string

// The job lifecycle: queued → running → done | failed.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Sample is one metric window of one run, as streamed over SSE: a point of
// the paper's Figure-4 series.
type Sample struct {
	Run         int     `json:"run"`
	TimeMs      float64 `json:"time_ms"`
	Throughput  float64 `json:"throughput"`
	NodesActive float64 `json:"nodes_active"`
	Switches    float64 `json:"switches"`
}

// RunSummary is the per-run scalar outcome (one row of the batch).
type RunSummary struct {
	Seed               uint64  `json:"seed"`
	SettlingMs         float64 `json:"settling_ms"`
	Settled            bool    `json:"settled"`
	RecoveryMs         float64 `json:"recovery_ms,omitempty"`
	Recovered          bool    `json:"recovered,omitempty"`
	SteadyRate         float64 `json:"steady_rate"`
	PostFaultRate      float64 `json:"post_fault_rate"`
	InstancesCompleted uint64  `json:"instances_completed"`
	TaskSwitches       uint64  `json:"task_switches"`
	PacketsDropped     uint64  `json:"packets_dropped"`
	// Resilience measures, present when the run executed a fault profile:
	// byzantine interference totals and the per-milestone recovery record.
	ByzMisrouted  uint64        `json:"byz_misrouted,omitempty"`
	ByzDropped    uint64        `json:"byz_dropped,omitempty"`
	ByzDuplicated uint64        `json:"byz_duplicated,omitempty"`
	Waves         []WaveSummary `json:"waves,omitempty"`
}

// WaveSummary is one fault-schedule milestone's resilience record: the
// re-settling time after the disruption and the fabric traffic accounted
// until the next milestone (or the end of the run).
type WaveSummary struct {
	AtMs       int     `json:"at_ms"`
	RecoveryMs float64 `json:"recovery_ms,omitempty"`
	Recovered  bool    `json:"recovered"`
	Delivered  uint64  `json:"delivered"`
	Dropped    uint64  `json:"dropped"`
	Misrouted  uint64  `json:"misrouted,omitempty"`
}

// Stat is a batch aggregate: mean with the 95% confidence half-width.
type Stat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

// Aggregate summarises a batch across its independently seeded runs.
// SettlingMs and RecoveryMs cover only the SettledRuns/RecoveredRuns that
// actually reached the steady band; censored runs are excluded rather
// than silently mixed into the means.
type Aggregate struct {
	Runs          int  `json:"runs"`
	SettledRuns   int  `json:"settled_runs"`
	RecoveredRuns int  `json:"recovered_runs,omitempty"`
	SteadyRate    Stat `json:"steady_rate"`
	PostFaultRate Stat `json:"post_fault_rate"`
	SettlingMs    Stat `json:"settling_ms,omitzero"`
	RecoveryMs    Stat `json:"recovery_ms,omitzero"`
}

// Series carries the Figure-4-style windowed time series of the batch's
// first run.
type Series struct {
	WindowMs    float64   `json:"window_ms"`
	Throughput  []float64 `json:"throughput"`
	NodesActive []float64 `json:"nodes_active"`
	Switches    []float64 `json:"switches"`
}

// RunResult is the service's response payload for a finished job.
type RunResult struct {
	Spec      RunSpec      `json:"spec"`
	Key       string       `json:"key"`
	Runs      []RunSummary `json:"run_summaries"`
	Aggregate Aggregate    `json:"aggregate"`
	Series    *Series      `json:"series,omitempty"`
}

// Job tracks one submitted spec through the engine.
type Job struct {
	ID       string   `json:"id"`
	Key      string   `json:"key"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	CacheHit bool     `json:"cache_hit"`
	// StoreHit marks a job answered from the durable result store — a
	// result computed by an earlier process lifetime (or another worker)
	// and replayed without re-execution.
	StoreHit bool      `json:"store_hit,omitempty"`
	Created  time.Time `json:"created"`

	spec   RunSpec
	result *RunResult
	stream *stream
	done   chan struct{}
}

// stream is a job's progress fan-out. It has its own lock so per-window
// publishing never contends with the engine-wide mutex that guards
// admission and status.
type stream struct {
	mu       sync.Mutex
	samples  []Sample
	subs     map[chan Sample]struct{}
	finished bool
}

// publish fans the sample out to subscribers and, for the batch's first
// run only, appends it to the replay log — mirroring Series, and bounding
// retention: an unbounded log over a 1000-run batch would hold tens of
// millions of samples. A subscriber too slow to drain its buffer skips
// samples rather than stalling the simulation.
func (st *stream) publish(s Sample) {
	st.mu.Lock()
	if s.Run == 0 {
		st.samples = append(st.samples, s)
	}
	for c := range st.subs {
		select {
		case c <- s:
		default:
		}
	}
	st.mu.Unlock()
}

// finish closes every subscriber and drops the sample log — replay for
// finished jobs is derived from the result's Series instead, so retained
// jobs don't pin a second copy of the series.
func (st *stream) finish() {
	st.mu.Lock()
	st.finished = true
	st.samples = nil
	for c := range st.subs {
		close(c)
		delete(st.subs, c)
	}
	st.mu.Unlock()
}

// EngineStats is a point-in-time snapshot of the engine.
type EngineStats struct {
	Workers   int    `json:"workers"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// StoreHits counts submissions answered from the durable result store
	// (LRU misses that an earlier process lifetime had already computed).
	StoreHits uint64 `json:"store_hits,omitempty"`
	// MeanJobMs is the exponentially weighted mean wall time of executed
	// (non-cached) jobs — the figure Retry-After advice is derived from.
	MeanJobMs float64    `json:"mean_job_ms"`
	Cache     CacheStats `json:"cache"`
}

// ErrQueueFull reports that the engine's admission queue is at capacity;
// clients should back off and retry (the API maps it to 503).
var ErrQueueFull = errors.New("server: job queue full")

// ErrClosed reports a submission to an engine that has been closed.
var ErrClosed = errors.New("server: engine closed")

// maxJobHistory bounds how many terminal jobs are kept queryable; beyond
// it the oldest are forgotten so a long-running service cannot grow
// without bound — a retired job retains its result until pruned, so this
// bound (times the per-result size) is the service's history memory
// ceiling. (A var so tests can shrink it.)
var maxJobHistory = 1024

// Engine is the bounded worker-pool job engine: submissions are validated,
// deduplicated against the cache and in-flight jobs, queued, and executed by
// a fixed set of workers through the shared experiment runner.
type Engine struct {
	cache   *Cache
	workers int

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	queue     chan *Job
	closeOnce sync.Once

	mu       sync.Mutex
	exec     Executor    // how workers run a job (default: in-process Execute)
	store    ResultStore // durable layer under the LRU; nil = none
	jobs     map[string]*Job
	inflight map[string]*Job // canonical key → queued/running job (coalescing)
	// Terminal job IDs, oldest first (pruning order). Cache-hit jobs have
	// their own list so high-rate cached traffic cannot churn freshly
	// computed jobs out of queryable history.
	history     []string
	hitHistory  []string
	closed      bool
	nextID      uint64
	running     int
	completed   uint64
	failed      uint64
	storeHits   uint64
	meanLatency time.Duration // EWMA of executed-job wall time
}

// NewEngine starts an engine with the given worker count (min 1), queue
// bound and LRU cache capacity.
func NewEngine(workers, queueBound, cacheSize int) *Engine {
	if workers < 1 {
		workers = 1
	}
	if queueBound < 1 {
		queueBound = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cache:    NewCache(cacheSize),
		workers:  workers,
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *Job, queueBound),
		exec:     Execute,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.work()
	}
	return e
}

// SetExecutor replaces how the engine's workers run a job. Call before any
// submissions (the server wires this during assembly).
func (e *Engine) SetExecutor(exec Executor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if exec != nil {
		e.exec = exec
	}
}

// SetResultStore layers a durable content-addressed store under the LRU:
// submissions that miss the LRU are answered from the store without
// re-execution, and freshly computed results are persisted to it.
func (e *Engine) SetResultStore(s ResultStore) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = s
}

// Close rejects further submissions, cancels running jobs, waits for the
// workers to exit, and fails any jobs still queued so that no waiter is
// left blocked on an abandoned job.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.closeOnce.Do(e.stopWorkers)
}

// Drain is the graceful Close: stop admitting, let queued and running jobs
// finish, then stop the workers. When ctx expires first the remaining jobs
// are cancelled exactly as in Close, so shutdown is bounded either way.
func (e *Engine) Drain(ctx context.Context) {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
wait:
	for {
		e.mu.Lock()
		idle := len(e.queue) == 0 && e.running == 0
		e.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			break wait
		case <-ticker.C:
		}
	}
	e.closeOnce.Do(e.stopWorkers)
}

// stopWorkers cancels execution, waits the pool out, and fails whatever is
// still queued. Run exactly once, via closeOnce.
func (e *Engine) stopWorkers() {
	e.cancel()
	e.wg.Wait()
	for {
		select {
		case j := <-e.queue:
			e.mu.Lock()
			e.finish(j, nil, errClosedBeforeRun)
			e.mu.Unlock()
		default:
			return
		}
	}
}

// errClosedBeforeRun fails the jobs still queued when the engine stops.
var errClosedBeforeRun = errors.New("engine closed before the job ran")

// finish is a job's one terminal transition, whether it ran, was answered
// from the LRU or the store, or was still queued at shutdown: it records
// the outcome, retires the job into queryable history (pruning the oldest
// beyond the bound), releases its waiters and closes its stream. Callers
// hold e.mu.
func (e *Engine) finish(j *Job, res *RunResult, err error) {
	if err != nil {
		j.State = JobFailed
		j.Error = err.Error()
		e.failed++
	} else {
		j.State = JobDone
		j.result = res
		e.completed++
	}
	delete(e.inflight, j.Key)
	e.jobs[j.ID] = j
	hist := &e.history
	if j.CacheHit || j.StoreHit {
		hist = &e.hitHistory
	}
	*hist = append(*hist, j.ID)
	for len(*hist) > maxJobHistory {
		delete(e.jobs, (*hist)[0])
		*hist = (*hist)[1:]
	}
	close(j.done)
	j.stream.finish()
}

// Submit admits a canonicalized spec. It returns immediately: with the
// existing job when an identical spec is already queued or running
// (coalescing), with an already-done job on a cache hit, or with a freshly
// queued job otherwise. ErrQueueFull reports an admission queue at capacity.
func (e *Engine) Submit(spec RunSpec) (*Job, error) {
	key := spec.CanonicalKey()

	e.mu.Lock()
	defer e.mu.Unlock()

	if e.closed {
		return nil, ErrClosed
	}
	if j, ok := e.inflight[key]; ok {
		return j, nil
	}

	e.nextID++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", e.nextID),
		Key:     key,
		Created: time.Now(),
		spec:    spec,
		stream:  &stream{subs: make(map[chan Sample]struct{})},
		done:    make(chan struct{}),
	}

	if cached, ok := e.cache.Get(key); ok {
		j.CacheHit = true
		e.finish(j, cached, nil)
		return j, nil
	}

	// The durable store holds results computed in earlier process lifetimes
	// (or by other workers of the fleet): an LRU miss that hits the store
	// completes without re-execution, and re-warms the LRU. Store errors
	// degrade to a miss — a broken disk must not take submissions down.
	if e.store != nil {
		if raw, ok, err := e.store.Get(key); err == nil && ok {
			res := new(RunResult)
			if json.Unmarshal(raw, res) == nil {
				e.cache.Put(key, res)
				j.StoreHit = true
				e.storeHits++
				e.finish(j, res, nil)
				return j, nil
			}
		}
	}

	select {
	case e.queue <- j:
	default:
		return nil, ErrQueueFull
	}
	j.State = JobQueued
	e.jobs[j.ID] = j
	e.inflight[key] = j
	return j, nil
}

// Job returns the job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Wait blocks until the job finishes (done or failed) or ctx is cancelled.
func (e *Engine) Wait(ctx context.Context, j *Job) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Snapshot returns the job's externally visible state and, when finished,
// its result.
func (e *Engine) Snapshot(j *Job) (Job, *RunResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return *j, j.result
}

// Subscribe attaches a progress listener to the job: already-recorded
// samples are returned for replay, and subsequent samples arrive on the
// channel until the job finishes (the channel is then closed). Always pair
// with the returned cancel function.
func (e *Engine) Subscribe(j *Job) (replay []Sample, ch <-chan Sample, cancel func()) {
	st := j.stream
	c := make(chan Sample, 1024)
	st.mu.Lock()
	if st.finished {
		st.mu.Unlock()
		close(c)
		// The sample log is dropped at finish; rebuild the replay from the
		// result's Series (nil for batches and failed jobs, which carry no
		// series).
		return replayFromResult(j.result), c, func() {}
	}
	replay = append([]Sample(nil), st.samples...)
	st.subs[c] = struct{}{}
	st.mu.Unlock()
	return replay, c, func() {
		st.mu.Lock()
		if _, ok := st.subs[c]; ok {
			delete(st.subs, c)
			close(c)
		}
		st.mu.Unlock()
	}
}

// replayFromResult reconstructs the first run's sample stream from a
// finished result's series.
func replayFromResult(res *RunResult) []Sample {
	if res == nil || res.Series == nil {
		return nil
	}
	out := make([]Sample, len(res.Series.Throughput))
	for i := range out {
		out[i] = Sample{
			Run:         0,
			TimeMs:      float64(i) * res.Series.WindowMs,
			Throughput:  res.Series.Throughput[i],
			NodesActive: res.Series.NodesActive[i],
			Switches:    res.Series.Switches[i],
		}
	}
	return out
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Workers:   e.workers,
		Queued:    len(e.queue),
		Running:   e.running,
		Completed: e.completed,
		Failed:    e.failed,
		StoreHits: e.storeHits,
		MeanJobMs: float64(e.meanLatency) / float64(time.Millisecond),
		Cache:     e.cache.Stats(),
	}
}

// retryAfterFloor/Ceil clamp the backoff advice: sub-second advice churns
// clients pointlessly, multi-minute advice outlives most queue spikes.
const (
	retryAfterFloor = time.Second
	retryAfterCeil  = 2 * time.Minute
)

// RetryAfter estimates when a rejected submission is worth retrying: the
// queue depth in worker-waves times the mean executed-job latency. It is
// surfaced as the Retry-After header on 503 responses.
func (e *Engine) RetryAfter() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	depth := len(e.queue) + e.running
	mean := e.meanLatency
	if mean <= 0 {
		// No job has executed yet; assume a sub-second spec.
		mean = 250 * time.Millisecond
	}
	waves := depth/e.workers + 1
	ra := time.Duration(waves) * mean
	if ra < retryAfterFloor {
		ra = retryAfterFloor
	}
	if ra > retryAfterCeil {
		ra = retryAfterCeil
	}
	return ra
}

// work is one worker's loop: pull, run, publish.
func (e *Engine) work() {
	defer e.wg.Done()
	for {
		select {
		case <-e.ctx.Done():
			return
		case j := <-e.queue:
			e.run(j)
		}
	}
}

// Execute synchronously runs a canonicalized spec's batch from its first
// run, without any engine machinery: the direct path for library callers
// (centurion.RunSpec) and the engine's default Executor. progress may be nil.
func Execute(ctx context.Context, spec RunSpec, progress func(Sample)) (*RunResult, error) {
	return runBatch(ctx, spec, progress, nil, 0, nil)
}

// runBatch is the one batch loop (DESIGN.md §16): each of the spec's runs
// goes through experiments.RunContext, window samples stream to progress
// (when non-nil), and the summaries fold into the result. from, when it is a
// checkpoint of this batch, supplies the runs already completed and the
// in-flight run's prefix; anything else about it is ignored and the batch (or
// the run) starts from scratch, which is always correct. With everyWins > 0
// the batch commits a checkpoint every everyWins windows of a run and at
// every run boundary, stamped run*windows + win.
func runBatch(ctx context.Context, spec RunSpec, progress func(Sample), from *jobCheckpoint, everyWins int, commit func(tick int64, jc *jobCheckpoint)) (*RunResult, error) {
	res := &RunResult{Spec: spec, Key: spec.CanonicalKey()}
	windows := int64(spec.DurationMs / spec.WindowMs)
	var resume *experiments.RunCheckpoint
	if from != nil && from.Run < spec.Runs && len(from.Runs) == from.Run {
		res.Runs, res.Series = from.Runs, from.Series
		if cp, err := centurion.DecodeCheckpoint(from.Platform); err == nil {
			resume = &experiments.RunCheckpoint{
				Win:       from.Win,
				Thr:       from.Thr,
				Act:       from.Act,
				Sw:        from.Sw,
				WaveSnaps: from.WaveSnaps,
				Platform:  cp,
			}
		}
	}
	for run := len(res.Runs); run < spec.Runs; run++ {
		espec := spec.toExperiment(run)
		var onWindow experiments.Progress
		if progress != nil {
			onWindow = func(w int, tp, active, switches float64) {
				progress(Sample{
					Run:         run,
					TimeMs:      float64(w) * float64(spec.WindowMs),
					Throughput:  tp,
					NodesActive: active,
					Switches:    switches,
				})
			}
		}
		var hook *experiments.CheckpointHook
		if everyWins > 0 {
			hook = &experiments.CheckpointHook{
				EveryWins: everyWins,
				Fn: func(_ int, cp *experiments.RunCheckpoint) error {
					commit(int64(run)*windows+int64(cp.Win), &jobCheckpoint{
						Run:       run,
						Runs:      res.Runs,
						Series:    res.Series,
						Win:       cp.Win,
						Thr:       cp.Thr,
						Act:       cp.Act,
						Sw:        cp.Sw,
						WaveSnaps: cp.WaveSnaps,
						Platform:  centurion.EncodeCheckpoint(cp.Platform),
					})
					// Commits are best-effort; lease loss surfaces as ctx
					// cancellation (a fencing rejection cancels the job ctx).
					return ctx.Err()
				},
			}
		}
		r, err := experiments.RunContext(ctx, espec, onWindow, resume, hook)
		resume = nil
		if err != nil {
			return nil, fmt.Errorf("run %d (seed %d): %w", run, espec.Seed, err)
		}
		res.Runs = append(res.Runs, runSummaryOf(&r))
		if run == 0 {
			res.Series = &Series{
				WindowMs:    r.Throughput.WindowMs,
				Throughput:  r.Throughput.Values,
				NodesActive: r.NodesActive.Values,
				Switches:    r.Switches.Values,
			}
		}
		if everyWins > 0 && run+1 < spec.Runs {
			// Run boundary: the next run starts fresh (no platform), but the
			// completed summaries are safe.
			commit(int64(run+1)*windows, &jobCheckpoint{Run: run + 1, Runs: res.Runs, Series: res.Series})
		}
	}
	res.Aggregate = aggregate(res.Runs)
	if spec.Runs > 1 {
		// Batch payloads stay summary-sized; the series is a single-run
		// affordance.
		res.Series = nil
	}
	return res, nil
}

// runSummaryOf reduces one run's experiment result to its summary row.
func runSummaryOf(r *experiments.Result) RunSummary {
	sum := RunSummary{
		Seed:               r.Spec.Seed,
		SettlingMs:         r.SettlingMs,
		Settled:            r.Settled,
		RecoveryMs:         r.RecoveryMs,
		Recovered:          r.Recovered,
		SteadyRate:         r.SteadyRate,
		PostFaultRate:      r.PostFaultRate,
		InstancesCompleted: r.Counters.InstancesCompleted,
		TaskSwitches:       r.Counters.TaskSwitches,
		PacketsDropped:     r.Counters.PacketsDropped,
		ByzMisrouted:       r.ByzMisrouted,
		ByzDropped:         r.ByzDropped,
		ByzDuplicated:      r.ByzDuplicated,
	}
	for _, wv := range r.Waves {
		sum.Waves = append(sum.Waves, WaveSummary{
			AtMs:       wv.AtMs,
			RecoveryMs: wv.RecoveryMs,
			Recovered:  wv.Recovered,
			Delivered:  wv.Delivered,
			Dropped:    wv.Dropped,
			Misrouted:  wv.Misrouted,
		})
	}
	return sum
}

// run executes the job's batch through the engine's executor (in-process
// or dispatched to a leased remote worker), streaming per-window samples to
// subscribers as they land and persisting the result durably.
func (e *Engine) run(j *Job) {
	e.mu.Lock()
	j.State = JobRunning
	e.running++
	exec := e.exec
	st := e.store
	e.mu.Unlock()

	start := time.Now()
	res, err := exec(e.ctx, j.spec, j.stream.publish)
	elapsed := time.Since(start)
	if err == nil {
		e.cache.Put(j.Key, res)
		if st != nil {
			// A store failure must not fail the job: the result is correct,
			// it just will not survive a restart.
			if raw, merr := json.Marshal(res); merr == nil {
				_ = st.Put(j.Key, raw)
			}
		}
	}

	e.mu.Lock()
	e.running--
	// EWMA (α=1/5) of executed-job wall time: the figure queue-full
	// Retry-After advice is derived from.
	if e.meanLatency == 0 {
		e.meanLatency = elapsed
	} else {
		e.meanLatency += (elapsed - e.meanLatency) / 5
	}
	e.finish(j, res, err)
	e.mu.Unlock()
}

// aggregate folds per-run summaries into mean ± 95% CI statistics.
func aggregate(runs []RunSummary) Aggregate {
	steady := make([]float64, 0, len(runs))
	post := make([]float64, 0, len(runs))
	var settle, recov []float64
	for _, r := range runs {
		steady = append(steady, r.SteadyRate)
		post = append(post, r.PostFaultRate)
		if r.Settled {
			settle = append(settle, r.SettlingMs)
		}
		if r.Recovered {
			recov = append(recov, r.RecoveryMs)
		}
	}
	agg := Aggregate{Runs: len(runs), SettledRuns: len(settle), RecoveredRuns: len(recov)}
	agg.SteadyRate.Mean, agg.SteadyRate.CI95 = metrics.MeanCI(steady)
	agg.PostFaultRate.Mean, agg.PostFaultRate.CI95 = metrics.MeanCI(post)
	if len(settle) > 0 {
		agg.SettlingMs.Mean, agg.SettlingMs.CI95 = metrics.MeanCI(settle)
	}
	if len(recov) > 0 {
		agg.RecoveryMs.Mean, agg.RecoveryMs.CI95 = metrics.MeanCI(recov)
	}
	return agg
}
