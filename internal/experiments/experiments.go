// Package experiments defines and runs the paper's evaluation: Table I
// (settling time and relative performance without faults), Table II
// (recovery time and relative performance after fault injection at 500 ms)
// and Figure 4 (throughput and task-switch time series for 5- and 42-fault
// cases), each over many independently seeded runs.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"centurion/internal/aim"
	"centurion/internal/centurion"
	"centurion/internal/faults"
	"centurion/internal/metrics"
	"centurion/internal/picoblaze"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// Model selects the runtime-management scheme of a run.
type Model int

const (
	// ModelNone is the paper's no-intelligence reference: the heuristic
	// fixed mapping (minimised Manhattan distance) with no adaptation.
	ModelNone Model = iota
	// ModelNI is the Network Interaction scheme from a random initial
	// mapping.
	ModelNI
	// ModelFFW is the Foraging for Work scheme from a random initial
	// mapping.
	ModelFFW
	// ModelRandomStatic is an ablation: the adaptive models' random initial
	// mapping with the intelligence disabled.
	ModelRandomStatic
	// ModelNIPB is the Network Interaction scheme run as assembled code on
	// an emulated PicoBlaze core at every router: excitation-only, so NI's
	// inhibition and neighbour weights do not apply.
	ModelNIPB
)

// Models lists the paper's three schemes in table order.
var Models = []Model{ModelNone, ModelNI, ModelFFW}

// models is the one model table, indexed by Model: the wire name shared by
// the service's run specs, the CLI's -model flag and the figure's CSV
// headers, and the title of the paper's tables.
var models = [...]struct{ name, title string }{
	ModelNone:         {"none", "No Intelligence"},
	ModelNI:           {"ni", "Network Interaction"},
	ModelFFW:          {"ffw", "Foraging For Work"},
	ModelRandomStatic: {"random-static", "Random Static"},
	ModelNIPB:         {"ni-pb", "Network Interaction (PicoBlaze)"},
}

// ModelNames joins every wire name in model order with sep, for usage and
// error texts.
func ModelNames(sep string) string {
	names := make([]string, len(models))
	for m, d := range models {
		names[m] = d.name
	}
	return strings.Join(names, sep)
}

// ParseModel resolves a wire name.
func ParseModel(name string) (Model, error) {
	for m, d := range models {
		if d.name == name {
			return Model(m), nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (want %s)", name, ModelNames(", "))
}

// Name returns the model's wire name ("ffw").
func (m Model) Name() string { return models[m].name }

// String names the model as in the paper's tables.
func (m Model) String() string { return models[m].title }

// Spec configures one run.
type Spec struct {
	Model Model
	Seed  uint64
	// DurationMs is the run length (the paper plots 1000 ms).
	DurationMs int
	// FaultAtMs injects NumFaults random node failures at this time
	// (0 disables fault injection).
	FaultAtMs int
	NumFaults int
	// FaultProfile, when non-nil, compiles into a full hostile-environment
	// fault schedule (death, churn, flaky links, cascades, byzantine
	// routers — see faults.Profile) executed through the event queue. It is
	// mutually exclusive with the FaultAtMs/NumFaults pair, which is
	// shorthand for a death profile (see faultProfile).
	FaultProfile *faults.Profile
	// WindowMs is the metric sampling window (1 ms by default).
	WindowMs int
	// Overrides for ablation studies (nil = experiment defaults).
	NI  *aim.NIParams
	FFW *aim.FFWParams
	// NeighborSignals enables the information-transfer extension.
	NeighborSignals bool
	// Mapper overrides the model's default initial mapping (ablations).
	Mapper taskgraph.Mapper
	// Platform-level overrides (zero values = defaults).
	Width, Height int
	// Topology selects the fabric shape: "mesh" (default, the paper's
	// Centurion-V6), "torus" or "cmesh".
	Topology string
	// Graph overrides the application task graph (nil = the paper's
	// fork–join workload).
	Graph *taskgraph.Graph
	// Thermal, when non-nil, enables the per-node temperature model.
	Thermal *thermal.Params
	// ThermalDVFS enables the frequency-scaling governor (needs Thermal).
	ThermalDVFS bool
}

// DefaultSpec returns the paper's experiment shape for a model and seed.
func DefaultSpec(model Model, seed uint64) Spec {
	return Spec{
		Model:      model,
		Seed:       seed,
		DurationMs: 1000,
		WindowMs:   1,
	}
}

// Result holds the measured series and summary figures of one run.
type Result struct {
	Spec Spec

	// Throughput is completed fork–join instances per window.
	Throughput *metrics.Series
	// NodesActive is the number of nodes that did useful work per window.
	NodesActive *metrics.Series
	// Switches is task switches per window summed over the grid.
	Switches *metrics.Series

	// SettlingMs is the settling time from t=0 (Table I).
	SettlingMs float64
	Settled    bool
	// RecoveryMs is the recovery time from fault injection (Table II);
	// meaningful only when the spec injects faults.
	RecoveryMs float64
	Recovered  bool

	// SteadyRate is the mean throughput per ms over the steady tail of the
	// pre-fault (or whole, when fault-free) segment.
	SteadyRate float64
	// PostFaultRate is the mean throughput per ms over the tail of the
	// post-fault segment (equals SteadyRate when fault-free).
	PostFaultRate float64

	// Resilience measures, populated when the run executes a fault profile.
	// ByzMisrouted/ByzDropped/ByzDuplicated are the fabric's byzantine
	// interference totals; Waves is the per-milestone re-settling record —
	// one entry per structural disruption (kill wave, revival, byzantine
	// arming) of the schedule.
	ByzMisrouted  uint64
	ByzDropped    uint64
	ByzDuplicated uint64
	Waves         []WaveRecovery

	Counters centurion.Counters
}

// WaveRecovery is the post-event resilience record of one fault-schedule
// milestone: how long the platform took to re-settle after the disruption
// (measured to the next milestone or the end of the run, per the paper's
// Table-II settling criterion) and the fabric traffic accounted during that
// segment.
type WaveRecovery struct {
	// AtMs is the disruption time, aligned down to the metric window.
	AtMs int
	// RecoveryMs is the re-settling time from the disruption; Recovered is
	// false when throughput never re-settled before the segment ended.
	RecoveryMs float64
	Recovered  bool
	// Delivered, Dropped and Misrouted are fabric counts within the
	// segment (misroutes are byzantine interference events).
	Delivered uint64
	Dropped   uint64
	Misrouted uint64
}

// Measurement-buffer recycling: every run needs three window series and a
// per-node work snapshot; sweeps execute thousands of runs, so the buffers
// come from shared pools and go back once the caller has reduced the series
// to scalars (Result.Release).
var (
	runSeries   metrics.SeriesPool
	workScratch = sync.Pool{New: func() any { return new([]uint64) }}
)

// Release recycles the result's series buffers for reuse by later runs. Call
// it only when done with Throughput/NodesActive/Switches — the slices are
// invalid afterwards (the summary scalars remain usable). Safe to call on
// results that never had series (cancelled runs) and at most once.
func (r *Result) Release() {
	runSeries.Put(r.Throughput)
	runSeries.Put(r.NodesActive)
	runSeries.Put(r.Switches)
	r.Throughput, r.NodesActive, r.Switches = nil, nil, nil
}

// niParams returns the spec's effective Network Interaction parameters.
func (s Spec) niParams() aim.NIParams {
	if s.NI != nil {
		return *s.NI
	}
	return aim.DefaultNIParams()
}

// ffwParams returns the spec's effective Foraging for Work parameters.
func (s Spec) ffwParams() aim.FFWParams {
	if s.FFW != nil {
		return *s.FFW
	}
	return aim.DefaultFFWParams()
}

// engineFactory returns the AIM factory for the spec.
func (s Spec) engineFactory() aim.Factory {
	switch s.Model {
	case ModelNI:
		return aim.NewNIFactory(s.niParams())
	case ModelNIPB:
		return picoblaze.NewNIEngineFactory(s.niParams())
	case ModelFFW:
		return aim.NewFFWFactory(s.ffwParams())
	default:
		return aim.NewNone
	}
}

// mapper returns the initial mapping strategy for the spec.
func (s Spec) mapper() taskgraph.Mapper {
	if s.Mapper != nil {
		return s.Mapper
	}
	if s.Model == ModelNone {
		return taskgraph.HeuristicMapper{}
	}
	return taskgraph.RandomMapper{}
}

// Progress observes a run window by window: w is the window index and
// throughput, nodesActive and switches are that window's samples. It is the
// hook the serving layer uses to stream Figure-4-style series live.
type Progress func(w int, throughput, nodesActive, switches float64)

// Run executes one experiment run from tick zero to completion.
func Run(spec Spec) Result {
	res, _ := RunContext(context.Background(), spec, nil, nil, nil)
	return res
}

// faultProfile returns the spec's fault plan as a profile: the explicit one,
// or the FaultAtMs/NumFaults pair as the single death wave it denotes (same
// fault-site draws, same kill instant). nil means fault-free. Every fault
// reaches the platform through faults.Build + ApplySchedule.
func faultProfile(spec Spec) *faults.Profile {
	if spec.FaultProfile == nil && spec.NumFaults > 0 && spec.FaultAtMs > 0 {
		return &faults.Profile{Kind: faults.KindDeath, AtMs: spec.FaultAtMs, Nodes: spec.NumFaults}
	}
	return spec.FaultProfile
}

// RunContext executes one experiment run — the single spec-execution path
// behind the table/figure harness, the server's job engine and the dispatch
// workers. It checks ctx between metric windows and reports each finished
// window to progress (when non-nil); on cancellation it returns the partially
// filled result together with the context's error. A non-nil resume that is a
// prefix of this run (see fits) starts the run at its boundary, replaying the
// prefix to progress; a non-nil hook emits checkpoints as the run advances.
func RunContext(ctx context.Context, spec Spec, progress Progress, resume *RunCheckpoint, hook *CheckpointHook) (Result, error) {
	if spec.DurationMs <= 0 {
		spec.DurationMs = 1000
	}
	if spec.WindowMs <= 0 {
		spec.WindowMs = 1
	}
	windows := spec.DurationMs / spec.WindowMs
	windowTicks := sim.Tick(spec.WindowMs) * sim.TicksPerMs
	res := Result{
		Spec:        spec,
		Throughput:  runSeries.Get(float64(spec.WindowMs), windows),
		NodesActive: runSeries.Get(float64(spec.WindowMs), windows),
		Switches:    runSeries.Get(float64(spec.WindowMs), windows),
	}
	prof := faultProfile(spec)

	// Start from a prefix when there is one: the boundary a previous attempt
	// committed, else the settled prefix a sibling variant cached (warm start,
	// DESIGN.md §15) — or mark the prefix for caching as this run passes the
	// divergence boundary. A resumed run bypasses the warm-start machinery:
	// its prefix is already decided. A fault-free run's settled prefix is the
	// whole run, so its lookup comes before a platform is leased: a hit
	// replays the cached samples and counters and leases nothing.
	from := resume
	var buildKey warmKey
	buildDiv := 0
	looked := prof == nil && !from.fits(windows, windowTicks, nil)
	if looked {
		if from, buildKey, buildDiv = warmLookup(spec, faults.Schedule{}, windows, windowTicks); from != nil {
			return res.replay(from, prof, progress), nil
		}
	}

	// Lease a pooled platform (reset in place for this seed) instead of
	// assembling a fresh one; the release hands it back for the next run.
	p, release := leasePlatform(spec)
	defer release()
	ctl := centurion.NewController(p)

	// Fault plan through the controller's debug interface: the profile
	// compiles into a schedule (its fault-site RNG stream is derived from the
	// seed but independent of the platform's own). The plan is built here but
	// armed only after the warm-start decision below: restoring a checkpoint
	// clears the event queue, so the schedule must land after any fork
	// (ApplySchedule skips already-fired events; nothing fires before the
	// divergence boundary by construction).
	var sched faults.Schedule
	if prof != nil {
		var err error
		sched, err = faults.Build(p.Topo, spec.Seed, *prof, spec.DurationMs)
		if err != nil {
			res.Release()
			return res, err
		}
	}

	// Milestone boundaries (window indices where the schedule structurally
	// disrupts the platform) partition the run into recovery segments; the
	// fabric counters are snapshotted at each boundary so per-wave traffic
	// is a pair of diffs.
	var waveWins []int
	for _, at := range sched.Milestones() {
		wi := int(at / windowTicks)
		if wi <= 0 || wi >= windows {
			continue
		}
		if n := len(waveWins); n == 0 || waveWins[n-1] != wi {
			waveWins = append(waveWins, wi)
		}
	}
	snapAt := func() NetSnap {
		ns := p.Net.Stats()
		return NetSnap{ns.Delivered, ns.Dropped, ns.ByzMisrouted}
	}
	waveSnaps := make([]NetSnap, 0, len(waveWins)+1)
	pes := p.PEs()
	workBuf := workScratch.Get().(*[]uint64)
	defer func() {
		workScratch.Put(workBuf)
	}()
	if cap(*workBuf) < len(pes) {
		*workBuf = make([]uint64, len(pes))
	}
	lastWork := (*workBuf)[:len(pes)]
	clear(lastWork)
	var lastCompleted, lastSwitches uint64

	if !looked && (!from.fits(windows, windowTicks, waveWins) || p.Restore(from.Platform) != nil) {
		// A resume checkpoint that is no prefix of this run, or whose
		// platform state Restore refuses, is discarded: the run starts from
		// a warm prefix or tick zero instead, which is always correct.
		var key warmKey
		var div int
		from, key, div = warmLookup(spec, sched, windows, windowTicks)
		switch {
		case from == nil:
		case from.Platform == nil:
			// A whole-run prefix: a fault plan that schedules no event, or a
			// fault-free run whose resume Restore refused.
			return res.replay(from, prof, progress), nil
		case p.Restore(from.Platform) != nil:
			from = nil
		}
		if from == nil {
			buildKey, buildDiv = key, div
		}
	}
	startWin := 0
	if from != nil {
		// The platform was restored above; the sampler baselines are
		// recomputed from the restored state (the watermark invariantly
		// equals the live value at a window boundary).
		startWin = from.Win
		res.startFrom(from, progress)
		waveSnaps = append(waveSnaps, from.WaveSnaps...)
		c := p.Counters()
		lastCompleted, lastSwitches = c.InstancesCompleted, c.TaskSwitches
		for i, pe := range pes {
			lastWork[i] = pe.WorkCount()
		}
	}

	// Arm the fault plan (on a fork: re-arm — the restore cleared the queue
	// and the events at or after the boundary are exactly the unfired ones).
	ctl.ApplySchedule(sched)

	for w := startWin; w < windows; w++ {
		if err := ctx.Err(); err != nil {
			res.Counters = p.Counters()
			return res, err
		}
		if len(waveSnaps) < len(waveWins) && waveWins[len(waveSnaps)] == w {
			waveSnaps = append(waveSnaps, snapAt())
		}
		p.RunFor(windowTicks, nil)
		c := p.Counters()
		res.Throughput.Values[w] = float64(c.InstancesCompleted - lastCompleted)
		res.Switches.Values[w] = float64(c.TaskSwitches - lastSwitches)
		lastCompleted, lastSwitches = c.InstancesCompleted, c.TaskSwitches
		active := 0
		for i, pe := range pes {
			if wc := pe.WorkCount(); wc != lastWork[i] {
				active++
				lastWork[i] = wc
			}
		}
		res.NodesActive.Values[w] = float64(active)
		if progress != nil {
			progress(w, res.Throughput.Values[w], res.NodesActive.Values[w], res.Switches.Values[w])
		}
		if w+1 == buildDiv {
			// The divergence boundary: every armed fault event is still in
			// the future, so the state is the variant-independent settled
			// prefix. Cache it for the sibling runs to fork from.
			warmCache.put(buildKey, capturePrefix(p, &res, waveSnaps, buildDiv, windows))
		}
		if hook != nil && hook.EveryWins > 0 && (w+1)%hook.EveryWins == 0 && w+1 < windows {
			if err := hook.Fn(w+1, capturePrefix(p, &res, waveSnaps, w+1, windows)); err != nil {
				res.Counters = p.Counters()
				return res, err
			}
		}
	}
	res.Counters = p.Counters()
	waveSnaps = append(waveSnaps, snapAt())
	if spec.FaultProfile != nil {
		// Byzantine totals and per-wave recovery are reported for explicit
		// profiles only: a FaultAtMs/NumFaults pair keeps its Result shape.
		ns := p.Net.Stats()
		res.ByzMisrouted = ns.ByzMisrouted
		res.ByzDropped = ns.ByzDropped
		res.ByzDuplicated = ns.ByzDuplicated
	}
	res.settle(prof, waveWins, waveSnaps)
	return res, nil
}

// warmLookup looks the spec's settled prefix up in the warm-start cache. It
// returns the cached prefix, if there is one, and the key and boundary at
// which this run caches its own; div 0 means the spec has no prefix to share.
func warmLookup(spec Spec, sched faults.Schedule, windows int, windowTicks sim.Tick) (*RunCheckpoint, warmKey, int) {
	if !warmApplicable(spec) {
		return nil, warmKey{}, 0
	}
	div := warmDivergenceWin(sched, windows, windowTicks)
	if div <= 0 {
		return nil, warmKey{}, 0
	}
	key := warmKeyOf(spec, div, windows)
	return warmCache.get(key), key, div
}

// startFrom copies a prefix's samples into the result and replays them to
// progress, so the stream a submitter sees covers every window once.
func (res *Result) startFrom(from *RunCheckpoint, progress Progress) {
	copy(res.Throughput.Values, from.Thr)
	copy(res.NodesActive.Values, from.Act)
	copy(res.Switches.Values, from.Sw)
	if progress != nil {
		for w := 0; w < from.Win; w++ {
			progress(w, res.Throughput.Values[w], res.NodesActive.Values[w], res.Switches.Values[w])
		}
	}
}

// replay answers a run whose settled prefix is the whole run from the cached
// samples and final counters; no platform is involved. Such a run schedules
// no fault event, so it has no waves and no byzantine traffic to report.
func (res *Result) replay(from *RunCheckpoint, prof *faults.Profile, progress Progress) Result {
	res.startFrom(from, progress)
	res.Counters = from.counters
	res.settle(prof, nil, nil)
	return *res
}

// settle derives the summary figures from the run's samples: settling time
// and steady rate before the fault plan starts, recovery and post-fault rate
// after it, and one recovery record per wave of an explicit profile.
func (res *Result) settle(prof *faults.Profile, waveWins []int, waveSnaps []NetSnap) {
	spec := res.Spec
	windows := res.Throughput.Len()
	par := metrics.DefaultSettleParams()
	faultIdx := windows
	if prof != nil {
		// The profile has been validated by Build; its normalized start time
		// splits steady from hostile.
		norm, _ := prof.Normalized(spec.DurationMs)
		if fi := norm.AtMs / spec.WindowMs; fi > 0 && fi < windows {
			faultIdx = fi
		}
	}
	if spec.FaultProfile != nil {
		for i, start := range waveWins {
			end := windows
			if i+1 < len(waveWins) {
				end = waveWins[i+1]
			}
			rec := WaveRecovery{
				AtMs:      start * spec.WindowMs,
				Delivered: waveSnaps[i+1].Delivered - waveSnaps[i].Delivered,
				Dropped:   waveSnaps[i+1].Dropped - waveSnaps[i].Dropped,
				Misrouted: waveSnaps[i+1].Misrouted - waveSnaps[i].Misrouted,
			}
			rec.RecoveryMs, rec.Recovered = metrics.SettlingTime(res.Throughput, start, end, par)
			res.Waves = append(res.Waves, rec)
		}
	}
	res.SettlingMs, res.Settled = metrics.SettlingTime(res.Throughput, 0, faultIdx, par)
	res.SteadyRate = res.Throughput.MeanRange(faultIdx-faultIdx/4, faultIdx) / float64(spec.WindowMs)
	if faultIdx < windows {
		res.RecoveryMs, res.Recovered = metrics.SettlingTime(res.Throughput, faultIdx, windows, par)
		res.PostFaultRate = res.Throughput.MeanRange(windows-(windows-faultIdx)/3, windows) / float64(spec.WindowMs)
	} else {
		res.PostFaultRate = res.SteadyRate
	}
}

// RunMany executes n runs of the spec with seeds seedBase..seedBase+n-1 in
// parallel across CPUs. Results are ordered by seed.
func RunMany(spec Spec, n int, seedBase uint64) []Result {
	out := make([]Result, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := spec
				s.Seed = seedBase + uint64(i)
				out[i] = Run(s)
			}
		}()
	}
	wg.Wait()
	return out
}
