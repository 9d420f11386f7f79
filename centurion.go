package centurion

import (
	"context"
	"fmt"
	"io"

	"centurion/internal/aim"
	platform "centurion/internal/centurion"
	"centurion/internal/experiments"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/server"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// Model selects a runtime-management scheme.
type Model = experiments.Model

// The paper's runtime-management schemes.
const (
	// ModelNone is the no-intelligence reference: heuristic fixed mapping,
	// no adaptation.
	ModelNone = experiments.ModelNone
	// ModelNI is the Network Interaction scheme.
	ModelNI = experiments.ModelNI
	// ModelFFW is the Foraging for Work scheme.
	ModelFFW = experiments.ModelFFW
	// ModelRandomStatic is the adaptive models' random initial mapping with
	// adaptation disabled (an ablation).
	ModelRandomStatic = experiments.ModelRandomStatic
	// ModelNIPB is the Network Interaction pathway hosted as assembled code
	// on the emulated PicoBlaze core at every router.
	ModelNIPB = experiments.ModelNIPB
)

// Graph identifies a built-in application workload.
type Graph int

// Built-in workloads.
const (
	// GraphForkJoin is the paper's Figure 3 workload (1:3:1).
	GraphForkJoin Graph = iota
	// GraphPipeline is a 4-stage linear pipeline.
	GraphPipeline
	// GraphDiamond is a two-path fork/join diamond.
	GraphDiamond
)

// config collects the functional options: the run they describe, and the
// one escape from its model's engines.
type config struct {
	spec    experiments.Spec
	factory aim.Factory
}

// Option configures a System.
type Option func(*config)

// WithModel selects the runtime-management scheme (default ModelNone).
func WithModel(m Model) Option { return func(c *config) { c.spec.Model = m } }

// WithSeed sets the run's random seed (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.spec.Seed = seed } }

// WithSize sets the node-grid dimensions (default 16×8 — Centurion-V6's 128
// nodes).
func WithSize(w, h int) Option {
	return func(c *config) { c.spec.Width, c.spec.Height = w, h }
}

// WithTopology selects the fabric shape: "mesh" (default), "torus"
// (wrap-around links) or "cmesh" (concentrated mesh — 2×2 clusters of
// processing elements share one router; requires even dimensions).
// NewSystem panics on an unknown or invalid shape, exactly like an invalid
// custom graph.
func WithTopology(kind string) Option {
	return func(c *config) { c.spec.Topology = kind }
}

// WithGraph selects a built-in workload (default GraphForkJoin).
func WithGraph(g Graph) Option {
	return func(c *config) {
		switch g {
		case GraphPipeline:
			c.spec.Graph = taskgraph.Pipeline(4, 120, 24)
		case GraphDiamond:
			c.spec.Graph = taskgraph.Diamond(120, 24)
		default:
			c.spec.Graph = taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams())
		}
	}
}

// WithCustomGraph installs a caller-built task graph (validated).
func WithCustomGraph(g *taskgraph.Graph) Option {
	return func(c *config) { c.spec.Graph = g }
}

// WithNeighborSignals enables the information-transfer extension: AIMs
// announce task switches to their four mesh neighbours.
func WithNeighborSignals() Option {
	return func(c *config) { c.spec.NeighborSignals = true }
}

// WithEngineFactory installs a custom intelligence-engine factory (one
// aim.Engine per node), overriding the model's engines; the model still
// selects the initial mapping (heuristic for ModelNone, random otherwise).
// Use it to experiment with new stimulus–threshold pathways on the same
// platform.
func WithEngineFactory(f aim.Factory) Option {
	return func(c *config) { c.factory = f }
}

// WithThermal enables the per-node temperature model (the AIM's temperature
// monitor). Pass thermal.DefaultParams() for the standard calibration.
func WithThermal(p thermal.Params) Option {
	return func(c *config) { c.spec.Thermal = &p }
}

// WithThermalDVFS additionally enables the frequency-scaling governor:
// nodes above the safe temperature run at half frequency until they cool.
// Implies WithThermal when no thermal parameters were set.
func WithThermalDVFS() Option {
	return func(c *config) {
		c.spec.ThermalDVFS = true
		if c.spec.Thermal == nil {
			p := thermal.DefaultParams()
			c.spec.Thermal = &p
		}
	}
}

// WithNIParams overrides the Network Interaction parameters (ModelNI and
// ModelNIPB).
func WithNIParams(p aim.NIParams) Option {
	return func(c *config) { c.spec.NI = &p }
}

// WithFFWParams overrides the Foraging for Work parameters.
func WithFFWParams(p aim.FFWParams) Option {
	return func(c *config) { c.spec.FFW = &p }
}

// System is one assembled Centurion platform run.
type System struct {
	p   *platform.Platform
	ctl *platform.Controller
}

// NewSystem assembles a platform with the given options, through the same
// translation from model, seed, grid and workload to a platform as every
// run of the experiment harness and the service.
func NewSystem(opts ...Option) *System {
	c := config{spec: experiments.Spec{Model: ModelNone, Seed: 1}}
	for _, o := range opts {
		o(&c)
	}
	cfg := c.spec.PlatformConfig()
	if c.factory != nil {
		cfg.Engines = c.factory
	}
	p := platform.New(cfg)
	return &System{p: p, ctl: platform.NewController(p)}
}

// RunMs advances the simulation by the given number of simulated
// milliseconds.
func (s *System) RunMs(ms float64) {
	s.p.RunFor(sim.Ms(ms), nil)
}

// NowMs returns the current simulated time in milliseconds.
func (s *System) NowMs() float64 { return s.p.Now().Milliseconds() }

// Throughput returns the number of completed application instances.
func (s *System) Throughput() uint64 { return s.p.Counters().InstancesCompleted }

// Counters returns the platform's cumulative accounting.
func (s *System) Counters() platform.Counters { return s.p.Counters() }

// TaskCounts returns, indexed by task ID, how many alive nodes currently run
// each task (index 0 counts idle nodes).
func (s *System) TaskCounts() []int {
	return s.p.Dir.Counts(s.p.Graph.MaxTaskID())
}

// InjectRegionFault kills every node within the given topology distance of
// the epicentre at grid coordinate (x, y) — a localised thermal hot-spot
// shaped by the fabric's own metric (wrap-aware on a torus, cluster-granular
// on a concentrated mesh). An epicentre outside the grid is off-die and
// kills nothing.
func (s *System) InjectRegionFault(x, y, radius int) {
	c := noc.Coord{X: x, Y: y}
	if !s.p.Topo.InBounds(c) {
		return
	}
	s.p.InjectFaults(faults.Region(s.p.Topo, s.p.Topo.ID(c), radius))
}

// FaultProfile describes a hostile-environment schedule — death, churn,
// flaky links, cascading regional failures or byzantine routers. See
// internal/faults for field semantics; zero fields take per-kind defaults.
type FaultProfile = faults.Profile

// ApplyFaultProfile compiles the profile into a deterministic fault
// schedule for this system's topology and arranges every event on the
// simulation queue. durationMs bounds the timeline (events at or beyond it
// never fire). Equal (topology, seed, profile, duration) always yields a
// bit-identical schedule. Call it once, before running. Random node faults
// are the death profile {Kind: "death", AtMs: T, Nodes: N}: with the run's
// seed and length it kills what a served spec's num_faults/fault_at_ms pair
// kills.
func (s *System) ApplyFaultProfile(p FaultProfile, seed uint64, durationMs int) error {
	sched, err := faults.Build(s.p.Topo, seed, p, durationMs)
	if err != nil {
		return fmt.Errorf("centurion: fault profile: %w", err)
	}
	s.ctl.ApplySchedule(sched)
	return nil
}

// AliveNodes returns the number of functioning nodes.
func (s *System) AliveNodes() int {
	n := 0
	for id := noc.NodeID(0); int(id) < s.p.Topo.Nodes(); id++ {
		if s.p.Net.Alive(id) {
			n++
		}
	}
	return n
}

// Controller exposes the experiment controller (RCAP configuration uploads,
// runtime data readout).
func (s *System) Controller() *platform.Controller { return s.ctl }

// Platform exposes the underlying platform for advanced use (package
// internal/centurion).
func (s *System) Platform() *platform.Platform { return s.p }

// Thermal returns the temperature model, or nil when not enabled.
func (s *System) Thermal() *thermal.Model { return s.p.Thermal() }

// MapASCII renders the current task mapping as a W×H character grid
// (sources '1'..'9', dead nodes 'x', idle '.').
func (s *System) MapASCII() string {
	topo := s.p.Topo
	out := make([]byte, 0, (topo.Width()+1)*topo.Height())
	for y := 0; y < topo.Height(); y++ {
		for x := 0; x < topo.Width(); x++ {
			id := topo.ID(noc.Coord{X: x, Y: y})
			switch {
			case !s.p.Net.Alive(id):
				out = append(out, 'x')
			case s.p.Dir.TaskOf(id) == taskgraph.None:
				out = append(out, '.')
			default:
				out = append(out, byte('0'+int(s.p.Dir.TaskOf(id))%10))
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}

// --- Experiment harness entry points ---

// Table1Result is the Table I reproduction output.
type Table1Result = experiments.Table1Result

// Table2Result is the Table II reproduction output.
type Table2Result = experiments.Table2Result

// Fig4Result is the Figure 4 reproduction output.
type Fig4Result = experiments.Fig4Result

// RunTable1 regenerates Table I with the given number of runs per model.
func RunTable1(runs int, seedBase uint64) Table1Result {
	return experiments.Table1(runs, seedBase)
}

// RunTable2 regenerates Table II with the paper's fault counts.
func RunTable2(runs int, seedBase uint64) Table2Result {
	return experiments.Table2(runs, seedBase, nil)
}

// RunFig4 regenerates one Figure 4 column (the paper uses 5 and 42 faults).
func RunFig4(faultCount int, seed uint64) Fig4Result {
	return experiments.Fig4(faultCount, seed)
}

// WriteFig4CSV runs a Figure 4 column and writes its series as CSV.
func WriteFig4CSV(w io.Writer, faultCount int, seed uint64) error {
	f := experiments.Fig4(faultCount, seed)
	defer f.Release()
	if err := f.WriteCSV(w); err != nil {
		return fmt.Errorf("centurion: writing figure 4 CSV: %w", err)
	}
	return nil
}

// --- Simulation-as-a-service entry points ---

// ServiceSpec is the service's JSON run specification: any model × graph ×
// mesh size × fault plan × thermal configuration, plus a batch size for
// mean ± CI aggregation. See internal/server.RunSpec for field semantics.
type ServiceSpec = server.RunSpec

// ServiceResult is a finished service run: per-run summaries, batch
// aggregates and (for single runs) the Figure-4-style time series.
type ServiceResult = server.RunResult

// ServeOptions sizes the simulation service (workers, queue, cache).
type ServeOptions = server.Options

// Service is the assembled simulation service: the job engine plus its
// REST API, usable as an http.Handler.
type Service = server.Server

// RunSpec canonicalizes, validates and executes one service spec
// synchronously, without standing up a server. Identical specs produce
// identical results.
func RunSpec(spec ServiceSpec) (*ServiceResult, error) {
	if err := spec.Canonicalize(); err != nil {
		return nil, fmt.Errorf("centurion: invalid run spec: %w", err)
	}
	res, err := server.Execute(context.Background(), spec, nil)
	if err != nil {
		return nil, fmt.Errorf("centurion: executing run spec: %w", err)
	}
	return res, nil
}

// NewServiceHandler assembles the simulation service as an http.Handler
// (POST /v1/runs, GET /v1/runs/{id}, SSE events, POST /v1/sweep, /healthz)
// for embedding in an existing server. Close the returned service to stop
// its in-process slots and coordinator.
func NewServiceHandler(opts ServeOptions) *Service {
	return server.New(opts)
}

// Serve runs the simulation service on addr until the listener fails
// (blocking). Zero options select the defaults: GOMAXPROCS in-process
// slots, a 256-job queue bound and a 128-entry LRU result cache.
func Serve(addr string, opts ServeOptions) error {
	return ServeContext(context.Background(), addr, opts)
}

// ServeContext is Serve with lifecycle control: cancelling ctx drains the
// service gracefully — the listener stops accepting, in-flight jobs finish
// (or their worker leases lapse), and the durable result store is closed
// cleanly.
func ServeContext(ctx context.Context, addr string, opts ServeOptions) error {
	return server.New(opts).ListenAndServeContext(ctx, addr)
}
