// Package server exposes the Centurion simulator as a long-running service:
// a JSON run-spec codec and validator, a bounded worker-pool job engine with
// an LRU result cache, and a stdlib net/http REST API (POST /v1/runs,
// GET /v1/runs/{id}, an SSE progress stream, a batch sweep endpoint and
// /healthz). Identical canonical specs are served from the cache without
// re-simulating, so the service stays deterministic: same spec ⇒ same
// result, however many clients ask.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"centurion/internal/aim"
	"centurion/internal/experiments"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// Validation bounds: generous enough for any experiment in the paper (and
// far beyond), tight enough that one request cannot wedge a worker forever
// — MaxTotalMs caps a request's simulated time across its whole batch, and
// because a grid side may now reach 1024 (the tiled kernel's mega-fabric
// ceiling), MaxNodeMs additionally caps simulated time × fabric size: the
// budget equals MaxTotalMs on the default 128-node grid, so a 65k-node
// fabric gets proportionally fewer node-milliseconds, not a free 512×
// multiplier on worker time.
const (
	MaxMeshDim    = 1024
	MaxDurationMs = 60000
	MaxRuns       = 1000
	MaxTotalMs    = 600000
	MaxNodeMs     = int64(MaxTotalMs) * 128
)

// NISpec overrides the Network Interaction parameters of a run. Omitted
// fields keep the paper defaults — {"threshold": 60} means "default NI
// with a higher threshold", not an ablated model.
type NISpec struct {
	Threshold      *int  `json:"threshold,omitempty"`
	InhibitWeight  *int  `json:"inhibit_weight,omitempty"`
	InternalWeight *int  `json:"internal_weight,omitempty"`
	NeighborWeight *int  `json:"neighbor_weight,omitempty"`
	PinSources     *bool `json:"pin_sources,omitempty"`
}

// normalize drops degenerate values (the engines fall back to the defaults
// for them anyway) and collapses an all-default override to nil, so
// equivalent specs share one canonical form. It never mutates n.
func (n *NISpec) normalize() *NISpec {
	if n == nil {
		return nil
	}
	c := *n
	if c.Threshold != nil && *c.Threshold <= 0 {
		c.Threshold = nil
	}
	if c.Threshold == nil && c.InhibitWeight == nil && c.InternalWeight == nil &&
		c.NeighborWeight == nil && c.PinSources == nil {
		return nil
	}
	return &c
}

// FFWSpec overrides the Foraging for Work parameters of a run. Omitted
// fields keep the paper defaults.
type FFWSpec struct {
	TimeoutMs  *float64 `json:"timeout_ms,omitempty"`
	ArmOnLapse *bool    `json:"arm_on_lapse,omitempty"`
	PinSources *bool    `json:"pin_sources,omitempty"`
}

// normalize is the FFW counterpart of NISpec.normalize.
func (f *FFWSpec) normalize() *FFWSpec {
	if f == nil {
		return nil
	}
	c := *f
	if c.TimeoutMs != nil && *c.TimeoutMs <= 0 {
		c.TimeoutMs = nil
	}
	if c.TimeoutMs == nil && c.ArmOnLapse == nil && c.PinSources == nil {
		return nil
	}
	return &c
}

// RunSpec is the service's wire format for one simulation request: any
// model × graph × mesh size × fault plan × thermal configuration the
// simulator supports. Zero values mean "experiment default"; Canonicalize
// fills them in so that equivalent requests share one canonical form.
type RunSpec struct {
	// Model is the runtime-management scheme by its wire name in
	// experiments.ParseModel's table: "none", "ni", "ffw", "random-static"
	// or "ni-pb" (default "none").
	Model string `json:"model"`
	// Seed is the base random seed (default 1). Runs beyond the first in a
	// batch use Seed+1, Seed+2, … — the same deterministic derivation as
	// the table harness.
	Seed uint64 `json:"seed"`
	// Runs is the batch size: independently seeded repetitions aggregated
	// into mean ± 95% CI summaries (default 1).
	Runs int `json:"runs"`
	// DurationMs is the simulated run length (default 1000, the paper's
	// plots).
	DurationMs int `json:"duration_ms"`
	// WindowMs is the metric sampling window (default 1).
	WindowMs int `json:"window_ms"`
	// Width, Height are the node-grid dimensions (default 16×8,
	// Centurion-V6; up to 1024×1024 through the tiled mega-fabric kernel,
	// subject to the node-ms budget). Each shape canonicalizes to its own
	// spec — and therefore its own cache key.
	Width  int `json:"width"`
	Height int `json:"height"`
	// Topology selects the fabric shape: "mesh", "torus" or "cmesh"
	// (default "mesh"). cmesh concentrates 2×2 clusters of processing
	// elements onto shared routers and therefore needs even dimensions.
	Topology string `json:"topology"`
	// Graph selects the workload: "forkjoin", "pipeline" or "diamond"
	// (default "forkjoin", the paper's Figure 3 shape).
	Graph string `json:"graph"`
	// FaultAtMs injects NumFaults random node failures at this time;
	// 0 disables fault injection.
	FaultAtMs int `json:"fault_at_ms"`
	NumFaults int `json:"num_faults"`
	// NeighborSignals enables the information-transfer extension.
	NeighborSignals bool `json:"neighbor_signals"`
	// Thermal enables the per-node temperature model; ThermalDVFS
	// additionally enables the frequency-scaling governor (implies
	// Thermal).
	Thermal     bool `json:"thermal"`
	ThermalDVFS bool `json:"thermal_dvfs"`
	// NI and FFW override the models' parameters; omitted fields (and a
	// nil block) keep the paper defaults.
	NI  *NISpec  `json:"ni,omitempty"`
	FFW *FFWSpec `json:"ffw,omitempty"`
	// FaultProfile selects a hostile-environment fault schedule (kinds:
	// death, churn, flaky, cascade, byzantine — see faults.Profile).
	// Mutually exclusive with the legacy fault_at_ms/num_faults pair; the
	// normalized profile is part of the canonical spec, so every distinct
	// profile gets its own cache key.
	FaultProfile *faults.Profile `json:"fault_profile,omitempty"`
}

// graphs enumerates the built-in workloads as shared singletons: graphs are
// immutable (and their memoized accessors race-safe), and the experiment
// runner identifies a platform by graph instance. Handing every run of a
// workload the same instance is what lets its jobs share pooled platforms
// and warm-start prefixes.
var graphs = map[string]*taskgraph.Graph{
	"forkjoin": taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams()),
	"pipeline": taskgraph.Pipeline(4, 120, 24),
	"diamond":  taskgraph.Diamond(120, 24),
}

// decodeObject decodes data as exactly one JSON object into v, refusing
// unknown fields. It also refuses a bare null (which would leave v all
// defaults) and any bytes after the object, both of which
// json.Decoder.Decode lets through.
func decodeObject(data []byte, v any) error {
	if b := bytes.TrimLeft(data, " \t\r\n"); len(b) == 0 || b[0] != '{' {
		return errors.New("want one JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON object")
	}
	return nil
}

// ParseSpec decodes one JSON run-spec object, rejecting unknown fields and
// trailing bytes, and returns it canonicalized and validated. An empty
// object is the all-defaults spec.
func ParseSpec(data []byte) (RunSpec, error) {
	var s RunSpec
	if err := decodeObject(data, &s); err != nil {
		return s, fmt.Errorf("decoding run spec: %w", err)
	}
	if err := s.Canonicalize(); err != nil {
		return s, err
	}
	return s, nil
}

// Canonicalize fills experiment defaults in place and validates every
// field, so that two requests meaning the same experiment share one
// canonical form (and therefore one cache key).
func (s *RunSpec) Canonicalize() error {
	if s.Model == "" {
		s.Model = "none"
	}
	model, err := experiments.ParseModel(s.Model)
	if err != nil {
		return err
	}
	if s.Graph == "" {
		s.Graph = "forkjoin"
	}
	if _, ok := graphs[s.Graph]; !ok {
		return fmt.Errorf("unknown graph %q (want forkjoin, pipeline or diamond)", s.Graph)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Runs == 0 {
		s.Runs = 1
	}
	if s.Runs < 0 || s.Runs > MaxRuns {
		return fmt.Errorf("runs %d out of range [1, %d]", s.Runs, MaxRuns)
	}
	if s.DurationMs == 0 {
		s.DurationMs = 1000
	}
	if s.DurationMs < 0 || s.DurationMs > MaxDurationMs {
		return fmt.Errorf("duration_ms %d out of range [1, %d]", s.DurationMs, MaxDurationMs)
	}
	if s.Runs*s.DurationMs > MaxTotalMs {
		return fmt.Errorf("runs x duration_ms = %d exceeds the %d ms budget per request", s.Runs*s.DurationMs, MaxTotalMs)
	}
	if s.WindowMs == 0 {
		s.WindowMs = 1
	}
	if s.WindowMs < 0 || s.WindowMs > s.DurationMs {
		return fmt.Errorf("window_ms %d out of range [1, duration_ms]", s.WindowMs)
	}
	if s.DurationMs%s.WindowMs != 0 {
		return fmt.Errorf("window_ms %d must divide duration_ms %d evenly", s.WindowMs, s.DurationMs)
	}
	if s.Width == 0 {
		s.Width = 16
	}
	if s.Height == 0 {
		s.Height = 8
	}
	if s.Width < 2 || s.Width > MaxMeshDim || s.Height < 2 || s.Height > MaxMeshDim {
		return fmt.Errorf("grid %dx%d out of range [2, %d] per side", s.Width, s.Height, MaxMeshDim)
	}
	if nodeMs := int64(s.Runs) * int64(s.DurationMs) * int64(s.Width) * int64(s.Height); nodeMs > MaxNodeMs {
		return fmt.Errorf("runs x duration_ms x nodes = %d exceeds the %d node-ms budget per request", nodeMs, MaxNodeMs)
	}
	if s.Topology == "" {
		s.Topology = noc.KindMesh
	}
	// The noc layer owns the topology rules (valid kinds, cmesh evenness);
	// building the topology here is cheap and guarantees the worker can
	// never hit a construction panic on a spec this validator admitted.
	if _, err := noc.MakeTopology(s.Topology, s.Width, s.Height); err != nil {
		return err
	}
	if s.NumFaults < 0 || s.NumFaults >= s.Width*s.Height {
		return fmt.Errorf("num_faults %d out of range [0, %d)", s.NumFaults, s.Width*s.Height)
	}
	if s.NumFaults > 0 {
		if s.FaultAtMs <= 0 || s.FaultAtMs >= s.DurationMs {
			return fmt.Errorf("fault_at_ms %d must lie strictly inside (0, %d) when num_faults > 0", s.FaultAtMs, s.DurationMs)
		}
		if s.FaultAtMs%s.WindowMs != 0 {
			// Misaligned injection makes the pre-fault window range empty or
			// partial, yielding nonsense settling statistics.
			return fmt.Errorf("fault_at_ms %d must be a multiple of window_ms %d", s.FaultAtMs, s.WindowMs)
		}
	} else {
		// A fault time without faults is meaningless — normalize it away so
		// it cannot split the cache.
		s.FaultAtMs = 0
	}
	if s.FaultProfile != nil {
		if s.NumFaults > 0 {
			return fmt.Errorf("fault_profile and num_faults are mutually exclusive (a death profile subsumes the legacy pair)")
		}
		// Normalize into the canonical form (defaults resolved, inert
		// fields zeroed) so equivalent profiles share one cache key, and
		// validate the shape against this run length.
		prof, err := s.FaultProfile.Normalized(s.DurationMs)
		if err != nil {
			return err
		}
		if prof.Nodes >= s.Width*s.Height {
			return fmt.Errorf("fault_profile kills %d of %d nodes", prof.Nodes, s.Width*s.Height)
		}
		s.FaultProfile = &prof
	}
	if s.NumFaults > 0 || s.FaultProfile != nil {
		if err := CheckFaultGrid(s.Width, s.Height); err != nil {
			return err
		}
	}
	if s.ThermalDVFS {
		s.Thermal = true
	}
	// Overrides the selected model never reads must not split the cache:
	// {"model":"none","ffw":{...}} simulates identically to {"model":"none"}.
	if model != experiments.ModelNI && model != experiments.ModelNIPB {
		s.NI = nil
	}
	if model != experiments.ModelFFW {
		s.FFW = nil
	}
	// normalize copies before rewriting: the override structs may be shared
	// with the caller (centurion.RunSpec).
	s.NI = s.NI.normalize()
	s.FFW = s.FFW.normalize()
	if model == experiments.ModelNIPB && s.NI != nil {
		// The embedded pathway is excitation-only with an 8-bit threshold
		// register; refuse what it would silently ignore or clamp.
		if s.NI.InhibitWeight != nil || s.NI.NeighborWeight != nil {
			return fmt.Errorf("model ni-pb is excitation-only: inhibit_weight and neighbor_weight cannot be set")
		}
		if s.NI.Threshold != nil && *s.NI.Threshold > 255 {
			return fmt.Errorf("model ni-pb threshold %d exceeds its 8-bit register (max 255)", *s.NI.Threshold)
		}
	}
	return nil
}

// ParseGrid parses a "WxH" grid-shape string ("64x64"). It only checks the
// syntax and positivity; range and budget checks belong to Canonicalize,
// which sees the dimensions in spec form.
func ParseGrid(g string) (w, h int, err error) {
	ws, hs, ok := strings.Cut(g, "x")
	if ok {
		w, err = strconv.Atoi(ws)
		if err == nil {
			h, err = strconv.Atoi(hs)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("grid %q is not of the form WxH (e.g. 64x64)", g)
	}
	if w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("grid %q has non-positive dimensions", g)
	}
	return w, h, nil
}

// CanonicalKey returns the stable cache key of the spec: the hex SHA-256 of
// its canonical JSON encoding. Canonicalize must have succeeded first.
func (s RunSpec) CanonicalKey() string {
	// encoding/json marshals struct fields in declaration order, so the
	// encoding of a canonicalized spec is already stable.
	b, err := json.Marshal(s)
	if err != nil {
		// A RunSpec holds only plain data; Marshal cannot fail.
		panic("server: marshaling canonical spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// toExperiment converts the canonical spec for run index i of the batch to
// the shared experiment runner's input.
func (s RunSpec) toExperiment(i int) experiments.Spec {
	model, _ := experiments.ParseModel(s.Model) // canonical: always known
	spec := experiments.Spec{
		Model:           model,
		Seed:            s.Seed + uint64(i),
		DurationMs:      s.DurationMs,
		FaultAtMs:       s.FaultAtMs,
		NumFaults:       s.NumFaults,
		WindowMs:        s.WindowMs,
		NeighborSignals: s.NeighborSignals,
		Width:           s.Width,
		Height:          s.Height,
		Topology:        s.Topology,
		Graph:           graphs[s.Graph],
	}
	if s.NI != nil {
		par := aim.DefaultNIParams()
		if s.NI.Threshold != nil {
			par.Threshold = *s.NI.Threshold
		}
		if s.NI.InhibitWeight != nil {
			par.InhibitWeight = *s.NI.InhibitWeight
		}
		if s.NI.InternalWeight != nil {
			par.InternalWeight = *s.NI.InternalWeight
		}
		if s.NI.NeighborWeight != nil {
			par.NeighborWeight = *s.NI.NeighborWeight
		}
		if s.NI.PinSources != nil {
			par.PinSources = *s.NI.PinSources
		}
		spec.NI = &par
	}
	if s.FFW != nil {
		par := aim.DefaultFFWParams()
		if s.FFW.TimeoutMs != nil {
			par.Timeout = sim.Ms(*s.FFW.TimeoutMs)
		}
		if s.FFW.ArmOnLapse != nil {
			par.ArmOnLapse = *s.FFW.ArmOnLapse
		}
		if s.FFW.PinSources != nil {
			par.PinSources = *s.FFW.PinSources
		}
		spec.FFW = &par
	}
	if s.Thermal {
		p := thermal.DefaultParams()
		spec.Thermal = &p
		spec.ThermalDVFS = s.ThermalDVFS
	}
	if s.FaultProfile != nil {
		prof := *s.FaultProfile
		spec.FaultProfile = &prof
	}
	return spec
}

// CheckFaultGrid refuses a fault plan on a grid above noc.HugeNodes. Such a
// fabric keeps no hop rows: a blocked head is ejected by deadlock recovery
// instead of rerouted, so a fault plan would mean something else there than
// on a smaller grid. The service's validator and `centurion run` share it.
func CheckFaultGrid(width, height int) error {
	if nodes := width * height; nodes > noc.HugeNodes {
		return fmt.Errorf("grid %dx%d has %d nodes: faults need at most %d, beyond which the fabric ejects blocked packets instead of rerouting around dead nodes",
			width, height, nodes, noc.HugeNodes)
	}
	return nil
}
