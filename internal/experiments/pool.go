package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"centurion/internal/aim"
	"centurion/internal/centurion"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// The platform pool: RunContext leases assembled platforms from per-shape
// sync.Pools instead of calling centurion.New per run. A leased platform is
// Reset(seed) in place — immutable structure (topology, task graph, wiring,
// the hop-row backing) is reused, mutable state is cleared — which makes the
// construction cost of a run O(state), not O(structure), and keeps sweeps
// allocation-free at steady state. Platform.Reset's bit-identity contract
// (TestSteppingEquivalencePooledReuse) guarantees pooled runs equal fresh
// ones for every seed.

// platformShape is the identity of a run's platform: everything about a Spec
// that affects the *construction* of a platform, as opposed to one run's
// seed, duration, sampling or fault plan. It keys the pool (two specs with
// equal shapes share recycled platforms), the per-shape stats and, with the
// prefix fields of warmKey, the warm-start cache. The grid and the topology
// are defaulted exactly like platform construction defaults them, so a spec
// that leaves them zero and one that spells out 16×8 mesh are one shape.
type platformShape struct {
	model Model
	topoKey
	// graph identifies a caller-supplied task graph by instance; nil selects
	// the default fork–join workload. Callers that rebuild equivalent graphs
	// per run should share one instance to pool and warm-start effectively
	// (graphs are immutable and race-safe once built).
	graph      *taskgraph.Graph
	neighbor   bool
	ni         aim.NIParams
	ffw        aim.FFWParams
	thermal    thermal.Params
	hasThermal bool
	dvfs       bool
}

// topoKey is a fabric shape: topology kind and grid. It keys the per-shape
// pool stats, rendered "kind/WxH" ("mesh/16x8") only by PoolStats.
type topoKey struct {
	topology      string
	width, height int
}

// shape derives the spec's platform identity. It ignores Mapper, so it keys
// the pool and the warm cache only for poolable specs.
func (s Spec) shape() platformShape {
	k := platformShape{
		model:    s.Model,
		topoKey:  topoKey{topology: s.Topology, width: s.Width, height: s.Height},
		graph:    s.Graph,
		neighbor: s.NeighborSignals,
		dvfs:     s.ThermalDVFS,
	}
	if k.topology == "" {
		k.topology = "mesh"
	}
	if k.width <= 0 {
		k.width = 16
	}
	if k.height <= 0 {
		k.height = 8
	}
	switch s.Model {
	case ModelNI, ModelNIPB:
		k.ni = s.niParams()
	case ModelFFW:
		k.ffw = s.ffwParams()
	}
	if s.Thermal != nil {
		k.thermal = *s.Thermal
		k.hasThermal = true
	}
	return k
}

// poolable reports whether the spec's platforms may be recycled. A custom
// Mapper is an opaque interface value, so it cannot key the pool; those
// (rare, ablation-only) specs build fresh platforms.
func (s Spec) poolable() bool { return s.Mapper == nil }

// PlatformConfig builds the platform configuration the spec describes: the
// one translation from model, seed, grid and workload to a platform, shared
// by every run of the harness and the service and by the root package's
// NewSystem.
func (s Spec) PlatformConfig() centurion.Config {
	cfg := centurion.DefaultConfig(s.engineFactory(), s.mapper(), s.Seed)
	cfg.NeighborSignals = s.NeighborSignals
	cfg.Thermal = s.Thermal
	cfg.ThermalDVFS = s.ThermalDVFS
	cfg.Topology = s.Topology
	if s.Width > 0 {
		cfg.Width = s.Width
	}
	if s.Height > 0 {
		cfg.Height = s.Height
	}
	if s.Graph != nil {
		cfg.Graph = s.Graph
	}
	return cfg
}

var (
	platformPools sync.Map // platformShape → *sync.Pool of *pooledPlatform
	// poolShapes counts distinct keys in platformPools. The map never
	// evicts (its keys pin their graphs), so beyond maxPoolShapes new
	// shapes run on fresh platforms instead of registering — a caller that
	// rebuilds an equivalent graph per run then degrades to pre-pool
	// behavior rather than growing the map one pinned entry per run.
	poolShapes atomic.Int64

	statPlatformsCreated atomic.Uint64
	statPlatformsReused  atomic.Uint64
	statPacketsRecycled  atomic.Uint64

	// statByTopo breaks the platform counters down per fabric shape
	// (topoKey → *topoCounters) for the /healthz capacity view: a
	// sweep that suddenly stops reusing torus platforms — or that silently
	// rebuilds every 256×256 mega fabric — shows up here even while the
	// 16×8 mesh totals look healthy.
	statByTopo sync.Map
)

// topoCounters are the per-topology platform-pool counters.
type topoCounters struct {
	created atomic.Uint64
	reused  atomic.Uint64
}

// topoStat returns the counters for one fabric shape, creating them on
// first use.
func topoStat(k topoKey) *topoCounters {
	if v, ok := statByTopo.Load(k); ok {
		return v.(*topoCounters)
	}
	v, _ := statByTopo.LoadOrStore(k, new(topoCounters))
	return v.(*topoCounters)
}

// maxPoolShapes bounds the distinct platform shapes the pool tracks; far
// above any real workload mix (the paper's grids use a handful).
const maxPoolShapes = 64

// pooledPlatform wraps a recyclable platform with the packet-recycling
// watermark last reported to the global stats.
type pooledPlatform struct {
	p        *centurion.Platform
	recycled uint64
}

// leasePlatform returns a platform ready to run the spec (seeded, clean) and
// a release function that must be called exactly once when the run is over.
func leasePlatform(spec Spec) (*centurion.Platform, func()) {
	shape := spec.shape()
	stat := topoStat(shape.topoKey)
	// Every construction counts in both the global and the per-shape
	// counters (pooled misses, non-poolable specs and shape overflow alike),
	// so /healthz's by_topology breakdown always sums to the totals.
	created := func() {
		statPlatformsCreated.Add(1)
		stat.created.Add(1)
	}
	if !spec.poolable() {
		created()
		return centurion.New(spec.PlatformConfig()), func() {}
	}
	poolAny, ok := platformPools.Load(shape)
	if !ok {
		if poolShapes.Load() >= maxPoolShapes {
			// Shape churn overflow: simulate on a throwaway platform.
			created()
			return centurion.New(spec.PlatformConfig()), func() {}
		}
		var loaded bool
		poolAny, loaded = platformPools.LoadOrStore(shape, new(sync.Pool))
		if !loaded {
			poolShapes.Add(1)
		}
	}
	pool := poolAny.(*sync.Pool)

	var pp *pooledPlatform
	if v := pool.Get(); v != nil {
		pp = v.(*pooledPlatform)
		pp.p.Reset(spec.Seed)
		statPlatformsReused.Add(1)
		stat.reused.Add(1)
	} else {
		pp = &pooledPlatform{p: centurion.New(spec.PlatformConfig())}
		created()
	}
	return pp.p, func() {
		// Publish the packets this platform recycled since its last release,
		// then hand it back dirty; the next lease resets it.
		cur := pp.p.PacketPool().Stats().Recycled
		statPacketsRecycled.Add(cur - pp.recycled)
		pp.recycled = cur
		pool.Put(pp)
	}
}

// TopoPoolStats are the per-topology platform counters of one fabric shape.
type TopoPoolStats struct {
	PlatformsCreated uint64 `json:"platforms_created"`
	PlatformsReused  uint64 `json:"platforms_reused"`
}

// PoolStatsSnapshot summarises the platform pool for capacity monitoring
// (surfaced by the server's /healthz).
type PoolStatsSnapshot struct {
	// PlatformsCreated counts every platform construction: pooled misses,
	// non-poolable (custom-Mapper) specs and shape-overflow throwaways.
	PlatformsCreated uint64 `json:"platforms_created"`
	// PlatformsReused counts runs served by resetting a pooled platform.
	PlatformsReused uint64 `json:"platforms_reused"`
	// PacketsRecycled totals packet-pool recycles across released platforms.
	PacketsRecycled uint64 `json:"packets_recycled"`
	// ByTopology breaks the platform counters down per fabric shape, keyed
	// by topology kind and grid ("mesh/16x8", "torus/8x4", "mesh/256x256")
	// so differently sized grids of one kind never alias each other's
	// counters. Absent until the first lease of that shape.
	ByTopology map[string]TopoPoolStats `json:"by_topology,omitempty"`
}

// PoolStats snapshots the platform-pool counters.
func PoolStats() PoolStatsSnapshot {
	snap := PoolStatsSnapshot{
		PlatformsCreated: statPlatformsCreated.Load(),
		PlatformsReused:  statPlatformsReused.Load(),
		PacketsRecycled:  statPacketsRecycled.Load(),
	}
	statByTopo.Range(func(key, v any) bool {
		tc := v.(*topoCounters)
		if snap.ByTopology == nil {
			snap.ByTopology = make(map[string]TopoPoolStats)
		}
		k := key.(topoKey)
		snap.ByTopology[fmt.Sprintf("%s/%dx%d", k.topology, k.width, k.height)] = TopoPoolStats{
			PlatformsCreated: tc.created.Load(),
			PlatformsReused:  tc.reused.Load(),
		}
		return true
	})
	return snap
}
