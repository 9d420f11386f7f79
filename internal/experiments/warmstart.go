package experiments

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"sync/atomic"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/thermal"
)

// Sweep warm-start (DESIGN.md §15). Every run of a fault sweep simulates the
// same settled prefix: nothing the fault plan does can matter before its
// first event fires, so the state at that boundary is a pure function of the
// spec minus its fault fields. RunContext therefore simulates each distinct
// prefix once, snapshots the platform at the divergence boundary, and serves
// every sibling variant by restoring the checkpoint into its leased platform
// and re-applying that variant's own schedule — one bulk copy instead of
// hundreds of simulated milliseconds. Fault-free specs degenerate to a
// prefix that covers the whole run; those cache the window samples and final
// counters only (no checkpoint), so repeated identical runs — benchmark
// iterations, cache-cold server sweeps — skip the simulation entirely.
//
// Entries are keyed by the SHA-256 of a canonical JSON encoding of the
// prefix-relevant spec fields (the same canonicalization discipline as
// server.RunSpec.CanonicalKey): everything that shapes the simulation up to
// the divergence boundary, and nothing that only matters after it. Specs
// carrying an opaque Mapper or caller-supplied Graph cannot be keyed and run
// cold, exactly like the platform pool's poolable() rule.

// warmBudgetDefault bounds the bytes of retained checkpoints and samples;
// at 16×8 a checkpoint encodes to a few hundred KB, so the default budget
// comfortably holds a full 100-seed Table-II sweep per model.
const warmBudgetDefault = 256 << 20

// warmEnabled gates the whole subsystem (default on). Tests flip it to
// compare warm-started runs against the cold path bit for bit.
var warmEnabled atomic.Bool

func init() { warmEnabled.Store(true) }

// SetWarmStart enables or disables prefix warm-starting and returns the
// previous setting. Disabling does not drop cached entries.
func SetWarmStart(on bool) bool { return warmEnabled.Swap(on) }

// warmKey is the prefix cache key: SHA-256 of the canonical prefix spec.
type warmKey [sha256.Size]byte

// prefixKeySpec is the canonical identity of a settled prefix: every spec
// field that shapes the simulation before the first fault event, plus the
// boundary itself. Field order is the canonical encoding order (encoding/json
// marshals struct fields in declaration order). Fields that the selected
// model never reads are omitted so they cannot split the cache, mirroring
// server.RunSpec canonicalization.
type prefixKeySpec struct {
	Model     Model           `json:"model"`
	Seed      uint64          `json:"seed"`
	PrefixWin int             `json:"prefix_windows"`
	WindowMs  int             `json:"window_ms"`
	Width     int             `json:"width"`
	Height    int             `json:"height"`
	Topology  string          `json:"topology"`
	Graph     string          `json:"graph,omitempty"`
	Neighbor  bool            `json:"neighbor_signals,omitempty"`
	NI        *aim.NIParams   `json:"ni,omitempty"`
	FFW       *aim.FFWParams  `json:"ffw,omitempty"`
	Thermal   *thermal.Params `json:"thermal,omitempty"`
	DVFS      bool            `json:"dvfs,omitempty"`
}

// warmKeyOf derives the cache key for the spec's settled prefix of
// prefixWin windows. Dimensions and topology are normalized exactly like
// platform construction defaults them, and the model-override params resolve
// to their effective values, so a spec that spells out the defaults shares
// entries with one that leaves them zero.
func warmKeyOf(spec Spec, prefixWin int) warmKey {
	ks := prefixKeySpec{
		Model:     spec.Model,
		Seed:      spec.Seed,
		PrefixWin: prefixWin,
		WindowMs:  spec.WindowMs,
		Width:     spec.Width,
		Height:    spec.Height,
		Topology:  spec.topologyKind(),
		Neighbor:  spec.NeighborSignals,
		Thermal:   spec.Thermal,
		DVFS:      spec.ThermalDVFS,
	}
	if spec.Graph != nil {
		// Content digest, not pointer identity: the server's named workloads
		// are rebuilt per process, and dispatch fleets must agree on keys.
		ks.Graph = spec.Graph.Fingerprint()
	}
	if ks.Width <= 0 {
		ks.Width = 16
	}
	if ks.Height <= 0 {
		ks.Height = 8
	}
	switch spec.Model {
	case ModelNI, ModelNIPB:
		par := spec.niParams()
		ks.NI = &par
	case ModelFFW:
		par := spec.ffwParams()
		ks.FFW = &par
	}
	b, err := json.Marshal(ks)
	if err != nil {
		// prefixKeySpec holds only plain data; Marshal cannot fail.
		panic("experiments: marshaling prefix key: " + err.Error())
	}
	return sha256.Sum256(b)
}

// warmApplicable reports whether the spec may use the prefix cache at all. A
// custom Mapper is an opaque interface value that cannot key entries, like
// poolable(); caller-supplied Graphs are fine — they key by content digest.
func warmApplicable(spec Spec) bool {
	return warmEnabled.Load() && spec.Mapper == nil
}

// warmDivergenceWin returns the divergence boundary in whole windows: the
// last window boundary at or before the first fault event (the whole run for
// fault-free specs). A prefix of zero windows is not worth caching.
func warmDivergenceWin(sched faults.Schedule, windows int, windowTicks sim.Tick) int {
	div := windows
	if len(sched.Events) > 0 {
		div = int(sched.Events[0].At / windowTicks)
	}
	if div > windows {
		div = windows
	}
	return div
}

// WarmPrefixKey returns the hex prefix-cache key RunContext will use for the
// spec, and whether the spec is warm-startable at all. The dispatch layer
// ships it with each leased sweep cell so worker daemons can recognise the
// shared prefix a batch forks from (they recompute it from the spec anyway;
// a mismatch flags canonicalization skew between coordinator and worker).
func WarmPrefixKey(spec Spec) (string, bool) {
	if spec.DurationMs <= 0 {
		spec.DurationMs = 1000
	}
	if spec.WindowMs <= 0 {
		spec.WindowMs = 1
	}
	if !warmApplicable(spec) {
		return "", false
	}
	windows := spec.DurationMs / spec.WindowMs
	if windows <= 0 {
		return "", false
	}
	windowTicks := sim.Tick(spec.WindowMs) * sim.TicksPerMs
	var sched faults.Schedule
	if prof := faultProfile(spec); prof != nil {
		w, h := spec.Width, spec.Height
		if w <= 0 {
			w = 16
		}
		if h <= 0 {
			h = 8
		}
		topo, err := noc.MakeTopology(spec.topologyKind(), w, h)
		if err != nil {
			return "", false
		}
		sched, err = faults.Build(topo, spec.Seed, *prof, spec.DurationMs)
		if err != nil {
			return "", false
		}
	}
	div := warmDivergenceWin(sched, windows, windowTicks)
	if div <= 0 {
		return "", false
	}
	k := warmKeyOf(spec, div)
	return hex.EncodeToString(k[:]), true
}

// warmLRU is the byte-budgeted LRU of settled prefixes, shared process-wide
// (sweep harness, server jobs and worker daemons all fork from it).
type warmLRU struct {
	mu     sync.Mutex
	budget int
	order  *list.List // front = most recently used; values are *warmLRUEntry
	byKey  map[warmKey]*list.Element
	bytes  int

	hits, misses, builds, forks, evictions uint64
}

// warmLRUEntry is one cached settled prefix. Prefixes are immutable once
// stored: forks restore from Platform (read-only) and copy the sample arrays
// out, so one entry may serve many concurrent RunMany workers.
type warmLRUEntry struct {
	key   warmKey
	e     *RunCheckpoint
	bytes int
}

var warmCache = newWarmLRU(warmBudgetDefault)

func newWarmLRU(budget int) *warmLRU {
	return &warmLRU{
		budget: budget,
		order:  list.New(),
		byKey:  make(map[warmKey]*list.Element),
	}
}

// get returns the cached prefix for key, or nil. A hit that carries a
// platform snapshot counts as a fork served; whole-run prefixes replay from
// samples alone.
func (c *warmLRU) get(key warmKey) *RunCheckpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*warmLRUEntry).e
	if e.Platform != nil {
		c.forks++
	}
	return e
}

func (c *warmLRU) put(key warmKey, e *RunCheckpoint) {
	size := 3 * 8 * e.Win
	if e.Platform != nil {
		// The encoded length is the exact payload size of the state held —
		// the honest budget figure for eviction accounting.
		size += e.Platform.EncodedLen()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.builds++
	if el, ok := c.byKey[key]; ok {
		// Two workers raced to build the same prefix; keep the newest.
		le := el.Value.(*warmLRUEntry)
		c.bytes += size - le.bytes
		le.e, le.bytes = e, size
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&warmLRUEntry{key: key, e: e, bytes: size})
		c.bytes += size
	}
	// Evict from the cold end until the budget holds. A lone entry may
	// exceed the budget (it still serves its siblings; evicting it would
	// just rebuild it on the next run).
	for c.bytes > c.budget && c.order.Len() > 1 {
		oldest := c.order.Back()
		le := oldest.Value.(*warmLRUEntry)
		c.order.Remove(oldest)
		delete(c.byKey, le.key)
		c.bytes -= le.bytes
		c.evictions++
	}
}

// setBudget rebounds the byte budget (tests exercise eviction with tiny
// budgets). Does not evict retroactively; the next put applies it.
func (c *warmLRU) setBudget(n int) {
	c.mu.Lock()
	c.budget = n
	c.mu.Unlock()
}

// WarmStartStats is the warm-start section of the server's /healthz: cache
// occupancy plus how much sweep work the prefix cache is absorbing.
type WarmStartStats struct {
	// Entries and Bytes describe the retained prefixes (checkpoints plus
	// window samples).
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
	// Hits/Misses count prefix-cache lookups by runs; Builds counts prefixes
	// simulated and stored (greater than distinct keys when workers race).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Builds uint64 `json:"builds"`
	// ForksServed counts runs answered by restoring a cached checkpoint into
	// a leased platform (full-duration sample replays hit without forking).
	ForksServed uint64 `json:"forks_served"`
	Evictions   uint64 `json:"evictions"`
}

// WarmStats snapshots the warm-start cache counters.
func WarmStats() WarmStartStats {
	warmCache.mu.Lock()
	defer warmCache.mu.Unlock()
	return WarmStartStats{
		Entries:     warmCache.order.Len(),
		Bytes:       warmCache.bytes,
		Hits:        warmCache.hits,
		Misses:      warmCache.misses,
		Builds:      warmCache.builds,
		ForksServed: warmCache.forks,
		Evictions:   warmCache.evictions,
	}
}

// ResetWarmStart drops every cached prefix and zeroes the counters.
func ResetWarmStart() {
	warmCache.mu.Lock()
	defer warmCache.mu.Unlock()
	warmCache.order.Init()
	clear(warmCache.byKey)
	warmCache.bytes = 0
	warmCache.hits, warmCache.misses, warmCache.builds = 0, 0, 0
	warmCache.forks, warmCache.evictions = 0, 0
}
