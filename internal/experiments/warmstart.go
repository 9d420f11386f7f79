package experiments

import (
	"container/list"
	"sync"
	"sync/atomic"

	"centurion/internal/faults"
	"centurion/internal/sim"
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
// Entries are keyed by warmKey: the platform's identity (platformShape, the
// pool's key) plus the seed, the sampling window and the prefix length —
// everything that shapes the simulation up to the divergence boundary, and
// nothing that only matters after it. Specs carrying an opaque Mapper cannot
// be keyed and run cold, exactly like the platform pool's poolable() rule.

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

// warmKey is the prefix cache key: the run's platform identity plus the
// seed, window and prefix length that fix the state at the boundary. whole
// marks a prefix that is its whole run. Such an entry holds the samples and
// final counters but no platform snapshot, so it must not serve a longer
// run that diverges at the same window, nor be served by one.
type warmKey struct {
	platformShape
	seed      uint64
	windowMs  int
	prefixWin int
	whole     bool
}

// warmKeyOf derives the cache key for the spec's settled prefix of
// prefixWin windows of a run of windows windows.
func warmKeyOf(spec Spec, prefixWin, windows int) warmKey {
	return warmKey{spec.shape(), spec.Seed, spec.WindowMs, prefixWin, prefixWin == windows}
}

// warmApplicable reports whether the spec may use the prefix cache at all:
// warm start is on and the spec has a platform identity (poolable).
func warmApplicable(spec Spec) bool {
	return warmEnabled.Load() && spec.poolable()
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
	if key != key {
		// A NaN parameter makes the key unequal to itself: the entry could
		// never be found, nor deleted from byKey on eviction.
		return
	}
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
