package experiments

import (
	"slices"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// The warm-start contract: a run served by forking from a cached settled
// prefix must be bit-identical to the same spec executed cold — every window
// sample, every counter, every derived summary. These tests compare the cold
// path (warm start disabled), the prefix-building run (first miss) and the
// forking run (subsequent hit) for the paper's sweep shapes: legacy
// fault-at-500ms cells, hostile profiles, thermal platforms and fault-free
// Table-I runs (which warm-start as full-duration sample replays).

// coldRun executes the spec with warm-starting off.
func coldRun(t *testing.T, spec Spec) Result {
	t.Helper()
	prev := SetWarmStart(false)
	defer SetWarmStart(prev)
	return Run(spec)
}

// requireEqualResults asserts bitwise equality of everything a Result
// derives from the simulation.
func requireEqualResults(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !slices.Equal(want.Throughput.Values, got.Throughput.Values) {
		t.Fatalf("%s: throughput series diverged", label)
	}
	if !slices.Equal(want.NodesActive.Values, got.NodesActive.Values) {
		t.Fatalf("%s: nodes-active series diverged", label)
	}
	if !slices.Equal(want.Switches.Values, got.Switches.Values) {
		t.Fatalf("%s: switches series diverged", label)
	}
	if want.Counters != got.Counters {
		t.Fatalf("%s: counters diverged:\nwant %+v\ngot  %+v", label, want.Counters, got.Counters)
	}
	if want.SettlingMs != got.SettlingMs || want.Settled != got.Settled {
		t.Fatalf("%s: settling diverged: want (%v,%v) got (%v,%v)",
			label, want.SettlingMs, want.Settled, got.SettlingMs, got.Settled)
	}
	if want.RecoveryMs != got.RecoveryMs || want.Recovered != got.Recovered {
		t.Fatalf("%s: recovery diverged: want (%v,%v) got (%v,%v)",
			label, want.RecoveryMs, want.Recovered, got.RecoveryMs, got.Recovered)
	}
	if want.SteadyRate != got.SteadyRate || want.PostFaultRate != got.PostFaultRate {
		t.Fatalf("%s: rates diverged", label)
	}
	if want.ByzMisrouted != got.ByzMisrouted || want.ByzDropped != got.ByzDropped ||
		want.ByzDuplicated != got.ByzDuplicated {
		t.Fatalf("%s: byzantine counters diverged", label)
	}
	if !slices.Equal(want.Waves, got.Waves) {
		t.Fatalf("%s: wave records diverged:\nwant %+v\ngot  %+v", label, want.Waves, got.Waves)
	}
}

func TestWarmStartBitIdentity(t *testing.T) {
	therm := thermal.DefaultParams()
	cases := []struct {
		name string
		spec Spec
		fork bool // expects a checkpoint fork (false: full-duration replay)
	}{
		{
			name: "legacy-ffw",
			spec: func() Spec {
				s := DefaultSpec(ModelFFW, 11)
				s.DurationMs, s.FaultAtMs, s.NumFaults = 240, 120, 8
				return s
			}(),
			fork: true,
		},
		{
			name: "legacy-ni-unaligned",
			spec: func() Spec {
				s := DefaultSpec(ModelNI, 4)
				s.DurationMs, s.FaultAtMs, s.NumFaults = 200, 91, 5
				return s
			}(),
			fork: true,
		},
		{
			// The PicoBlaze NI keys its prefix and pools its platforms as
			// an NI model; a threshold override must reach both.
			name: "legacy-ni-pb",
			spec: func() Spec {
				s := DefaultSpec(ModelNIPB, 5)
				s.DurationMs, s.FaultAtMs, s.NumFaults = 200, 100, 6
				par := aim.DefaultNIParams()
				par.Threshold = 30
				s.NI = &par
				return s
			}(),
			fork: true,
		},
		{
			name: "cascade-profile",
			spec: func() Spec {
				s := DefaultSpec(ModelFFW, 9)
				s.DurationMs = 200
				s.FaultProfile = &faults.Profile{
					Kind: "cascade", AtMs: 45, Nodes: 6,
					Waves: 3, WaveDelayMs: 25, WaveRadius: 3, WaveDecayPct: 60,
				}
				return s
			}(),
			fork: true,
		},
		{
			name: "flaky-profile",
			spec: func() Spec {
				s := DefaultSpec(ModelNone, 6)
				s.DurationMs = 150
				s.FaultProfile = &faults.Profile{
					Kind: "flaky", AtMs: 30, Links: 8, PeriodMs: 30, DutyPct: 40,
				}
				return s
			}(),
			fork: true,
		},
		{
			name: "byzantine-profile",
			spec: func() Spec {
				s := DefaultSpec(ModelNI, 13)
				s.DurationMs = 150
				s.FaultProfile = &faults.Profile{
					Kind: "byzantine", AtMs: 25, Routers: 6, RatePct: 35,
					Modes: "misroute,drop,dup",
				}
				return s
			}(),
			fork: true,
		},
		{
			name: "thermal-dvfs",
			spec: func() Spec {
				s := DefaultSpec(ModelFFW, 21)
				s.DurationMs, s.FaultAtMs, s.NumFaults = 200, 100, 6
				s.Thermal = &therm
				s.ThermalDVFS = true
				return s
			}(),
			fork: true,
		},
		{
			name: "custom-graph",
			spec: func() Spec {
				s := DefaultSpec(ModelFFW, 8)
				s.DurationMs, s.FaultAtMs, s.NumFaults = 200, 100, 5
				s.Graph = taskgraph.Pipeline(4, 120, 24)
				return s
			}(),
			fork: true,
		},
		{
			name: "fault-free-full-replay",
			spec: func() Spec {
				s := DefaultSpec(ModelFFW, 17)
				s.DurationMs = 150
				return s
			}(),
			fork: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold := coldRun(t, tc.spec)

			prev := SetWarmStart(true)
			defer SetWarmStart(prev)
			ResetWarmStart()
			defer ResetWarmStart()

			built := Run(tc.spec) // miss: simulates and caches the prefix
			pool := PoolStats()
			forked := Run(tc.spec)
			if !tc.fork {
				// A whole-run replay leases, resets and builds nothing.
				after := PoolStats()
				if after.PlatformsCreated != pool.PlatformsCreated || after.PlatformsReused != pool.PlatformsReused {
					t.Fatalf("whole-run replay leased a platform: pool %+v -> %+v", pool, after)
				}
			}

			requireEqualResults(t, "prefix-building run vs cold", cold, built)
			requireEqualResults(t, "forked run vs cold", cold, forked)

			st := WarmStats()
			if st.Builds != 1 || st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
				t.Fatalf("stats after build+fork: %+v", st)
			}
			wantForks := uint64(0)
			if tc.fork {
				wantForks = 1
			}
			if st.ForksServed != wantForks {
				t.Fatalf("forks served = %d, want %d (%+v)", st.ForksServed, wantForks, st)
			}
			if st.Bytes <= 0 {
				t.Fatalf("cache holds no bytes: %+v", st)
			}
		})
	}
}

// TestWarmStartSiblingsShareOnePrefix is the sweep shape the cache exists
// for: variants that differ only in their fault plan fork from one shared
// settled prefix, and each still matches its own cold run bit for bit.
func TestWarmStartSiblingsShareOnePrefix(t *testing.T) {
	variant := func(numFaults int) Spec {
		s := DefaultSpec(ModelFFW, 7)
		s.DurationMs, s.FaultAtMs, s.NumFaults = 240, 120, numFaults
		return s
	}
	coldA := coldRun(t, variant(4))
	coldB := coldRun(t, variant(12))
	coldC := coldRun(t, variant(32))

	prev := SetWarmStart(true)
	defer SetWarmStart(prev)
	ResetWarmStart()
	defer ResetWarmStart()

	requireEqualResults(t, "variant 4 (builds prefix)", coldA, Run(variant(4)))
	requireEqualResults(t, "variant 12 (forks)", coldB, Run(variant(12)))
	requireEqualResults(t, "variant 32 (forks)", coldC, Run(variant(32)))

	st := WarmStats()
	if st.Entries != 1 || st.Builds != 1 {
		t.Fatalf("expected one shared prefix entry, got %+v", st)
	}
	if st.Hits != 2 || st.ForksServed != 2 {
		t.Fatalf("expected two forks off the shared prefix, got %+v", st)
	}
}

// TestWarmStartRunManyParallel drives the warm path through RunMany's worker
// pool: the first sweep builds one prefix per seed, the second forks every
// run, and both match the cold sweep element-wise.
func TestWarmStartRunManyParallel(t *testing.T) {
	spec := DefaultSpec(ModelFFW, 0)
	spec.DurationMs, spec.FaultAtMs, spec.NumFaults = 200, 100, 6
	const n = 6

	prevOff := SetWarmStart(false)
	cold := RunMany(spec, n, 3)
	SetWarmStart(prevOff)

	prev := SetWarmStart(true)
	defer SetWarmStart(prev)
	ResetWarmStart()
	defer ResetWarmStart()

	first := RunMany(spec, n, 3)
	second := RunMany(spec, n, 3)
	for i := range cold {
		requireEqualResults(t, "first sweep", cold[i], first[i])
		requireEqualResults(t, "second sweep", cold[i], second[i])
	}
	st := WarmStats()
	if st.Entries != n {
		t.Fatalf("expected %d prefix entries (one per seed), got %+v", n, st)
	}
	if st.ForksServed != n {
		t.Fatalf("expected %d forked runs in the second sweep, got %+v", n, st)
	}
	for i := range cold {
		cold[i].Release()
		first[i].Release()
		second[i].Release()
	}
}

// TestWarmStartEviction pins the LRU byte budget: over budget, cold entries
// fall off the tail (a lone over-budget entry is retained — evicting it
// would only force a rebuild).
func TestWarmStartEviction(t *testing.T) {
	prev := SetWarmStart(true)
	defer SetWarmStart(prev)
	ResetWarmStart()
	defer ResetWarmStart()
	warmCache.setBudget(1)
	defer warmCache.setBudget(warmBudgetDefault)

	spec := DefaultSpec(ModelNone, 30)
	spec.DurationMs, spec.FaultAtMs, spec.NumFaults = 120, 60, 4
	Run(spec)
	spec.Seed = 31
	Run(spec)

	st := WarmStats()
	if st.Entries != 1 {
		t.Fatalf("budget 1 must keep exactly the newest entry, got %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected an eviction, got %+v", st)
	}
}

// prefixKeyOf derives the warm-start key RunContext uses for the spec, and
// whether the spec has a settled prefix to share at all.
func prefixKeyOf(t *testing.T, spec Spec) (warmKey, bool) {
	t.Helper()
	if spec.DurationMs <= 0 {
		spec.DurationMs = 1000
	}
	if spec.WindowMs <= 0 {
		spec.WindowMs = 1
	}
	if !warmApplicable(spec) {
		return warmKey{}, false
	}
	var sched faults.Schedule
	if prof := faultProfile(spec); prof != nil {
		k := spec.shape()
		topo, err := noc.MakeTopology(k.topology, k.width, k.height)
		if err != nil {
			t.Fatal(err)
		}
		if sched, err = faults.Build(topo, spec.Seed, *prof, spec.DurationMs); err != nil {
			t.Fatal(err)
		}
	}
	windows := spec.DurationMs / spec.WindowMs
	div := warmDivergenceWin(sched, windows, sim.Tick(spec.WindowMs)*sim.TicksPerMs)
	return warmKeyOf(spec, div, windows), div > 0
}

func TestWarmPrefixKey(t *testing.T) {
	spec := DefaultSpec(ModelFFW, 5)
	spec.DurationMs, spec.FaultAtMs, spec.NumFaults = 240, 120, 8
	keyA, ok := prefixKeyOf(t, spec)
	if !ok {
		t.Fatalf("expected a key for a plain sweep cell")
	}

	// Variants differing only in their fault plan share the prefix key…
	spec.NumFaults = 32
	if keyB, ok := prefixKeyOf(t, spec); !ok || keyB != keyA {
		t.Fatalf("fault-count variants must share the prefix key")
	}
	// …and the key matches what RunContext uses: a run under keyA's spec
	// must hit the entry a sibling built.
	prevOn := SetWarmStart(true)
	defer SetWarmStart(prevOn)
	ResetWarmStart()
	defer ResetWarmStart()
	spec.NumFaults = 8
	Run(spec)
	spec.NumFaults = 32
	Run(spec)
	if st := WarmStats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("key-equal variants did not share an entry: %+v", st)
	}

	// Different seeds, grids or models split the key.
	other := spec
	other.Seed++
	if k, ok := prefixKeyOf(t, other); !ok || k == keyA {
		t.Fatalf("seed change must change the key")
	}
	grid := spec
	grid.Width, grid.Height = 8, 8
	if k, ok := prefixKeyOf(t, grid); !ok || k == keyA {
		t.Fatalf("grid change must change the key")
	}
	model := spec
	model.Model = ModelNone
	if k, ok := prefixKeyOf(t, model); !ok || k == keyA {
		t.Fatalf("model change must change the key")
	}
	ni, pb := spec, spec
	ni.Model, pb.Model = ModelNI, ModelNIPB
	kn, _ := prefixKeyOf(t, ni)
	if kp, ok := prefixKeyOf(t, pb); !ok || kp == kn {
		t.Fatalf("ni and ni-pb must not share a prefix: a checkpoint holds engine-specific state")
	}
	// Faults landing inside the first window leave no settled prefix.
	immediate := DefaultSpec(ModelFFW, 5)
	immediate.DurationMs, immediate.WindowMs = 100, 10
	immediate.FaultAtMs, immediate.NumFaults = 5, 2
	if _, ok := prefixKeyOf(t, immediate); ok {
		t.Fatalf("faults inside the first window must not be warm-startable")
	}
	// Caller-supplied graphs key by instance, like the platform pool: a
	// workload keys apart from the default graph, from a different workload
	// and from a separately built copy of itself.
	gspec := DefaultSpec(ModelFFW, 5)
	gspec.DurationMs, gspec.FaultAtMs, gspec.NumFaults = 240, 120, 8
	gspec.Graph = taskgraph.Pipeline(4, 120, 24)
	kg, ok := prefixKeyOf(t, gspec)
	if !ok || kg == keyA {
		t.Fatalf("custom-graph spec must key separately from the default graph")
	}
	same := gspec
	same.NumFaults = 16
	if k, ok := prefixKeyOf(t, same); !ok || k != kg {
		t.Fatalf("variants sharing one graph instance must share the key")
	}
	rebuilt := gspec
	rebuilt.Graph = taskgraph.Pipeline(4, 120, 24)
	if k, ok := prefixKeyOf(t, rebuilt); !ok || k == kg {
		t.Fatalf("separately built graphs must key apart, as they pool apart")
	}
	other2 := gspec
	other2.Graph = taskgraph.Diamond(120, 24)
	if k, ok := prefixKeyOf(t, other2); !ok || k == kg {
		t.Fatalf("different workloads must split the key")
	}

	// Opaque spec fields opt out.
	opaque := DefaultSpec(ModelFFW, 5)
	opaque.Mapper = taskgraph.RandomMapper{}
	if _, ok := prefixKeyOf(t, opaque); ok {
		t.Fatalf("custom-mapper specs must not be warm-startable")
	}
	// Disabled subsystem opts everything out.
	SetWarmStart(false)
	if _, ok := prefixKeyOf(t, spec); ok {
		t.Fatalf("disabled warm start must report not-applicable")
	}
	SetWarmStart(true)
}

// TestDefaultGridIsOneIdentity pins the one identity rule: a spec that
// leaves the grid and topology zero and one that spells out the 16×8 mesh
// are the same platform, so they share one pool and one warm entry.
func TestDefaultGridIsOneIdentity(t *testing.T) {
	implicit := DefaultSpec(ModelNI, 9)
	implicit.DurationMs = 60
	explicit := implicit
	explicit.Width, explicit.Height, explicit.Topology = 16, 8, "mesh"
	if implicit.shape() != explicit.shape() {
		t.Fatalf("default and explicit 16x8 mesh pool apart:\n%+v\n%+v", implicit.shape(), explicit.shape())
	}

	prev := SetWarmStart(true)
	defer SetWarmStart(prev)
	ResetWarmStart()
	defer ResetWarmStart()
	cold := coldRun(t, explicit)
	requireEqualResults(t, "implicit grid (builds)", cold, Run(implicit))
	requireEqualResults(t, "explicit grid (replays)", cold, Run(explicit))
	if st := WarmStats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("default and explicit 16x8 mesh did not share a warm entry: %+v", st)
	}
}

// TestWarmWholeRunAndForkPrefixKeyApart: a fault-free run's whole-run entry
// (samples and counters, no platform) and a longer faulted run's fork
// prefix that diverges at the same window are different entries. Keyed
// alike, the longer run resumed from a platform that was never restored.
func TestWarmWholeRunAndForkPrefixKeyApart(t *testing.T) {
	short := DefaultSpec(ModelFFW, 3)
	short.DurationMs = 40
	long := short
	long.DurationMs, long.FaultAtMs, long.NumFaults = 120, 40, 6
	coldShort, coldLong := coldRun(t, short), coldRun(t, long)

	prev := SetWarmStart(true)
	defer SetWarmStart(prev)
	ResetWarmStart()
	defer ResetWarmStart()
	requireEqualResults(t, "short run", coldShort, Run(short))
	requireEqualResults(t, "long run after the short one", coldLong, Run(long))
	requireEqualResults(t, "short run after the long one", coldShort, Run(short))
	requireEqualResults(t, "long run forked", coldLong, Run(long))
	if st := WarmStats(); st.Entries != 2 || st.Hits != 2 {
		t.Fatalf("want one whole-run and one fork entry, each hit once: %+v", st)
	}
}

// TestWarmKeyAllocFree: deriving the warm key is a struct copy — no JSON,
// hashing or formatting on the per-run path.
func TestWarmKeyAllocFree(t *testing.T) {
	therm := thermal.DefaultParams()
	spec := DefaultSpec(ModelNI, 3)
	spec.Graph = taskgraph.Pipeline(4, 120, 24)
	spec.Thermal = &therm
	var key warmKey
	if n := testing.AllocsPerRun(100, func() { key = warmKeyOf(spec, 500, 1000) }); n != 0 {
		t.Fatalf("warm key derivation allocates %v times per run", n)
	}
	if key.prefixWin != 500 {
		t.Fatalf("prefix length not keyed: %+v", key)
	}
}
