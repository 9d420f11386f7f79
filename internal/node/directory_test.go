package node

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

func dir4x4() *Directory {
	topo := noc.NewTopology(4, 4)
	m := make(taskgraph.Mapping, topo.Nodes())
	for i := range m {
		m[i] = taskgraph.TaskID(i%3 + 1)
	}
	return NewDirectory(topo, m)
}

func TestDirectoryBasics(t *testing.T) {
	d := dir4x4()
	if got := d.TaskOf(0); got != 1 {
		t.Errorf("TaskOf(0) = %d", got)
	}
	if got := d.Count(1); got != 6 {
		t.Errorf("Count(1) = %d, want 6", got)
	}
	counts := d.Counts(3)
	if counts[1]+counts[2]+counts[3] != 16 {
		t.Errorf("Counts = %v, want total 16", counts)
	}
}

func TestDirectorySetReindexes(t *testing.T) {
	d := dir4x4()
	v := d.Version
	d.Set(0, 2)
	if d.TaskOf(0) != 2 {
		t.Error("Set did not change task")
	}
	if d.Count(1) != 5 || d.Count(2) != 6 {
		t.Errorf("counts after Set: t1=%d t2=%d", d.Count(1), d.Count(2))
	}
	if d.Version == v {
		t.Error("Version did not change")
	}
	// No-op set does not bump version.
	v = d.Version
	d.Set(0, 2)
	if d.Version != v {
		t.Error("no-op Set bumped version")
	}
}

func TestDirectoryNearest(t *testing.T) {
	topo := noc.NewTopology(4, 1)
	m := taskgraph.Mapping{1, 2, 2, 1}
	d := NewDirectory(topo, m)
	if got, ok := d.Nearest(2, 0); !ok || got != 1 {
		t.Errorf("Nearest(2, 0) = %d,%v, want 1", got, ok)
	}
	if got, ok := d.Nearest(1, 2); !ok || got != 3 {
		t.Errorf("Nearest(1, 2) = %d,%v, want 3", got, ok)
	}
	// Tie at equal distance: with owners at 0 and 2, both distance 1 from
	// node 1, the tie breaks toward the smaller ID.
	tie := NewDirectory(topo, taskgraph.Mapping{2, 1, 2, 1})
	if got, _ := tie.Nearest(2, 1); got != 0 {
		t.Errorf("tie-break Nearest = %d, want 0", got)
	}
	if _, ok := d.Nearest(9, 0); ok {
		t.Error("Nearest for unowned task reported ok")
	}
}

func TestDirectoryNearestSkipsDead(t *testing.T) {
	topo := noc.NewTopology(4, 1)
	d := NewDirectory(topo, taskgraph.Mapping{1, 2, 2, 1})
	d.SetAlive(1, false)
	if got, ok := d.Nearest(2, 0); !ok || got != 2 {
		t.Errorf("Nearest skipping dead = %d,%v, want 2", got, ok)
	}
	d.SetAlive(2, false)
	if _, ok := d.Nearest(2, 0); ok {
		t.Error("Nearest found a dead owner")
	}
	if d.Count(2) != 0 {
		t.Errorf("Count(2) = %d with all owners dead", d.Count(2))
	}
}

func TestDirectoryNearestK(t *testing.T) {
	topo := noc.NewTopology(8, 1)
	m := taskgraph.Mapping{2, 2, 1, 2, 2, 2, 1, 2}
	d := NewDirectory(topo, m)
	got := d.NearestK(2, 2, 3)
	if len(got) != 3 {
		t.Fatalf("NearestK returned %v", got)
	}
	// From node 2, nearest task-2 owners are 1 and 3 (distance 1), then 0
	// and 4 (distance 2, tie-break smaller ID first).
	if got[0] != 1 || got[1] != 3 || got[2] != 0 {
		t.Errorf("NearestK = %v, want [1 3 0]", got)
	}
	// Asking for more owners than exist returns all of them.
	all := d.NearestK(1, 0, 10)
	if len(all) != 2 {
		t.Errorf("NearestK(1) = %v, want 2 owners", all)
	}
}

// Nearest/NearestK track Set/SetAlive immediately: an answer from before a
// mutation would steer packets at stale owners.
func TestDirectoryLookupsTrackMutations(t *testing.T) {
	topo := noc.NewTopology(4, 1)
	d := NewDirectory(topo, taskgraph.Mapping{1, 2, 2, 1})

	// Ask once before mutating.
	if got, _ := d.Nearest(2, 0); got != 1 {
		t.Fatalf("Nearest(2,0) = %d, want 1", got)
	}
	if got := d.NearestK(2, 0, 2); len(got) != 2 || got[0] != 1 {
		t.Fatalf("NearestK(2,0,2) = %v, want [1 2]", got)
	}
	if _, ok := d.Nearest(3, 0); ok {
		t.Fatal("Nearest found owner for unmapped task")
	}

	// Mutate: node 1 leaves task 2, node 0 joins task 3.
	d.Set(1, 3)
	if got, _ := d.Nearest(2, 0); got != 2 {
		t.Errorf("Nearest(2,0) after Set = %d, want 2 (stale answer?)", got)
	}
	if got := d.NearestK(2, 0, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("NearestK(2,0,2) after Set = %v, want [2]", got)
	}
	if got, ok := d.Nearest(3, 0); !ok || got != 1 {
		t.Errorf("Nearest(3,0) after Set = %d,%v, want 1 (stale miss?)", got, ok)
	}

	// Death must show up too.
	d.SetAlive(2, false)
	if _, ok := d.Nearest(2, 0); ok {
		t.Error("Nearest returned a dead owner after SetAlive")
	}

	// Repeated lookups without mutations keep answering consistently.
	for i := 0; i < 3; i++ {
		if got, ok := d.Nearest(3, 3); !ok || got != 1 {
			t.Fatalf("stable lookup %d = %d,%v, want 1", i, got, ok)
		}
	}
}

func TestDirectoryOwnersSorted(t *testing.T) {
	d := dir4x4()
	d.Set(15, 1)
	d.Set(0, 2)
	owners := d.Owners(1)
	for i := 1; i < len(owners); i++ {
		if owners[i-1] >= owners[i] {
			t.Fatalf("owners not sorted: %v", owners)
		}
	}
}

func TestDirectoryMappingSnapshot(t *testing.T) {
	d := dir4x4()
	m := d.Mapping()
	m[0] = 9
	if d.TaskOf(0) == 9 {
		t.Error("Mapping snapshot shares storage")
	}
}

// Property: Nearest always returns an owner at minimal distance among alive
// owners.
func TestNearestMinimalProperty(t *testing.T) {
	topo := noc.NewTopology(8, 4)
	f := func(seed uint64, fromRaw uint16) bool {
		rng := sim.NewRNG(seed)
		m := make(taskgraph.Mapping, topo.Nodes())
		for i := range m {
			m[i] = taskgraph.TaskID(rng.Intn(3) + 1)
		}
		d := NewDirectory(topo, m)
		// Kill a few random nodes.
		for i := 0; i < 5; i++ {
			d.SetAlive(noc.NodeID(rng.Intn(topo.Nodes())), false)
		}
		from := noc.NodeID(int(fromRaw) % topo.Nodes())
		for task := taskgraph.TaskID(1); task <= 3; task++ {
			got, ok := d.Nearest(task, from)
			best := 1 << 30
			for id := noc.NodeID(0); int(id) < topo.Nodes(); id++ {
				if d.Alive(id) && d.TaskOf(id) == task {
					if dd := topo.Distance(from, id); dd < best {
						best = dd
					}
				}
			}
			if (best == 1<<30) != !ok {
				return false
			}
			if ok && topo.Distance(from, got) != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Satellite audit (ISSUE 4): equidistance ties must resolve identically —
// toward the smaller node ID — on every topology, for both Nearest and
// NearestK. Wrap-around links (torus) and shared routers (cmesh) make exact
// ties far more common than on the mesh, so a non-deterministic tie-break
// would silently destroy run reproducibility there.
func TestNearestTieBreakAcrossTopologies(t *testing.T) {
	cases := []struct {
		name  string
		topo  noc.Topology
		from  noc.NodeID
		owner []noc.NodeID // equidistant owners of task 2, ascending
	}{
		// Mesh: owners symmetric around the query node on a row.
		{"mesh", noc.NewTopology(8, 2), 3, []noc.NodeID{1, 5}},
		// Torus: one owner two steps East, one two steps West around the
		// wrap (node 14 is at (6,0): distance to (0,0) is 2 both ways).
		{"torus", noc.NewTorus(8, 2), 0, []noc.NodeID{2, 6}},
		// CMesh: two owners in the same cluster are both at distance 0.
		{"cmesh", noc.NewCMesh(8, 2), 0, []noc.NodeID{1, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := make(taskgraph.Mapping, tc.topo.Nodes())
			for i := range m {
				m[i] = 1
			}
			for _, id := range tc.owner {
				m[id] = 2
			}
			d := NewDirectory(tc.topo, m)
			da := tc.topo.Distance(tc.from, tc.owner[0])
			db := tc.topo.Distance(tc.from, tc.owner[1])
			if da != db {
				t.Fatalf("test premise broken: owners at distances %d and %d", da, db)
			}
			// Nearest picks the smaller ID, however often it is asked.
			for i := 0; i < 3; i++ {
				if got, ok := d.Nearest(2, tc.from); !ok || got != tc.owner[0] {
					t.Fatalf("Nearest tie = %d,%v, want %d", got, ok, tc.owner[0])
				}
			}
			// NearestK orders the tie the same way.
			got := d.NearestK(2, tc.from, 2)
			if len(got) != 2 || got[0] != tc.owner[0] || got[1] != tc.owner[1] {
				t.Fatalf("NearestK tie order = %v, want %v", got, tc.owner)
			}
			// The order survives an unrelated mutation.
			d.Set(tc.from, 3)
			if got, _ := d.Nearest(2, tc.from); got != tc.owner[0] {
				t.Fatalf("Nearest tie after mutation = %d, want %d", got, tc.owner[0])
			}
		})
	}
}

// Nearest and NearestK must agree on their first choice for every topology —
// packet retargeting uses Nearest while fork spreading uses NearestK, and a
// disagreement would make them converge on different owners.
func TestNearestAgreesWithNearestK(t *testing.T) {
	for _, topo := range []noc.Topology{
		noc.NewTopology(8, 4), noc.NewTorus(8, 4), noc.NewCMesh(8, 4),
	} {
		rng := sim.NewRNG(42)
		m := make(taskgraph.Mapping, topo.Nodes())
		for i := range m {
			m[i] = taskgraph.TaskID(rng.Intn(3) + 1)
		}
		d := NewDirectory(topo, m)
		for from := noc.NodeID(0); int(from) < topo.Nodes(); from++ {
			for task := taskgraph.TaskID(1); task <= 3; task++ {
				near, ok := d.Nearest(task, from)
				k := d.NearestK(task, from, 1)
				if !ok {
					if len(k) != 0 {
						t.Fatalf("%s: NearestK found owners Nearest missed", topo)
					}
					continue
				}
				if len(k) != 1 || k[0] != near {
					t.Fatalf("%s: Nearest=%d but NearestK[0]=%v (task %d from %d)", topo, near, k, task, from)
				}
			}
		}
	}
}

// nearestOracle sorts every live owner of task by (distance, ID) the slow,
// obvious way and returns the first k.
func nearestOracle(d *Directory, topo noc.Topology, task taskgraph.TaskID, from noc.NodeID, k int) []noc.NodeID {
	var owners []noc.NodeID
	for id := noc.NodeID(0); int(id) < topo.Nodes(); id++ {
		if d.Alive(id) && d.TaskOf(id) == task {
			owners = append(owners, id)
		}
	}
	sort.Slice(owners, func(i, j int) bool {
		di, dj := topo.Distance(from, owners[i]), topo.Distance(from, owners[j])
		return di < dj || (di == dj && owners[i] < owners[j])
	})
	if k < len(owners) {
		owners = owners[:k]
	}
	return owners
}

// checkAgainstOracle compares Nearest and NearestK (k from 1 past the live
// count) with the oracle for one (task, from) query.
func checkAgainstOracle(t testing.TB, d *Directory, topo noc.Topology, task taskgraph.TaskID, from noc.NodeID) {
	t.Helper()
	all := nearestOracle(d, topo, task, from, topo.Nodes())
	if got := d.Count(task); got != len(all) {
		t.Fatalf("%s: Count(%d) = %d, want %d", topo, task, got, len(all))
	}
	got, ok := d.Nearest(task, from)
	if ok != (len(all) > 0) || (ok && got != all[0]) {
		t.Fatalf("%s: Nearest(%d, %d) = %d,%v, oracle %v", topo, task, from, got, ok, all)
	}
	for _, k := range []int{1, 2, 3, 8, len(all) - 1, len(all), len(all) + 2} {
		if k < 1 {
			continue
		}
		want := nearestOracle(d, topo, task, from, k)
		if got := d.NearestK(task, from, k); !slices.Equal(got, want) {
			t.Fatalf("%s: NearestK(%d, %d, %d) = %v, oracle %v", topo, task, from, k, got, want)
		}
	}
}

// TestDirectoryMatchesBruteForce drives seeded random mappings through
// interleaved Set/SetAlive on every topology plus one huge-mode size and
// compares every lookup with the brute-force oracle. Task 1 is dense and
// task 2 moderately so (ring search); task 3 is held at exactly four owners
// on the 64-node grids — 4² = 1·64, so on the scan rule for k = 1 and over
// it once two die; task 4 is a handful (list scan); task 5 has no owner.
func TestDirectoryMatchesBruteForce(t *testing.T) {
	topos := []noc.Topology{
		noc.NewMesh(8, 8), noc.NewTorus(8, 8), noc.NewCMesh(8, 8),
		noc.NewMesh(1, 9), noc.NewTorus(2, 7), noc.NewMesh(128, 128),
	}
	for ti, topo := range topos {
		n := topo.Nodes()
		rng := sim.NewRNG(uint64(1000 + ti))
		m := make(taskgraph.Mapping, n)
		for i := range m {
			m[i] = taskgraph.TaskID(1 + rng.Intn(10)/7) // 70 % task 1, 30 % task 2
		}
		for i := 0; i < 4; i++ {
			m[rng.Intn(n)] = 4
		}
		for placed := 0; placed < 4; {
			if id := rng.Intn(n); m[id] != 3 {
				m[id] = 3
				placed++
			}
		}
		d := NewDirectory(topo, m)
		queries, rounds := 12, 40
		if n > 1024 {
			queries, rounds = 3, 6 // the oracle sorts 16k nodes per query
		}
		for round := 0; round < rounds; round++ {
			for q := 0; q < queries; q++ {
				checkAgainstOracle(t, d, topo, taskgraph.TaskID(1+rng.Intn(5)), noc.NodeID(rng.Intn(n)))
			}
			// Mutate: switch a task, kill, revive. Task 3's owners only die,
			// so its live count walks down through the rule's boundary.
			if id := noc.NodeID(rng.Intn(n)); d.TaskOf(id) != 3 {
				d.Set(id, taskgraph.TaskID(1+rng.Intn(2)*3)) // to 1 or 4
			}
			d.SetAlive(noc.NodeID(rng.Intn(n)), false)
			d.SetAlive(noc.NodeID(rng.Intn(n)), true)
		}
		// A checkpoint round trip and a Reset rebuild the same index.
		var st DirectoryState
		d.SaveState(&st)
		fresh := NewDirectory(topo, make(taskgraph.Mapping, n))
		fresh.LoadState(&st)
		for task := taskgraph.TaskID(1); task <= 5; task++ {
			checkAgainstOracle(t, fresh, topo, task, noc.NodeID(rng.Intn(n)))
		}
		d.Reset(m)
		for task := taskgraph.TaskID(1); task <= 5; task++ {
			checkAgainstOracle(t, d, topo, task, noc.NodeID(rng.Intn(n)))
		}
	}
}

// TestDirectoryScanRuleBoundary pins which side of live² ≤ k·nodes each
// strategy serves, and that both sides answer alike across it.
func TestDirectoryScanRuleBoundary(t *testing.T) {
	topo := noc.NewMesh(8, 8)
	m := make(taskgraph.Mapping, topo.Nodes())
	for i := range m {
		m[i] = 1
	}
	for _, id := range []int{5, 22, 41, 63, 17, 30, 48, 9} {
		m[id] = 2
	}
	d := NewDirectory(topo, m)
	live := d.live(2)
	if !d.scanList(live, 1) || !d.scanList(live, 8) || d.scanList(d.live(1), 8) {
		t.Fatalf("8 owners on 64 nodes: 8² = 1·64 must scan, 56 owners must not")
	}
	d.Set(0, 2) // 9 owners: 81 > 64 searches rings for k = 1, still scans for k = 2
	live = d.live(2)
	if d.scanList(live, 1) || !d.scanList(live, 2) {
		t.Fatalf("9 owners on 64 nodes: want rings for k=1, scan for k=2")
	}
	for from := noc.NodeID(0); int(from) < topo.Nodes(); from++ {
		checkAgainstOracle(t, d, topo, 2, from)
	}
}

// FuzzDirectoryNearest builds a directory from fuzzed bytes — topology kind
// and size, a task per node, a dead mask — and checks one query against the
// oracle, before and after a Set/SetAlive pair derived from the same bytes.
func FuzzDirectoryNearest(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint8(4), []byte{1, 2, 2, 1, 3}, []byte{0x10}, uint16(5), uint8(2))
	f.Add(uint8(1), uint8(2), uint8(2), []byte{1}, []byte{0xff}, uint16(3), uint8(1))
	f.Add(uint8(1), uint8(7), uint8(5), []byte{1, 1, 1, 2}, []byte{}, uint16(34), uint8(2))
	f.Add(uint8(2), uint8(6), uint8(10), []byte{2, 1, 1, 1, 1, 1, 1}, []byte{0x01, 0x80}, uint16(59), uint8(2))
	f.Add(uint8(0), uint8(1), uint8(16), []byte{4, 4, 1}, []byte{0x02}, uint16(0), uint8(4))
	f.Fuzz(func(t *testing.T, kind, w, h uint8, tasks, dead []byte, query uint16, task uint8) {
		kinds := []string{noc.KindMesh, noc.KindTorus, noc.KindCMesh}
		topo, err := noc.MakeTopology(kinds[int(kind)%len(kinds)], int(w%24), int(h%24))
		if err != nil {
			t.Skip()
		}
		n := topo.Nodes()
		m := make(taskgraph.Mapping, n)
		for i := range m {
			if len(tasks) > 0 {
				m[i] = taskgraph.TaskID(tasks[i%len(tasks)] % 6)
			}
		}
		d := NewDirectory(topo, m)
		for i := 0; i < n && i/8 < len(dead); i++ {
			if dead[i/8]>>(i%8)&1 != 0 {
				d.SetAlive(noc.NodeID(i), false)
			}
		}
		from, want := noc.NodeID(int(query)%n), taskgraph.TaskID(task%6)
		checkAgainstOracle(t, d, topo, want, from)
		other := noc.NodeID((int(query) * 31) % n)
		d.Set(other, want)
		d.SetAlive(from, !d.Alive(from))
		checkAgainstOracle(t, d, topo, want, from)
	})
}
