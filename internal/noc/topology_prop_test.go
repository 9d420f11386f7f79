package noc

// Per-topology routing properties: under seeded random fault sets, the
// shortest-path hop rows must (a) find a route exactly when one exists in the
// alive router graph, (b) never route through a dead router, and (c) be free
// of cycles — every hop strictly decreases the BFS distance to the
// destination, so following the rows always terminates (the routing sense
// of deadlock freedom; head-of-line deadlock across destinations is handled
// by the router's recovery mechanism). The healthy-fabric dimension-order
// hop must satisfy the same monotone-progress property.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"centurion/internal/wire"
)

// propTopologies builds one instance of every fabric shape on a 16×8 grid.
func propTopologies() []Topology {
	return []Topology{NewMesh(16, 8), NewTorus(16, 8), NewCMesh(16, 8)}
}

// routerSet returns the distinct router IDs of a topology.
func routerSet(topo Topology) []NodeID {
	var out []NodeID
	for id := NodeID(0); int(id) < topo.Nodes(); id++ {
		if topo.RouterOf(id) == id {
			out = append(out, id)
		}
	}
	return out
}

// aliveComponents labels every alive router with its connected component.
func aliveComponents(topo Topology, alive func(NodeID) bool) map[NodeID]int {
	comp := map[NodeID]int{}
	next := 0
	for _, start := range routerSet(topo) {
		if !alive(start) {
			continue
		}
		if _, seen := comp[start]; seen {
			continue
		}
		comp[start] = next
		queue := []NodeID{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for p := North; p <= West; p++ {
				if nb, ok := topo.Neighbor(cur, p); ok && alive(nb) {
					if _, seen := comp[nb]; !seen {
						comp[nb] = next
						queue = append(queue, nb)
					}
				}
			}
		}
		next++
	}
	return comp
}

// TestTopologyRoutingProperties is the satellite property test: for every
// topology and fault count 0/8/32 (three seeded draws each), every pair of
// live nodes in the same alive component is mutually reachable through the
// hop rows without revisiting a router, and cross-component pairs are
// marked unreachable.
func TestTopologyRoutingProperties(t *testing.T) {
	for _, topo := range propTopologies() {
		for _, kills := range []int{0, 8, 32} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/faults=%d/seed=%d", topo.Kind(), kills, seed)
				t.Run(name, func(t *testing.T) {
					rng := newTestRNG(seed * 7919)
					// Kill `kills` distinct nodes; each takes its serving
					// router down, as Network.Fail does (so on cmesh several
					// node faults may collapse onto one hub).
					picked := map[NodeID]bool{}
					dead := map[NodeID]bool{}
					for len(picked) < kills {
						n := NodeID(rng.Intn(topo.Nodes()))
						if !picked[n] {
							picked[n] = true
							dead[topo.RouterOf(n)] = true
						}
					}
					alive := func(id NodeID) bool { return !dead[id] }
					rt := tableRows(topo, alive)
					comp := aliveComponents(topo, alive)

					for src := NodeID(0); int(src) < topo.Nodes(); src++ {
						rsrc := topo.RouterOf(src)
						if dead[rsrc] {
							continue
						}
						for dst := NodeID(0); int(dst) < topo.Nodes(); dst++ {
							rdst := topo.RouterOf(dst)
							if dead[rdst] {
								continue
							}
							hop := rt.NextHop(src, dst)
							if rsrc == rdst {
								if hop != Local {
									t.Fatalf("same-router pair %d->%d hop = %v, want Local", src, dst, hop)
								}
								continue
							}
							if comp[rsrc] != comp[rdst] {
								if hop != PortInvalid {
									t.Fatalf("cross-partition pair %d->%d has hop %v", src, dst, hop)
								}
								continue
							}
							// Same component: the walk must reach dst's router
							// without revisiting any router (cycle freedom).
							cur, steps := rsrc, 0
							visited := map[NodeID]bool{}
							for cur != rdst {
								if visited[cur] {
									t.Fatalf("route %d->%d revisits router %d (cycle)", src, dst, cur)
								}
								visited[cur] = true
								p := rt.NextHop(cur, dst)
								if p == PortInvalid || p == Local {
									t.Fatalf("route %d->%d dead-ends at router %d with %v", src, dst, cur, p)
								}
								nb, ok := topo.Neighbor(cur, p)
								if !ok || dead[nb] {
									t.Fatalf("route %d->%d enters dead/off-fabric router via %v at %d", src, dst, p, cur)
								}
								cur = nb
								if steps++; steps > topo.Nodes() {
									t.Fatalf("route %d->%d did not converge", src, dst)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestTopologyBaseNextHopMonotone checks the healthy-fabric dimension-order
// hop on every topology: each hop strictly decreases the topology distance
// to the destination (so base routing is cycle-free too), and same-router
// pairs resolve to Local.
func TestTopologyBaseNextHopMonotone(t *testing.T) {
	for _, topo := range propTopologies() {
		t.Run(topo.Kind(), func(t *testing.T) {
			for src := NodeID(0); int(src) < topo.Nodes(); src++ {
				for dst := NodeID(0); int(dst) < topo.Nodes(); dst++ {
					hop := topo.BaseNextHop(src, dst)
					if topo.RouterOf(src) == topo.RouterOf(dst) {
						if hop != Local {
							t.Fatalf("same-router %d->%d hop = %v, want Local", src, dst, hop)
						}
						continue
					}
					nb, ok := topo.Neighbor(topo.RouterOf(src), hop)
					if !ok {
						t.Fatalf("base hop %d->%d via %v leaves the fabric", src, dst, hop)
					}
					if topo.Distance(nb, dst) != topo.Distance(src, dst)-1 {
						t.Fatalf("base hop %d->%d via %v is not minimal (%d -> %d)",
							src, dst, hop, topo.Distance(src, dst), topo.Distance(nb, dst))
					}
				}
			}
		})
	}
}

// TestTorusTopology covers the wrap-around specifics: edge neighbours wrap,
// distances take the short way around, and the tie between equal ring
// directions resolves East/South deterministically.
func TestTorusTopology(t *testing.T) {
	topo := NewTorus(8, 4)
	// West of the west edge wraps to the east edge.
	if nb, ok := topo.Neighbor(topo.ID(Coord{0, 0}), West); !ok || nb != topo.ID(Coord{7, 0}) {
		t.Errorf("west wrap = %v", nb)
	}
	if nb, ok := topo.Neighbor(topo.ID(Coord{0, 0}), North); !ok || nb != topo.ID(Coord{0, 3}) {
		t.Errorf("north wrap = %v", nb)
	}
	// Corner-to-corner is 2 hops on the torus, not 10.
	if got := topo.Distance(topo.ID(Coord{0, 0}), topo.ID(Coord{7, 3})); got != 2 {
		t.Errorf("wrapped corner distance = %d, want 2", got)
	}
	// Exactly half way around an even ring: the tie goes East.
	if got := topo.BaseNextHop(topo.ID(Coord{0, 0}), topo.ID(Coord{4, 0})); got != East {
		t.Errorf("half-ring X tie = %v, want East", got)
	}
	if got := topo.BaseNextHop(topo.ID(Coord{0, 0}), topo.ID(Coord{0, 2})); got != South {
		t.Errorf("half-ring Y tie = %v, want South", got)
	}
	mustPanic(t, "degenerate torus", func() { NewTorus(1, 4) })
}

// TestCMeshTopology covers the concentration specifics: cluster membership,
// express links between hubs only, grid-adjacent laterals, and router-hop
// distances.
func TestCMeshTopology(t *testing.T) {
	topo := NewCMesh(8, 4)
	hub := topo.ID(Coord{0, 0})
	for _, c := range []Coord{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		if got := topo.RouterOf(topo.ID(c)); got != hub {
			t.Errorf("RouterOf(%v) = %d, want hub %d", c, got, hub)
		}
	}
	// Express link: hub (0,0) east to hub (2,0).
	if nb, ok := topo.Neighbor(hub, East); !ok || nb != topo.ID(Coord{2, 0}) {
		t.Errorf("hub east express = %v, %v", nb, ok)
	}
	// Leaves own no fabric links...
	leaf := topo.ID(Coord{1, 1})
	for p := North; p <= West; p++ {
		if _, ok := topo.Neighbor(leaf, p); ok {
			t.Errorf("leaf has fabric link via %v", p)
		}
	}
	// ...but keep their physical grid adjacency for thermal conduction.
	if nb, ok := topo.Lateral(leaf, West); !ok || nb != topo.ID(Coord{0, 1}) {
		t.Errorf("leaf lateral west = %v, %v", nb, ok)
	}
	// Distance is measured in router hops: intra-cluster 0, next cluster 1.
	if got := topo.Distance(leaf, hub); got != 0 {
		t.Errorf("intra-cluster distance = %d, want 0", got)
	}
	if got := topo.Distance(leaf, topo.ID(Coord{2, 0})); got != 1 {
		t.Errorf("adjacent-cluster distance = %d, want 1", got)
	}
	mustPanic(t, "odd cmesh", func() { NewCMesh(7, 4) })
}

// TestMakeTopology covers the kind-name constructor used by the spec/CLI
// layers.
func TestMakeTopology(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want string
	}{
		{"", "mesh"}, {"mesh", "mesh"}, {"torus", "torus"}, {"cmesh", "cmesh"},
	} {
		topo, err := MakeTopology(tc.kind, 8, 4)
		if err != nil {
			t.Fatalf("MakeTopology(%q): %v", tc.kind, err)
		}
		if topo.Kind() != tc.want {
			t.Errorf("MakeTopology(%q).Kind() = %q, want %q", tc.kind, topo.Kind(), tc.want)
		}
	}
	for _, tc := range []struct {
		kind string
		w, h int
	}{
		{"hypercube", 8, 4}, {"torus", 1, 4}, {"cmesh", 7, 4}, {"cmesh", 8, 3}, {"mesh", 0, 4},
	} {
		if _, err := MakeTopology(tc.kind, tc.w, tc.h); err == nil {
			t.Errorf("MakeTopology(%q, %d, %d) accepted", tc.kind, tc.w, tc.h)
		}
	}
}

// On a dimension-2 torus ring both directions reach the same node; Lateral
// must report that physical pair through one port only, while the fabric's
// Neighbor keeps both parallel links.
func TestTorusDim2LateralDedup(t *testing.T) {
	topo := NewTorus(2, 8)
	n0 := topo.ID(Coord{0, 3})
	if nb, ok := topo.Lateral(n0, East); !ok || nb != topo.ID(Coord{1, 3}) {
		t.Errorf("East lateral = %v,%v", nb, ok)
	}
	if _, ok := topo.Lateral(n0, West); ok {
		t.Error("West lateral duplicates the 2-ring pair")
	}
	if nb, ok := topo.Neighbor(n0, West); !ok || nb != topo.ID(Coord{1, 3}) {
		t.Errorf("fabric West link lost: %v,%v", nb, ok)
	}
	tall := NewTorus(8, 2)
	if _, ok := tall.Lateral(tall.ID(Coord{3, 0}), North); ok {
		t.Error("North lateral duplicates the 2-ring pair")
	}
	if _, ok := tall.Lateral(tall.ID(Coord{3, 0}), South); !ok {
		t.Error("South lateral missing on 2-tall torus")
	}
}

// ringTopologies are the shapes the Ring properties run over: degenerate
// 1-wide meshes, the 2×2 and 2×N tori whose rings fold onto themselves, odd
// sizes (no antipode) and even ones (one shared antipode), and the smallest
// clusters.
func ringTopologies() []Topology {
	return []Topology{
		NewMesh(1, 1), NewMesh(1, 7), NewMesh(7, 1), NewMesh(5, 3), NewMesh(16, 8),
		NewTorus(2, 2), NewTorus(2, 5), NewTorus(5, 2), NewTorus(3, 3), NewTorus(4, 4), NewTorus(7, 5), NewTorus(6, 8),
		NewCMesh(2, 2), NewCMesh(2, 6), NewCMesh(4, 4), NewCMesh(6, 10),
	}
}

// TestTopologyRingMatchesDistance: Ring(from, d) is exactly the set
// {id : Distance(from, id) == d}, each node once, for every node and every d
// from 0 to well past the fabric's diameter (so past half a torus ring,
// where the two directions meet), and it appends without disturbing what the
// buffer already held. Together the rings partition the grid.
func TestTopologyRingMatchesDistance(t *testing.T) {
	for _, topo := range ringTopologies() {
		t.Run(topo.String(), func(t *testing.T) {
			n := topo.Nodes()
			for from := NodeID(0); int(from) < n; from++ {
				seen := make([]int, n)
				total := 0
				for d := 0; d <= topo.Width()+topo.Height()+2; d++ {
					ring := topo.Ring(from, d, []NodeID{Invalid})
					if ring[0] != Invalid {
						t.Fatalf("Ring(%d, %d) overwrote the buffer's prefix", from, d)
					}
					for _, id := range ring[1:] {
						if got := topo.Distance(from, id); got != d {
							t.Fatalf("Ring(%d, %d) holds %d at distance %d", from, d, id, got)
						}
						seen[id]++
					}
					total += len(ring) - 1
				}
				for id, c := range seen {
					if c != 1 {
						t.Fatalf("from %d: node %d (distance %d) appeared in %d rings", from, id, topo.Distance(from, NodeID(id)), c)
					}
				}
				if total != n {
					t.Fatalf("from %d: rings hold %d nodes, grid has %d", from, total, n)
				}
			}
		})
	}
}

// refRows is the lifecycle test's independent routing reference, built over
// fresh rows: for every physical router, the E/W/S/N-preferred neighbour one
// BFS step closer to each destination's router through the routers dead does
// not name; Local at the destination's own router; PortInvalid from a dead
// router, toward a dead one, or across a partition.
func refRows(topo Topology, dead map[NodeID]bool) map[NodeID][]int8 {
	rows := map[NodeID][]int8{}
	for _, r := range routerSet(topo) {
		rows[r] = make([]int8, topo.Nodes())
		for i := range rows[r] {
			rows[r][i] = int8(PortInvalid)
		}
	}
	for dst := NodeID(0); int(dst) < topo.Nodes(); dst++ {
		rdst := topo.RouterOf(dst)
		if dead[rdst] {
			continue
		}
		dist := map[NodeID]int{rdst: 0}
		for queue := []NodeID{rdst}; len(queue) > 0; queue = queue[1:] {
			for p := North; p <= West; p++ {
				if nb, ok := topo.Neighbor(queue[0], p); ok && !dead[nb] {
					if _, seen := dist[nb]; !seen {
						dist[nb] = dist[queue[0]] + 1
						queue = append(queue, nb)
					}
				}
			}
		}
		for r, row := range rows {
			d, reached := dist[r]
			switch {
			case r == rdst:
				row[dst] = int8(Local)
			case reached:
				for _, p := range []Port{East, West, South, North} {
					nb, ok := topo.Neighbor(r, p)
					if nd, closer := dist[nb]; ok && closer && nd == d-1 {
						row[dst] = int8(p)
						break
					}
				}
			}
		}
	}
	return rows
}

// checkRows compares every router's hop row with want (nil = the healthy
// fabric's BaseNextHop) and checks that NextHop and Reachable answer from the
// rows forwarding reads.
func checkRows(t *testing.T, phase string, n *Network, want map[NodeID][]int8) {
	t.Helper()
	topo := n.Topo
	for _, r := range n.UniqueRouters() {
		for dst, got := range n.state[r.ID].hop {
			w := topo.BaseNextHop(r.ID, NodeID(dst))
			if want != nil {
				w = Port(want[r.ID][dst])
			}
			if Port(got) != w {
				t.Fatalf("%s: %s: hop[%d→%d] = %v, want %v", topo, phase, r.ID, dst, Port(got), w)
			}
		}
	}
	for src := NodeID(0); int(src) < topo.Nodes(); src++ {
		for dst := NodeID(0); int(dst) < topo.Nodes(); dst++ {
			row := Port(n.state[topo.RouterOf(src)].hop[dst])
			if got := n.NextHop(src, dst); got != row {
				t.Fatalf("%s: %s: NextHop(%d, %d) = %v, row holds %v", topo, phase, src, dst, got, row)
			}
			want := n.Alive(src) && n.Alive(dst) && row != PortInvalid
			if got := n.Reachable(src, dst); got != want {
				t.Fatalf("%s: %s: Reachable(%d, %d) = %v, rows say %v", topo, phase, src, dst, got, want)
			}
		}
	}
}

// TestTopologyRouteRows walks the hop rows — the fabric's only routing
// state — through their lifecycle: dimension order when healthy, the
// reference BFS of the survivors after each Fail wave and a partial Revive
// wave, dimension order again after the last Revive wave and after Reset,
// dimension order throughout under RouteXY, and copied byte for byte (no
// recomputation, no allocation) through SaveState/LoadState and the binary
// codec.
func TestTopologyRouteRows(t *testing.T) {
	// Healthy rows: the templated fill holds exactly one BaseNextHop per
	// (router, destination), on every shape including the degenerate ones.
	for _, topo := range ringTopologies() {
		checkRows(t, "healthy", NewNetwork(topo, DefaultConfig()), nil)
	}
	for _, topo := range propTopologies() {
		t.Run(topo.Kind(), func(t *testing.T) {
			n := NewNetwork(topo, DefaultConfig())
			rng := newTestRNG(4099)
			picked := map[NodeID]bool{}
			var killed []NodeID
			for len(killed) < 12 {
				id := NodeID(rng.Intn(topo.Nodes()))
				if r := topo.RouterOf(id); !picked[r] {
					picked[r] = true
					killed = append(killed, id)
				}
			}
			// The victims fall in waves of 1, 4 and 7 (the last wave also
			// names an earlier victim again); each wave's single rebuild
			// must match the reference for everything dead so far.
			dead := map[NodeID]bool{}
			for _, wave := range [][]NodeID{killed[:1], killed[1:5], append(slices.Clip(killed[5:]), killed[2])} {
				for _, id := range wave {
					dead[topo.RouterOf(id)] = true
				}
				n.Fail(wave, nil)
				checkRows(t, fmt.Sprintf("after a %d-node Fail wave", len(wave)), n, refRows(topo, dead))
			}

			// A faulted state round-trips into warm fabrics with its rows
			// intact, and restoring recomputes nothing.
			var st NetworkState
			n.SaveState(&st)
			var dec NetworkState
			if err := dec.DecodeBinary(wire.NewReader(st.AppendBinary(nil))); err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*NetworkState{"SaveState": &st, "DecodeBinary": &dec} {
				warm := NewNetwork(topo, DefaultConfig())
				warm.LoadState(s)
				for _, r := range n.UniqueRouters() {
					if !slices.Equal(warm.state[r.ID].hop, n.state[r.ID].hop) {
						t.Fatalf("%s: router %d's row differs after %s → LoadState", topo, r.ID, name)
					}
				}
				if a := testing.AllocsPerRun(5, func() { warm.LoadState(s) }); a != 0 {
					t.Errorf("%s: LoadState of a %s state allocates %.0f times", topo, name, a)
				}
			}

			for _, id := range killed[:6] {
				delete(dead, topo.RouterOf(id))
			}
			n.Revive(killed[:6], nil)
			checkRows(t, "after a partial Revive wave", n, refRows(topo, dead))
			n.Revive(killed[6:], nil)
			checkRows(t, "after the last Revive wave", n, nil)

			n.Fail([]NodeID{killed[0]}, nil)
			n.Reset()
			checkRows(t, "after Reset", n, nil)

			cfg := DefaultConfig()
			cfg.Mode = RouteXY
			xy := NewNetwork(topo, cfg)
			xy.Fail(killed, nil)
			checkRows(t, "RouteXY after a Fail wave", xy, nil)
		})
	}
	// A Fail+Revive pair allocates only the BFS and template scratch:
	// O(nodes) bytes, never an n×n table.
	n := NewNetwork(NewMesh(16, 8), DefaultConfig())
	pair := func() { n.Fail([]NodeID{37}, nil); n.Revive([]NodeID{37}, nil) }
	if a := testing.AllocsPerRun(20, pair); a > 5 {
		t.Errorf("Fail+Revive allocates %.0f times, want ≤ 5", a)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 20; b >= 128*128 {
		t.Errorf("Fail+Revive allocates %d bytes, an n×n table's worth", b)
	}
}
