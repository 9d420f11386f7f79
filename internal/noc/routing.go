package noc

// RoutingMode selects how routers compute next hops.
type RoutingMode int

const (
	// RouteAuto uses the topology's dimension-order routing while the fabric
	// is healthy and switches to fault-aware shortest-path tables once a
	// router fails (a stand-in for the platform's route-discovery around dead
	// nodes; see DESIGN.md §2).
	RouteAuto RoutingMode = iota
	// RouteXY always uses dimension-order routing, even across faults
	// (packets heading into a dead router are recovered/dropped) — the
	// ablation case.
	RouteXY
	// RouteTables always uses the shortest-path tables.
	RouteTables
)

// String names the routing mode.
func (m RoutingMode) String() string {
	switch m {
	case RouteAuto:
		return "auto"
	case RouteXY:
		return "xy"
	case RouteTables:
		return "tables"
	}
	return "unknown"
}

// xyNextHop is the topology's healthy-fabric dimension-order hop (XY on the
// mesh). Kept as a free function because half the routing tests and the
// network's precomputed rows speak in these terms.
func xyNextHop(topo Topology, from, dst NodeID) Port {
	return topo.BaseNextHop(from, dst)
}

// routeTables holds per-destination next-hop ports for every router,
// computed by breadth-first search over the alive subgraph.
type routeTables struct {
	// next[from][dst] is the output port at from's router toward dst
	// (PortInvalid when unreachable, Local when both share a router), one
	// byte per entry like the routers' hop rows they are copied into.
	next [][]int8
}

// computeTables builds shortest-path next hops avoiding faulty routers, for
// any topology: the BFS runs over the topology's router link graph, and
// nodes sharing a router (concentrated fabrics) share rows. Port preference
// follows XY habit (horizontal first) so that table routes coincide with
// dimension-order routing on the healthy fabric, keeping the ablation
// comparison clean.
func computeTables(topo Topology, alive func(NodeID) bool) *routeTables {
	n := topo.Nodes()
	rt := &routeTables{next: make([][]int8, n)}
	// Nodes sharing a router have byte-identical rows (the Local condition
	// and every hop depend only on the serving router), so only hub rows are
	// materialised and filled; members alias them. Rows are read-only after
	// build and routers only ever bind their own hub row, so the aliasing is
	// safe — and it cuts cmesh rebuild work and table memory to a quarter.
	for i := range rt.next {
		if topo.RouterOf(NodeID(i)) != NodeID(i) {
			continue
		}
		row := make([]int8, n)
		for j := range row {
			row[j] = int8(PortInvalid)
		}
		rt.next[i] = row
	}
	for i := range rt.next {
		if rt.next[i] == nil {
			rt.next[i] = rt.next[topo.RouterOf(NodeID(i))]
		}
	}

	// Preference order for tie-breaking among equal-distance neighbours.
	pref := []Port{East, West, South, North}

	dist := make([]int, n)
	queue := make([]NodeID, 0, n)
	// Consecutive destinations often share a router (cluster members along a
	// grid row); reuse the previous BFS for them.
	lastRouter := Invalid
	for dst := NodeID(0); int(dst) < n; dst++ {
		rdst := topo.RouterOf(dst)
		if !alive(rdst) {
			continue
		}
		if rdst != lastRouter {
			// BFS from the destination's router over alive routers.
			for i := range dist {
				dist[i] = -1
			}
			dist[rdst] = 0
			queue = queue[:0]
			queue = append(queue, rdst)
			for qi := 0; qi < len(queue); qi++ {
				cur := queue[qi]
				for _, p := range pref {
					nb, ok := topo.Neighbor(cur, p)
					if !ok || !alive(nb) || dist[nb] >= 0 {
						continue
					}
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
			lastRouter = rdst
		}
		for from := NodeID(0); int(from) < n; from++ {
			if topo.RouterOf(from) != from {
				continue // row aliased to the hub's
			}
			if from == rdst {
				rt.next[from][dst] = int8(Local)
				continue
			}
			if dist[from] < 0 || !alive(from) {
				continue
			}
			for _, p := range pref {
				nb, ok := topo.Neighbor(from, p)
				if ok && alive(nb) && dist[nb] == dist[from]-1 {
					rt.next[from][dst] = int8(p)
					break
				}
			}
		}
	}
	return rt
}

// NextHop returns the table's next hop, or PortInvalid when unreachable.
func (rt *routeTables) NextHop(from, dst NodeID) Port {
	return Port(rt.next[from][dst])
}
