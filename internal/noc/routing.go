package noc

// RoutingMode selects how routers compute next hops.
type RoutingMode int

const (
	// RouteAuto uses the topology's dimension-order routing while the fabric
	// is healthy and switches to fault-aware shortest paths once a router
	// fails (a stand-in for the platform's route-discovery around dead
	// nodes; see DESIGN.md §2).
	RouteAuto RoutingMode = iota
	// RouteXY always uses dimension-order routing, even across faults
	// (packets heading into a dead router are recovered/dropped) — the
	// ablation case.
	RouteXY
)

// String names the routing mode.
func (m RoutingMode) String() string {
	switch m {
	case RouteAuto:
		return "auto"
	case RouteXY:
		return "xy"
	}
	return "unknown"
}

// fillTableRows writes shortest-path next hops avoiding faulty routers into
// every router's hop row, for any topology: the BFS runs from each
// destination's router over the alive router link graph, so cluster members
// of a concentrated fabric resolve through their hub's row. Every row starts
// at PortInvalid, which a dead router and a destination in another partition
// keep. Port preference follows XY habit (horizontal first) so that on a
// healthy fabric the rows coincide with dimension-order routing, keeping the
// ablation comparison clean.
func (n *Network) fillTableRows() {
	topo := n.Topo
	for _, r := range n.uniq {
		row := n.state[r.ID].hop
		for j := range row {
			row[j] = int8(PortInvalid)
		}
	}
	// Preference order for tie-breaking among equal-distance neighbours.
	pref := [...]Port{East, West, South, North}

	dist := make([]int32, n.nodes)
	queue := make([]NodeID, 0, n.nodes)
	// Consecutive destinations often share a router (cluster members along a
	// grid row); reuse the previous BFS for them.
	lastRouter := Invalid
	for dst := 0; dst < n.nodes; dst++ {
		rdst := topo.RouterOf(NodeID(dst))
		if n.state[rdst].faulty {
			continue
		}
		if rdst != lastRouter {
			// BFS from the destination's router over alive routers.
			for i := range dist {
				dist[i] = -1
			}
			dist[rdst] = 0
			queue = append(queue[:0], rdst)
			for qi := 0; qi < len(queue); qi++ {
				cur := queue[qi]
				for _, p := range pref {
					nb, ok := topo.Neighbor(cur, p)
					if !ok || n.state[nb].faulty || dist[nb] >= 0 {
						continue
					}
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
			lastRouter = rdst
		}
		// Only alive routers are ever reached, so dist > 0 means an alive
		// router with a neighbour one step closer.
		for _, r := range n.uniq {
			from := r.ID
			hop := &n.state[from].hop[dst]
			if from == rdst {
				*hop = int8(Local)
				continue
			}
			if dist[from] <= 0 {
				continue
			}
			for _, p := range pref {
				if nb, ok := topo.Neighbor(from, p); ok && dist[nb] == dist[from]-1 {
					*hop = int8(p)
					break
				}
			}
		}
	}
}
