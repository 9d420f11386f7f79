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
// destination's router over the alive router link graph — the routers' own
// nbr links, never the Topology — so cluster members of a concentrated
// fabric resolve through their hub's row. Every row starts at PortInvalid,
// which a dead router and a destination in another partition keep. Port
// preference follows XY habit (horizontal first) so that on a healthy
// fabric the rows coincide with dimension-order routing, keeping the
// ablation comparison clean. Only a fault wave pays for it (reroute), so
// the BFS scratch is allocated per call.
func (n *Network) fillTableRows() {
	for _, r := range n.uniq {
		row := n.state[r.ID].hop
		for j := range row {
			row[j] = int8(PortInvalid)
		}
	}
	// Preference order for tie-breaking among equal-distance neighbours.
	pref := [...]Port{East, West, South, North}

	dist := make([]int32, n.nodes)
	queue := make([]int32, 0, len(n.uniq))
	// Consecutive destinations often share a router (cluster members along a
	// grid row); reuse the previous BFS for them.
	lastRouter := int32(-1)
	for dst := 0; dst < n.nodes; dst++ {
		rdst := int32(n.routers[dst].ID)
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
					nb := n.state[cur].nbr[p]
					if nb < 0 || dist[nb] >= 0 || n.state[nb].faulty {
						continue
					}
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
			lastRouter = rdst
		}
		// The queue holds exactly the alive routers that reach rdst; each
		// past the first has a neighbour one step closer. Every other row
		// keeps PortInvalid.
		n.state[rdst].hop[dst] = int8(Local)
		for _, from := range queue[1:] {
			st := &n.state[from]
			for _, p := range pref {
				if nb := st.nbr[p]; nb >= 0 && dist[nb] == dist[from]-1 {
					st.hop[dst] = int8(p)
					break
				}
			}
		}
	}
}
