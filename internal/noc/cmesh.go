package noc

import "fmt"

// CMeshConcentration is the cluster size of the concentrated mesh: a 2×2
// block of processing elements shares one router.
const CMeshConcentration = 4

// CMesh is a concentrated mesh: processing elements stay on the full W×H
// die grid, but each 2×2 cluster shares the router of its top-left member
// (the hub). Hubs form a (W/2)×(H/2) express mesh, so the fabric has a
// quarter of the routers and every cluster funnels its injections and
// deliveries through one Local port — the concentration contention the
// topology exists to exercise.
//
// Only hub nodes appear in the link graph (Neighbor); cluster members reach
// the fabric through RouterOf. Physical adjacency (Lateral — thermal
// conduction, neighbour signals) remains plain grid adjacency: cluster
// members sit next to each other on the die even though they share a router.
type CMesh struct{ grid }

// NewCMesh returns a concentrated mesh over a w×h node grid. It panics
// unless both dimensions are even and at least 2 (clusters are 2×2).
func NewCMesh(w, h int) CMesh {
	if w < 2 || h < 2 || w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("noc: cmesh needs even dimensions >= 2, got %dx%d", w, h))
	}
	return CMesh{newGrid(w, h)}
}

// Kind implements Topology.
func (CMesh) Kind() string { return KindCMesh }

// RouterOf implements Topology: the cluster hub at (x&^1, y&^1).
func (c CMesh) RouterOf(id NodeID) NodeID {
	co := c.Coord(id)
	return NodeID((co.Y&^1)*c.w + (co.X &^ 1))
}

// Neighbor implements Topology: express links between adjacent hubs. Nodes
// that are not hubs own no router and therefore have no fabric links.
func (c CMesh) Neighbor(id NodeID, p Port) (NodeID, bool) {
	co := c.Coord(id)
	if co.X%2 != 0 || co.Y%2 != 0 {
		return Invalid, false
	}
	switch p {
	case North:
		co.Y -= 2
	case South:
		co.Y += 2
	case East:
		co.X += 2
	case West:
		co.X -= 2
	default:
		return Invalid, false
	}
	if !c.InBounds(co) {
		return Invalid, false
	}
	return c.ID(co), true
}

// Lateral implements Topology: plain die-grid adjacency.
func (c CMesh) Lateral(id NodeID, p Port) (NodeID, bool) { return c.gridNeighbor(id, p) }

// Distance implements Topology: Manhattan distance between the two nodes'
// hubs on the express grid (0 within a cluster).
func (c CMesh) Distance(a, b NodeID) int {
	ac, bc := c.Coord(a), c.Coord(b)
	dx := ac.X/2 - bc.X/2
	dy := ac.Y/2 - bc.Y/2
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Ring implements Topology: the mesh diamond on the hub express grid, every
// hub then standing for its four cluster members.
func (c CMesh) Ring(from NodeID, d int, buf []NodeID) []NodeID {
	co := c.coords[from]
	start := len(buf)
	buf = ringAt(false, c.w/2, c.h/2, co.X/2, co.Y/2, d, buf)
	// Expand in place from the back, so no hub is overwritten before it is
	// read.
	hubs := len(buf) - start
	buf = append(buf, make([]NodeID, 3*hubs)...)
	for i := hubs - 1; i >= 0; i-- {
		hub := int(buf[start+i])
		id := NodeID(hub/(c.w/2)*2*c.w + hub%(c.w/2)*2)
		copy(buf[start+4*i:], []NodeID{id, id + 1, id + NodeID(c.w), id + NodeID(c.w) + 1})
	}
	return buf
}

// BaseNextHop implements Topology: XY dimension-order routing over the hub
// express grid; Local when both nodes share a router.
func (c CMesh) BaseNextHop(from, dst NodeID) Port {
	fc, dc := c.Coord(from), c.Coord(dst)
	fx, fy := fc.X/2, fc.Y/2
	dx, dy := dc.X/2, dc.Y/2
	switch {
	case dx > fx:
		return East
	case dx < fx:
		return West
	case dy > fy:
		return South
	case dy < fy:
		return North
	default:
		return Local
	}
}

// String renders the topology dimensions and concentration.
func (c CMesh) String() string { return fmt.Sprintf("%dx%d cmesh%d", c.w, c.h, CMeshConcentration) }
