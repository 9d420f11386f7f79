package noc

import "fmt"

// Torus is a W×H mesh with wrap-around links: every row and column closes
// into a ring, halving the worst-case hop distance and removing the edge
// asymmetry of the mesh. Routing is minimal dimension-ordered: correct X
// around the shorter side of its ring first, then Y, with ties broken
// toward East/South so routes are deterministic. Following hops strictly
// decreases the ring distance, so per-destination next-hop graphs are
// cycle-free (the deadlock-freedom sense the routing property tests
// assert; head-of-line cycles across destinations are handled by the
// router's recovery mechanism, as on the mesh).
type Torus struct{ grid }

// NewTorus returns a w×h torus. It panics when either dimension is below 2
// (a 1-wide ring would wrap a router onto itself).
func NewTorus(w, h int) Torus {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("noc: torus needs both dimensions >= 2, got %dx%d", w, h))
	}
	return Torus{newGrid(w, h)}
}

// Kind implements Topology.
func (Torus) Kind() string { return KindTorus }

// Neighbor implements Topology: grid adjacency with wrap-around at the
// edges.
func (t Torus) Neighbor(id NodeID, p Port) (NodeID, bool) {
	c := t.Coord(id)
	switch p {
	case North:
		c.Y = (c.Y - 1 + t.h) % t.h
	case South:
		c.Y = (c.Y + 1) % t.h
	case East:
		c.X = (c.X + 1) % t.w
	case West:
		c.X = (c.X - 1 + t.w) % t.w
	default:
		return Invalid, false
	}
	return t.ID(c), true
}

// Lateral implements Topology: a torus is physically realised as a folded
// grid, so the wrap links are real die adjacencies too. On a dimension-2
// ring the two directions reach the same node; only one port reports the
// pair (East/South) so thermal conduction and neighbour signals count each
// physical adjacency once — the fabric's Neighbor keeps both parallel
// links.
func (t Torus) Lateral(id NodeID, p Port) (NodeID, bool) {
	if (t.w == 2 && p == West) || (t.h == 2 && p == North) {
		return Invalid, false
	}
	return t.Neighbor(id, p)
}

// ringDist returns the distance between two positions on an n-ring.
func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := n - d; w < d {
		return w
	}
	return d
}

// Distance implements Topology: the sum of per-dimension ring distances.
func (t Torus) Distance(a, b NodeID) int {
	ac, bc := t.Coord(a), t.Coord(b)
	return ringDist(ac.X, bc.X, t.w) + ringDist(ac.Y, bc.Y, t.h)
}

// Ring implements Topology: the diamond wrapped around both rings.
func (t Torus) Ring(from NodeID, d int, buf []NodeID) []NodeID {
	c := t.coords[from]
	return ringAt(true, t.w, t.h, c.X, c.Y, d, buf)
}

// RouterOf implements Topology: every node owns its router.
func (Torus) RouterOf(id NodeID) NodeID { return id }

// BaseNextHop implements Topology: minimal dimension-ordered routing. X is
// corrected first around the shorter way of its ring (East on a tie), then
// Y (South on a tie).
func (t Torus) BaseNextHop(from, dst NodeID) Port {
	fc, dc := t.Coord(from), t.Coord(dst)
	if fc.X != dc.X {
		east := ((dc.X - fc.X) + t.w) % t.w // steps going East
		if east <= t.w-east {
			return East
		}
		return West
	}
	if fc.Y != dc.Y {
		south := ((dc.Y - fc.Y) + t.h) % t.h // steps going South
		if south <= t.h-south {
			return South
		}
		return North
	}
	return Local
}

// String renders the topology dimensions.
func (t Torus) String() string { return fmt.Sprintf("%dx%d torus", t.w, t.h) }
