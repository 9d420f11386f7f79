package centurion

import (
	"fmt"

	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
)

// Controller models the paper's Experiment Controller: a larger processor
// attached to the North ports of four top-row routers, which uploads
// experiment parameters (RCAP config packets through the NoC), reads runtime
// data, and injects faults through a dedicated debug interface that does not
// disturb NoC traffic.
type Controller struct {
	p *Platform
	// injection points: the top-row nodes whose North channels connect to
	// the controller.
	taps []noc.NodeID
}

// NewController attaches a controller to the platform. As on Centurion-V6,
// four evenly spaced top-row routers act as injection taps.
func NewController(p *Platform) *Controller {
	c := &Controller{p: p}
	w := p.Topo.Width()
	n := 4
	if w < n {
		n = w
	}
	for i := 0; i < n; i++ {
		x := (w*i + w/2) / n
		c.taps = append(c.taps, p.Topo.ID(noc.Coord{X: x, Y: 0}))
	}
	return c
}

// Taps returns the controller's NoC injection points.
func (c *Controller) Taps() []noc.NodeID { return c.taps }

// tapFor picks the injection tap nearest to the destination.
func (c *Controller) tapFor(dst noc.NodeID) noc.NodeID {
	best := c.taps[0]
	bestDist := c.p.Topo.Distance(best, dst)
	for _, t := range c.taps[1:] {
		if d := c.p.Topo.Distance(t, dst); d < bestDist {
			best, bestDist = t, d
		}
	}
	return best
}

// SendConfig injects an RCAP configuration packet addressed to node dst.
// It travels the NoC like any other packet and is applied by the target
// router on arrival. When the injection tap is back-pressured, delivery is
// retried tick by tick through the platform's event queue (the real
// controller paces its LVDS-fed uploads the same way); an error is returned
// only when the destination is dead.
func (c *Controller) SendConfig(dst noc.NodeID, op noc.ConfigOp, arg, arg2 int) error {
	if !c.p.Net.Alive(dst) {
		return fmt.Errorf("centurion: config destination %d is dead", dst)
	}
	now := c.p.Now()
	tap := c.tapFor(dst)
	pkt := c.p.allocPacket()
	pkt.Kind = noc.Config
	pkt.Src = tap
	pkt.Dst = dst
	pkt.Flits = 1
	pkt.Created = now
	pkt.Op = op
	pkt.Arg = arg
	pkt.Arg2 = arg2
	c.p.injectConfig(tap, pkt, now)
	return nil
}

// BroadcastConfig sends the same RCAP operation to every alive node.
// Deliveries are paced automatically; sent reports how many were queued.
func (c *Controller) BroadcastConfig(op noc.ConfigOp, arg, arg2 int) (sent int, err error) {
	for id := noc.NodeID(0); int(id) < c.p.Topo.Nodes(); id++ {
		if !c.p.Net.Alive(id) {
			continue
		}
		if e := c.SendConfig(id, op, arg, arg2); e != nil {
			err = e
			continue
		}
		sent++
	}
	return sent, err
}

// ApplySchedule arranges every event of a fault schedule on the simulation
// event queue. Each event is an ordinary scheduled callback, so idle
// fast-forward treats the whole hostile timeline as wake sources and the
// same-tick ordering of the schedule is the queue's insertion order — a
// single-event kill schedule is exactly one scheduled InjectFaults call.
// Call it once per run, after Reset (which clears the
// queue) — or after Restore, which also clears the queue: events whose tick
// already passed at the restore point are skipped (their effects are baked
// into the checkpoint), while events at or after the restore tick re-arm.
func (c *Controller) ApplySchedule(s faults.Schedule) {
	p := c.p
	now := p.Now()
	for i := range s.Events {
		ev := s.Events[i]
		if ev.At < now {
			// Already fired before the checkpoint was taken (Step runs due
			// events before advancing the clock, so at a between-step
			// boundary every event strictly before now has executed).
			continue
		}
		switch ev.Op {
		case faults.OpKill:
			p.Schedule(ev.At, func(now sim.Tick) { p.InjectFaults(ev.Nodes) })
		case faults.OpRevive:
			p.Schedule(ev.At, func(now sim.Tick) { p.ReviveNodes(ev.Nodes) })
		case faults.OpLinkDown:
			p.Schedule(ev.At, func(now sim.Tick) { p.Net.SetLinkHealth(ev.Node, ev.Port, false, now) })
		case faults.OpLinkUp:
			p.Schedule(ev.At, func(now sim.Tick) { p.Net.SetLinkHealth(ev.Node, ev.Port, true, now) })
		case faults.OpByzantine:
			p.Schedule(ev.At, func(now sim.Tick) { p.Net.SetByzantine(ev.Node, ev.Rate, ev.Modes, ev.Seed) })
		}
	}
}

// NodeReport is the runtime data the controller reads from one node over
// the debug interface.
type NodeReport struct {
	Node      noc.NodeID
	Alive     bool
	Task      int
	Router    noc.RouterStats
	Generated uint64
	Processed uint64
	Switches  uint64
	QueueLen  int
}

// ReadNode returns a node's runtime data without touching the NoC. The
// router stats are those of the router serving the node (shared by the
// whole cluster on concentrated fabrics).
func (c *Controller) ReadNode(id noc.NodeID) NodeReport {
	pe := c.p.pes[id]
	return NodeReport{
		Node:      id,
		Alive:     pe.Alive(),
		Task:      int(pe.Task()),
		Router:    c.p.Net.Router(id).Stats,
		Generated: pe.Stats.Generated,
		Processed: pe.Stats.Processed,
		Switches:  pe.Stats.Switches,
		QueueLen:  pe.QueueLen(),
	}
}

// ReadAll returns runtime data for every node.
func (c *Controller) ReadAll() []NodeReport {
	out := make([]NodeReport, c.p.Topo.Nodes())
	for id := range out {
		out[id] = c.ReadNode(noc.NodeID(id))
	}
	return out
}
