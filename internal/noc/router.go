package noc

import (
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// taskID converts a ring slot's packed task back to the graph's type.
func taskID(t int16) taskgraph.TaskID { return taskgraph.TaskID(t) }

// Sink receives packets delivered through a router's internal (Local output)
// port — the processing element's receive interface. Accept returns false
// when the element cannot take the packet this cycle (bounded input queue),
// which back-pressures the network exactly like the real MicroBlaze node
// interface.
type Sink interface {
	Accept(p *Packet, now sim.Tick) bool
}

// Monitors are the router's sense taps, mirroring the paper's monitor list.
// Each field may be nil. The AIM engines subscribe to these impulses.
type Monitors struct {
	// RoutedTask fires once per data packet forwarded out of any port — the
	// "task IDs of packets routed through the router" stimulus of the
	// Network Interaction model.
	RoutedTask func(task taskgraph.TaskID, now sim.Tick)
	// InternalDelivery fires when a data packet is accepted by the local
	// processing element ("packet routed to internal node" — the stimulus
	// that suppresses Foraging-for-Work task switching).
	InternalDelivery func(task taskgraph.TaskID, now sim.Tick)
	// DeadlineLapse fires when the router notices a queued packet past its
	// deadline ("time since sent" monitor).
	DeadlineLapse func(task taskgraph.TaskID, now sim.Tick)
	// Recovery fires when the deadlock-recovery mechanism ejects a blocked
	// packet.
	Recovery func(p *Packet, now sim.Tick)
}

// RouterStats are cumulative per-router counters, readable through the
// experiment controller's debug interface.
type RouterStats struct {
	Forwarded    uint64 // packets sent out a cardinal port
	Delivered    uint64 // packets accepted by the local sink
	ConfigOps    uint64 // RCAP config packets applied
	Recovered    uint64 // packets ejected by deadlock recovery
	Dropped      uint64 // packets dropped at this router
	BlockedTicks uint64 // port-cycles spent with a blocked head packet
	LapsesSeen   uint64 // deadline lapses noticed
}

// ConfigSink applies RCAP operations addressed to node dst (router settings
// knobs, AIM parameters, processing-element knobs). Implemented by the
// platform layer. dst matters on concentrated topologies, where one router
// applies configuration for every cluster member.
type ConfigSink interface {
	ApplyConfig(dst NodeID, op ConfigOp, arg, arg2 int, now sim.Tick)
}

// Router is one five-port wormhole router's identity and cold state: its
// sinks, monitor taps, recovery settings and cumulative counters. The
// per-tick hot state — input rings, occupancy, link timers, next-hop row —
// lives in the owning Network's SoA arrays (DESIGN.md §11), indexed by the
// router's ID; the Network.Tick kernel services it there, and the methods
// here are views over that state.
type Router struct {
	ID  NodeID
	net *Network

	deadlockLimit sim.Tick
	requeueLimit  int

	sink       Sink
	configSink ConfigSink

	// Absorb, when non-nil, implements task-addressed delivery: a data
	// packet passing through the router may be consumed by the local node
	// when it runs the packet's task and has queue space, even though the
	// packet's steer destination is elsewhere. This is what makes the
	// Foraging-for-Work rule ("switch to the task of the next packet in the
	// routing queue in order to sink and process it locally") meaningful,
	// and it is the fabric's natural load balancer.
	//
	// The absorber receives the packet's arena handle and destination task:
	// enough to turn down a mismatched packet without dereferencing it
	// (absorption is consulted for every passing data head, so the common
	// miss must stay cheap). Resolve the handle through the network's Pool
	// only on a match; returning true transfers ownership.
	Absorb func(id PacketID, task taskgraph.TaskID, now sim.Tick) bool

	// Monitors are the AIM sense taps for this router.
	Monitors Monitors
	// Stats accumulate over the run.
	Stats RouterStats
}

func newRouter(id NodeID, net *Network, deadlockLimit sim.Tick, requeueLimit int) *Router {
	return &Router{ID: id, net: net, deadlockLimit: deadlockLimit, requeueLimit: requeueLimit}
}

// SetSink attaches the processing element's receive interface.
func (r *Router) SetSink(s Sink) { r.sink = s }

// SetConfigSink attaches the RCAP configuration handler.
func (r *Router) SetConfigSink(s ConfigSink) { r.configSink = s }

// QueuedHeadTaskFunc returns the destination task of the oldest ready head
// data packet across the input ports whose task the accept filter admits (a
// nil filter admits every task) — the "next packet in the routing queue" a
// Foraging-for-Work node adopts when its switch timer expires. ok is false
// when no such packet is queued. The platform's filter limits adoption to
// tasks the node could actually sink locally: a join-bound packet is owned
// by its fork-time join node, so adopting its task cannot serve it. The
// filter sees the queued packet's destination task only — everything the
// adoption rule needs, without dereferencing the packet.
func (r *Router) QueuedHeadTaskFunc(now sim.Tick, accept func(task taskgraph.TaskID) bool) (taskgraph.TaskID, bool) {
	n := r.net
	st := &n.state[r.ID]
	bestTask := taskgraph.None
	var bestCreated sim.Tick
	found := false
	for p := Port(0); p < NumPorts; p++ {
		if st.rings[p].n == 0 {
			continue
		}
		s := n.headSlot(st, p)
		if s.kind != Data || s.ready > now {
			continue
		}
		if accept != nil && !accept(taskID(s.task)) {
			continue
		}
		created := n.pool.Deref(s.id).Created
		if !found || created < bestCreated {
			found = true
			bestTask = taskID(s.task)
			bestCreated = created
		}
	}
	return bestTask, found
}

// Inject places a packet from the local processing element into the router's
// Local input channel. It returns false when the channel is full — the
// back-pressure that stalls generation under congestion.
func (r *Router) Inject(p *Packet, now sim.Tick) bool {
	n := r.net
	st := &n.state[r.ID]
	if st.faulty || st.disabled&(1<<Local) != 0 {
		return false
	}
	return n.pushPacket(int(r.ID), Local, p, now)
}

func (r *Router) applyConfig(pkt *Packet, now sim.Tick) {
	r.Stats.ConfigOps++
	switch pkt.Op {
	case OpSetDeadlockLimit:
		r.deadlockLimit = sim.Tick(pkt.Arg)
		// Parked blocked ports computed their recovery wake under the old
		// limit; make them re-evaluate.
		r.net.stirRouter(int(r.ID))
	case OpEnablePort:
		if pkt.Arg >= 0 && pkt.Arg < int(NumPorts) {
			r.net.state[r.ID].disabled &^= 1 << Port(pkt.Arg)
			// A re-enabled channel can unblock this router's own heads and
			// any parked neighbour forwarding into it.
			r.net.stirAll()
		}
	case OpDisablePort:
		if pkt.Arg >= 0 && pkt.Arg < int(NumPorts) {
			r.net.state[r.ID].disabled |= 1 << Port(pkt.Arg)
			r.net.stirAll()
		}
	default:
		if r.configSink != nil {
			r.configSink.ApplyConfig(pkt.Dst, pkt.Op, pkt.Arg, pkt.Arg2, now)
		}
	}
}

// reset restores the router's cold state to its as-constructed form; the
// owning network clears the SoA hot state alongside (Network.Reset).
func (r *Router) reset(cfg Params) {
	r.deadlockLimit = cfg.DeadlockLimit
	r.requeueLimit = cfg.RequeueLimit
	r.Stats = RouterStats{}
}
