package noc

import (
	"fmt"

	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// PacketID is a dense generation-tagged handle into a PacketPool's arena —
// what the router rings carry instead of *Packet pointers (DESIGN.md §11).
// The low bits index the arena slot, the middle bits tag the packet's
// lifetime generation (PacketPool.Put advances it), and a marker bit
// distinguishes real handles from the zero value. Dereferencing a handle
// whose generation no longer matches the slot panics: the packet it named
// was recycled.
type PacketID int32

const (
	// 18 index bits address 262k simultaneously-bound packets (two orders
	// of magnitude above any platform's peak live set — slots track peak,
	// not cumulative traffic), leaving 12 generation bits: a retained stale
	// handle is detected unless its slot cycles through exactly a multiple
	// of 4096 lifetimes while it is held, ample for the
	// use-after-recycle bugs the tag exists to catch.
	pidIndexBits = 18
	pidIndexMask = 1<<pidIndexBits - 1
	pidGenShift  = pidIndexBits
	pidGenMask   = 1<<12 - 1
	// pidValid marks a real handle; the PacketID zero value is never valid.
	pidValid PacketID = 1 << 30
)

// makePacketID packs an arena index and generation into a handle.
func makePacketID(idx int32, gen uint32) PacketID {
	return pidValid | PacketID(gen&pidGenMask)<<pidGenShift | PacketID(idx&pidIndexMask)
}

// Valid reports whether the handle names a slot at all (it may still be
// stale; Deref checks the generation).
func (h PacketID) Valid() bool { return h&pidValid != 0 }

// Kind discriminates packet classes on the fabric.
type Kind uint8

const (
	// Data packets carry application payloads between tasks.
	Data Kind = iota
	// Config packets are RCAP traffic: they reconfigure the destination
	// router or its attached intelligence module instead of being delivered
	// to the processing element.
	Config
	// Debug packets are experiment-controller traffic (runtime data readout);
	// they are delivered out-of-band and never influence the AIMs.
	Debug
)

// String names the packet kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Config:
		return "config"
	case Debug:
		return "debug"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ConfigOp selects the register an RCAP Config packet writes.
type ConfigOp uint8

// RCAP register map. The real router exposes its settings and the AIM
// program/parameter memory through the Router Configuration Access Port;
// these operations model the subset the experiments exercise.
const (
	OpNone             ConfigOp = iota
	OpSetDeadlockLimit          // router deadlock-recovery timeout (ticks)
	OpEnablePort                // arg = port number: re-enable a channel
	OpDisablePort               // arg = port number: disable a channel
	OpAIMParam                  // forwarded to the attached AIM (param, value)
	OpNodeReset                 // knob: reset the processing element
	OpNodeClockEnable           // knob: gate the processing element clock
	OpNodeFrequency             // knob: node frequency divider (1 = full speed)
)

// Packet is the unit of NoC traffic. Packets are routed whole but occupy
// their output link for Flits ticks (wormhole-style serialisation), so long
// packets create exactly the back-pressure the intelligence models feed on.
type Packet struct {
	// ID is unique within a run; the experiment harness uses it for
	// conservation checks (every created packet is delivered, dropped, or
	// still in flight).
	ID uint64
	// Kind discriminates data / RCAP config / debug traffic.
	Kind Kind

	// Src and Dst are the endpoints. Dst is the *current* concrete
	// destination; it can be rewritten by retargeting when the destination
	// node switched task or failed.
	Src, Dst NodeID
	// Task is the destination task class of a data packet — the stimulus the
	// Network Interaction model counts.
	Task taskgraph.TaskID

	// Instance identifies the application work item (fork–join instance)
	// this packet belongs to; Branch distinguishes parallel branches.
	// Origin is the source node that generated the instance (carried along
	// the whole task chain so completion acknowledgements can close the
	// source's flow-control window).
	Instance uint64
	Branch   int
	Origin   NodeID
	// JoinDst is the node chosen at fork time where the instance's branches
	// join (stamped by the fork so all branches converge; see DESIGN.md §5).
	JoinDst NodeID

	// Flits is the serialised length of the packet on a link (ticks of link
	// occupancy).
	Flits int
	// Created is the injection tick; Deadline, when non-zero, is the tick
	// after which the packet counts as late (a Foraging-for-Work stimulus).
	Created  sim.Tick
	Deadline sim.Tick

	// Hops counts router-to-router transfers, for latency statistics.
	Hops int
	// Retargets counts how many times the packet's Dst was rewritten.
	Retargets int

	// Op and Arg carry the RCAP payload of Config packets. Arg2 is the value
	// operand for two-operand ops (e.g. AIM parameter writes).
	Op         ConfigOp
	Arg, Arg2  int
	lapsedSeen bool
	// requeues counts consecutive deadlock-recovery rotations at the current
	// router; it resets on every successful forward.
	requeues int
	// pooled marks a packet currently resting in a PacketPool free list; the
	// pool uses it to catch double-recycles.
	pooled bool
	// h is the packet's arena handle, stamped by PacketPool.Get (or on first
	// fabric contact for packets created outside the pool). It is only
	// meaningful against the pool that issued it.
	h PacketID
}

// Handle returns the packet's generation-tagged arena handle (zero when the
// packet has never touched a pool).
func (p *Packet) Handle() PacketID { return p.h }

// Lapsed reports whether the packet is past its deadline at tick now, firing
// at most once per packet (the monitor impulse a router raises when it
// notices a late packet in one of its queues).
func (p *Packet) Lapsed(now sim.Tick) bool {
	if p.Deadline == 0 || p.lapsedSeen || now <= p.Deadline {
		return false
	}
	p.lapsedSeen = true
	return true
}

// String renders a compact trace form.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s task=%d %d->%d inst=%d.%d flits=%d",
		p.ID, p.Kind, p.Task, p.Src, p.Dst, p.Instance, p.Branch, p.Flits)
}
