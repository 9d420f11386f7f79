// Package centurion assembles the full experimentation platform of the
// paper: an 8×16 (by default) mesh of {wormhole router + processing element
// + embedded intelligence module}, a shared task directory, and the
// experiment controller used for parameter upload, runtime data readout and
// fault injection.
//
// One Platform value is one independent experiment run; the experiment
// harness (internal/experiments) creates hundreds of them with different
// seeds.
package centurion

import (
	"fmt"

	"centurion/internal/aim"
	"centurion/internal/noc"
	"centurion/internal/node"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// Config assembles a platform.
type Config struct {
	// Width, Height set the node-grid dimensions (default 16×8 = 128 nodes,
	// Centurion-V6).
	Width, Height int
	// Topology selects the fabric shape: "mesh" (default), "torus" or
	// "cmesh" (concentrated mesh, 2×2 clusters sharing a router; requires
	// even dimensions). New panics on an unknown or invalid shape — the spec
	// and CLI layers validate before construction.
	Topology string
	// Graph is the application task graph (default: the paper's fork–join).
	Graph *taskgraph.Graph
	// Mapper produces the initial task mapping (default: random — the
	// adaptive models' starting point; use taskgraph.HeuristicMapper for
	// the no-intelligence baseline).
	Mapper taskgraph.Mapper
	// Engines builds one AIM per node (default: aim.NewNone).
	Engines aim.Factory
	// Seed drives all randomness of the run.
	Seed uint64
	// NoC are the fabric parameters.
	NoC noc.Params
	// PE are the processing-element parameters.
	PE node.Params
	// NeighborSignals, when true, broadcasts each node's task switches to
	// the four mesh neighbours' AIMs (the information-transfer extension).
	NeighborSignals bool
	// Thermal, when non-nil, enables the per-node temperature model (the
	// AIM's temperature monitor).
	Thermal *thermal.Params
	// ThermalDVFS enables the frequency-scaling governor: nodes above the
	// safe temperature are halved in frequency until they cool below the
	// hysteresis threshold (the paper's frequency knob, 10–300 MHz on the
	// real platform).
	ThermalDVFS bool
	// denseStepping selects the reference stepping core: every PE, router
	// and AIM is touched on every tick, as the original implementation did.
	// Unexported: it is the in-package equivalence suites' oracle, not a
	// production knob. Every platform outside those tests runs the
	// activity-tracked core — idle PEs park in the event queue, only routers
	// holding traffic are serviced, and only stimulated engines are polled —
	// which is bit-identical by contract (enforced by TestSteppingEquivalence)
	// but orders of magnitude cheaper at steady state.
	denseStepping bool
}

// DefaultConfig returns the paper's experiment configuration with the given
// model factory and seed.
func DefaultConfig(engines aim.Factory, mapper taskgraph.Mapper, seed uint64) Config {
	return Config{
		Width:   16,
		Height:  8,
		Graph:   taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams()),
		Mapper:  mapper,
		Engines: engines,
		Seed:    seed,
		NoC:     noc.DefaultConfig(),
		PE:      node.DefaultParams(),
	}
}

// Counters aggregate platform-wide accounting for one run.
type Counters struct {
	InstancesStarted   uint64
	InstancesCompleted uint64
	InstancesLost      uint64 // lost reports may repeat per instance (see DESIGN.md)
	TaskSwitches       uint64
	PacketsDropped     uint64
	PacketsRescued     uint64
}

// peParkHorizon is the shortest park worth an event-queue round trip, in
// ticks. A PE whose next self-driven wake is at most this close stays in the
// active sweep and idles there — e.g. the default sink task (6-tick
// processing) never touches the heap, while workers (48) and sources (120)
// park.
const peParkHorizon = 8

// Platform is one assembled many-core system.
type Platform struct {
	Cfg   Config
	Topo  noc.Topology
	Net   *noc.Network
	Dir   *node.Directory
	Graph *taskgraph.Graph

	pes     []*node.PE
	engines []aim.Engine
	clock   sim.Clock
	rng     *sim.RNG
	events  sim.EventQueue

	// pool recycles every packet of this platform (DESIGN.md §9): PEs and the
	// controller acquire through it, and delivery/drop/config-consumption
	// return packets to it, so the steady-state hot loop never allocates.
	// It is the fabric's packet arena (DESIGN.md §11) — the network owns it,
	// and every in-fabric packet is addressed by an arena handle.
	pool *noc.PacketPool
	// ctlRetry tracks config packets a back-pressured controller tap is
	// retrying through the event queue; Reset reclaims them (their retry
	// events are cleared with the queue, which would otherwise leak them)
	// and Snapshot records them so a restore can rebuild the retry events.
	// Removal is order-preserving: the slice order mirrors the retry
	// events' seq order in the queue, which a restore must reproduce.
	ctlRetry []ctlRetryRec
	// maxPhase is the generation-stagger bound derived at construction; Reset
	// replays the same per-node phase draws with it.
	maxPhase sim.Tick

	// Activity tracking for the event-driven stepping core. peSet and
	// engSet hold the PEs that must be ticked and the engines that must be
	// polled this tick; parked components are woken by stimuli or by the
	// wake tables' events in the shared event queue.
	peSet      *sim.ActiveSet
	engSet     *sim.ActiveSet
	peWake     *wakeTable
	engWake    *wakeTable
	engWaker   []aim.DecideWaker
	engPollAll bool // an engine lacks NextDecide: poll all, never fast-forward
	// netPar is true only while a parallel Net.Tick is in flight: fabric
	// callbacks (PE stirs on delivery, engine stimuli from router monitor
	// taps) then mark the activity sets through the atomic path, since they
	// fire from the tick kernel's worker goroutines. Set and cleared by
	// Step around Net.Tick — the tick barrier orders it against the workers.
	netPar bool

	nextPkt  uint64
	nextInst uint64

	heat      *thermal.Model
	nextHeat  sim.Tick
	throttled []bool
	workScan  []uint64

	counters Counters
}

// New assembles a platform from the configuration.
func New(cfg Config) *Platform {
	if cfg.Width <= 0 {
		cfg.Width = 16
	}
	if cfg.Height <= 0 {
		cfg.Height = 8
	}
	if cfg.Graph == nil {
		cfg.Graph = taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams())
	}
	if cfg.Mapper == nil {
		cfg.Mapper = taskgraph.RandomMapper{}
	}
	if cfg.Engines == nil {
		cfg.Engines = aim.NewNone
	}
	if cfg.PE.QueueCap == 0 {
		cfg.PE = node.DefaultParams()
	}
	if cfg.NoC.BufferFlits == 0 {
		cfg.NoC = noc.DefaultConfig()
	}

	topo, err := noc.MakeTopology(cfg.Topology, cfg.Width, cfg.Height)
	if err != nil {
		panic("centurion: " + err.Error())
	}
	p := &Platform{
		Cfg:   cfg,
		Topo:  topo,
		Graph: cfg.Graph,
		rng:   sim.NewRNG(cfg.Seed),
	}
	p.Net = noc.NewNetwork(p.Topo, cfg.NoC)
	p.pool = p.Net.Pool()
	mapping := cfg.Mapper.Map(cfg.Graph, cfg.Width, cfg.Height, p.rng)
	p.Dir = node.NewDirectory(p.Topo, mapping)

	// Source generators stagger uniformly within the longest source
	// generation period.
	maxPhase := sim.Tick(1)
	for _, id := range cfg.Graph.Sources() {
		maxPhase = max(maxPhase, sim.Tick(cfg.Graph.Task(id).GenPeriod))
	}
	p.maxPhase = maxPhase

	nodes := p.Topo.Nodes()
	p.pes = make([]*node.PE, nodes)
	p.engines = make([]aim.Engine, nodes)
	p.peSet = sim.NewActiveSet(nodes)
	p.engSet = sim.NewActiveSet(nodes)
	p.peWake = newWakeTable(nodes, &p.events, p.peSet)
	p.engWake = newWakeTable(nodes, &p.events, p.engSet)
	p.engWaker = make([]aim.DecideWaker, nodes)
	for id := 0; id < nodes; id++ {
		nid := noc.NodeID(id)
		phase := sim.Tick(p.rng.Intn(int(maxPhase)))
		pe := node.NewPE(nid, platformEnv{p}, cfg.PE, mapping[id], phase)
		p.pes[id] = pe

		engine := cfg.Engines(cfg.Graph)
		engine.NoteTask(mapping[id])
		p.engines[id] = engine
		if w, ok := engine.(aim.DecideWaker); ok {
			p.engWaker[id] = w
		} else {
			// Unknown engine (embedded PicoBlaze, user-supplied): fall back
			// to polling every engine every tick, exactly like the dense
			// scan, so custom Decide semantics are never skipped.
			p.engPollAll = true
		}

		// Everything starts active; components park themselves after their
		// first tick.
		pe.OnStir = func() { p.markPE(id) }
		p.peSet.Add(id)
		p.engSet.Add(id)

		p.wirePE(nid, pe, engine)
	}
	p.wireRouters()

	p.Net.DropHandler = func(at noc.NodeID, pkt *noc.Packet, reason noc.DropReason) {
		p.counters.PacketsDropped++
		if pkt.Kind == noc.Data {
			p.counters.InstancesLost++
			p.ack(pkt.Instance, pkt.Origin)
		}
	}
	p.Net.RecoveryHandler = p.rescuePacket

	if cfg.Thermal != nil {
		p.heat = thermal.New(p.Topo, *cfg.Thermal)
		p.throttled = make([]bool, p.Topo.Nodes())
		p.workScan = make([]uint64, p.Topo.Nodes())
	}
	return p
}

// Thermal returns the temperature model, or nil when disabled.
func (p *Platform) Thermal() *thermal.Model { return p.heat }

// Reset rewinds the platform to the state New would construct for the same
// configuration with the given seed, reusing every allocation: topology,
// task graph and wiring closures are shared read-only, while routers (hop
// rows back to dimension order), PEs, engines, the directory, the thermal
// field and all counters are cleared in place. Packets still held from the
// previous run are recycled into the pool. The replayed construction sequence (mapping draw, then one
// generation-phase draw per node) makes a reset platform bit-identical to a
// freshly built one for every seed — the contract the pooled runners rely on
// (see TestSteppingEquivalencePooledReuse).
func (p *Platform) Reset(seed uint64) {
	p.Cfg.Seed = seed
	p.rng.Reseed(seed)
	p.clock.Reset()
	p.events.Clear()
	// Clearing the queue discarded any pending controller-retry closures;
	// reclaim the packets they held.
	for i := range p.ctlRetry {
		p.pool.Put(p.ctlRetry[i].pkt)
		p.ctlRetry[i] = ctlRetryRec{}
	}
	p.ctlRetry = p.ctlRetry[:0]
	p.counters = Counters{}
	p.nextPkt, p.nextInst = 0, 0

	// The fabric first: its buffers hand their leftover packets back to the
	// pool before the PEs release theirs.
	p.Net.Reset()

	mapping := p.Cfg.Mapper.Map(p.Graph, p.Cfg.Width, p.Cfg.Height, p.rng)
	p.Dir.Reset(mapping)

	p.peSet.Clear()
	p.engSet.Clear()
	p.peWake.reset()
	p.engWake.reset()
	for id := range p.pes {
		phase := sim.Tick(p.rng.Intn(int(p.maxPhase)))
		p.pes[id].Restart(mapping[id], phase)
		engine := p.engines[id]
		if hr, ok := engine.(aim.HardResetter); ok {
			hr.HardReset()
		} else {
			engine.Reset()
		}
		engine.NoteTask(mapping[id])
		p.peSet.Add(id)
		p.engSet.Add(id)
	}

	if p.heat != nil {
		p.heat.Reset()
		p.nextHeat = 0
		for i := range p.throttled {
			p.throttled[i] = false
		}
	}
}

// stepThermal advances the temperature field and applies the DVFS governor.
func (p *Platform) stepThermal(now sim.Tick) {
	if p.heat == nil || now < p.nextHeat {
		return
	}
	p.nextHeat = now + p.heat.Params().StepTicks
	for i, pe := range p.pes {
		p.workScan[i] = pe.WorkCount()
	}
	p.heat.Step(p.workScan)
	if !p.Cfg.ThermalDVFS {
		return
	}
	for _, id := range p.heat.OverLimit() {
		if !p.throttled[id] {
			p.throttled[id] = true
			p.pes[id].SetFrequencyDivider(2)
		}
	}
	for id, on := range p.throttled {
		if on && p.heat.CoolEnough(noc.NodeID(id)) {
			p.throttled[id] = false
			p.pes[id].SetFrequencyDivider(1)
		}
	}
}

// markPE marks a PE for ticking. Fabric delivery callbacks run on the tick
// kernel's worker goroutines during a parallel Net.Tick, so marking goes
// through the atomic path while one is in flight.
func (p *Platform) markPE(id int) {
	if p.netPar {
		p.peSet.AddAtomic(id)
		return
	}
	p.peSet.Add(id)
}

// markEng marks an engine for polling; same concurrency contract as markPE
// (router monitor taps fire from the tile sweep workers).
func (p *Platform) markEng(id int) {
	if p.netPar {
		p.engSet.AddAtomic(id)
		return
	}
	p.engSet.Add(id)
}

// wirePE connects one node's PE-level hooks: the task-switch tap, the FFW
// queue peek against the node's (possibly shared) router, and the generation
// stimulus. Router-level taps are wired per physical router by wireRouters.
func (p *Platform) wirePE(id noc.NodeID, pe *node.PE, engine aim.Engine) {
	r := p.Net.Router(id)
	if _, isNone := engine.(aim.None); !isNone {
		eid := int(id)
		pe.OnGenerate = func(now sim.Tick) {
			engine.OnGenerated(now)
			p.engSet.Add(eid)
		}
	}
	if ffw, ok := engine.(*aim.FFW); ok {
		// FFW adoption is limited to packets this node could sink locally:
		// join-bound traffic belongs to its fork-time join node. On a
		// concentrated fabric every cluster member peeks the shared router's
		// queues — they all forage from the same stream.
		ffw.SetQueuePeek(func(now sim.Tick) (taskgraph.TaskID, bool) {
			return r.QueuedHeadTaskFunc(now, func(task taskgraph.TaskID) bool {
				return !(p.Graph.IsSink(task) && p.Graph.JoinWidth(task) > 1)
			})
		})
	}
	// Queue space freeing at this node can unblock its (possibly shared)
	// router's parked sink-delivery and absorption ports.
	pe.OnDequeue = func() { p.Net.Stir(id) }
	pe.OnSwitch = func(from, to taskgraph.TaskID, now sim.Tick) {
		p.counters.TaskSwitches++
		// The new task changes which passing packets this node absorbs;
		// parked heads at the serving router must re-evaluate.
		p.Net.Stir(id)
		if p.Cfg.NeighborSignals {
			for port := noc.North; port <= noc.West; port++ {
				if nb, ok := p.Topo.Lateral(id, port); ok {
					p.engines[nb].OnNeighborSignal(to, now)
					p.engSet.Add(int(nb))
				}
			}
		}
	}
}

// wireRouters connects every physical router's sink, absorption, monitor
// taps and RCAP dispatch. On the mesh and torus each router serves exactly
// one node, so the wiring reduces to the classic one-to-one form; on a
// concentrated fabric the cluster's members share the router: deliveries
// demux on the packet's destination, absorption scans the members in
// ascending ID order, and monitor impulses stimulate every member's engine
// (they all observe the same router traffic).
func (p *Platform) wireRouters() {
	members := make([][]noc.NodeID, p.Topo.Nodes())
	for id := 0; id < p.Topo.Nodes(); id++ {
		rid := p.Topo.RouterOf(noc.NodeID(id))
		members[rid] = append(members[rid], noc.NodeID(id))
	}
	for _, r := range p.Net.UniqueRouters() {
		p.wireRouter(r, members[r.ID])
	}
}

// wireRouter wires one physical router for the given cluster members.
func (p *Platform) wireRouter(r *noc.Router, members []noc.NodeID) {
	if len(members) == 1 {
		r.SetSink(p.pes[members[0]])
	} else {
		r.SetSink(clusterSink{p})
	}
	// Task-addressed absorption: a member consumes any passing data packet
	// of its own task (join-bound sink packets stay bound to their fork-time
	// join node so branches converge). The handle is resolved only once a
	// member actually wants the packet — the common mismatch never touches
	// it.
	mems := members
	pool := p.pool
	r.Absorb = func(id noc.PacketID, task taskgraph.TaskID, now sim.Tick) bool {
		for _, m := range mems {
			pe := p.pes[m]
			if task != pe.Task() {
				continue
			}
			if p.Graph.IsSink(task) && p.Graph.JoinWidth(task) > 1 {
				return false
			}
			if pe.Accept(pool.Deref(id), now) {
				return true
			}
		}
		return false
	}
	// Monitor taps mark the member engines dirty so the stepping core polls
	// Decide on stimulated ticks only. The no-intelligence baseline ignores
	// every stimulus, so its taps stay nil and the router hot path skips the
	// calls entirely.
	smart := mems[:0:0]
	for _, m := range mems {
		if _, isNone := p.engines[m].(aim.None); !isNone {
			smart = append(smart, m)
		}
	}
	if len(smart) > 0 {
		r.Monitors.RoutedTask = func(task taskgraph.TaskID, now sim.Tick) {
			for _, m := range smart {
				p.engines[m].OnRouted(task, now)
				p.markEng(int(m))
			}
		}
		r.Monitors.InternalDelivery = func(task taskgraph.TaskID, now sim.Tick) {
			for _, m := range smart {
				p.engines[m].OnInternal(task, now)
				p.markEng(int(m))
			}
		}
		r.Monitors.DeadlineLapse = func(task taskgraph.TaskID, now sim.Tick) {
			for _, m := range smart {
				p.engines[m].OnDeadlineLapse(task, now)
				p.markEng(int(m))
			}
		}
	}
	r.SetConfigSink(platformConfig{p})
}

// clusterSink demuxes deliveries at a shared router onto the destination
// member's PE.
type clusterSink struct{ p *Platform }

// Accept implements noc.Sink.
func (s clusterSink) Accept(pkt *noc.Packet, now sim.Tick) bool {
	if uint(pkt.Dst) >= uint(len(s.p.pes)) {
		return false
	}
	return s.p.pes[pkt.Dst].Accept(pkt, now)
}

// platformConfig dispatches RCAP operations to their addressed node.
type platformConfig struct{ p *Platform }

// ApplyConfig implements noc.ConfigSink.
func (c platformConfig) ApplyConfig(dst noc.NodeID, op noc.ConfigOp, arg, arg2 int, now sim.Tick) {
	if uint(dst) >= uint(len(c.p.pes)) {
		return
	}
	pe := c.p.pes[dst]
	switch op {
	case noc.OpAIMParam:
		c.p.engines[dst].SetParam(arg, arg2)
		// A parameter write can change the engine's timing (FFW timeout, NI
		// thresholds): re-poll it so a fresh wake is scheduled.
		c.p.engSet.Add(int(dst))
	case noc.OpNodeReset:
		pe.Reset(now)
	case noc.OpNodeClockEnable:
		pe.SetClockEnable(arg != 0)
	case noc.OpNodeFrequency:
		pe.SetFrequencyDivider(arg)
	}
}

// platformEnv adapts Platform to node.Env without exporting the methods on
// Platform itself.
type platformEnv struct{ p *Platform }

// Inject implements node.Env.
func (e platformEnv) Inject(from noc.NodeID, pkt *noc.Packet, now sim.Tick) bool {
	return e.p.Net.Inject(from, pkt, now)
}

// Directory implements node.Env.
func (e platformEnv) Directory() *node.Directory { return e.p.Dir }

// Graph implements node.Env.
func (e platformEnv) Graph() *taskgraph.Graph { return e.p.Graph }

// allocPacket acquires a recycled (or fresh) zeroed packet stamped with the
// next fabric-unique ID.
func (p *Platform) allocPacket() *noc.Packet {
	pkt := p.pool.Get()
	p.nextPkt++
	pkt.ID = p.nextPkt
	return pkt
}

// PacketPool exposes the platform's packet recycler (stats, conservation
// checks). Callers must not Get/Put concurrently with a running platform.
func (p *Platform) PacketPool() *noc.PacketPool { return p.pool }

// ctlRetryRec is one pending controller-retry: the held config packet, the
// tap it keeps trying, and the tick its next attempt is scheduled for.
type ctlRetryRec struct {
	pkt *noc.Packet
	tap noc.NodeID
	at  sim.Tick
}

// injectConfig tries to enqueue a controller config packet at its tap,
// rescheduling next tick under back-pressure (the real controller paces its
// LVDS-fed uploads the same way). While a retry is pending the packet is
// tracked on the platform so Reset can reclaim it with the cleared events
// and Snapshot can record it.
func (p *Platform) injectConfig(tap noc.NodeID, pkt *noc.Packet, now sim.Tick) {
	if p.Net.Inject(tap, pkt, now) {
		p.untrackRetry(pkt)
		return
	}
	p.trackRetry(pkt, tap, now+1)
	p.Schedule(now+1, func(later sim.Tick) { p.injectConfig(tap, pkt, later) })
}

// trackRetry remembers a config packet held by a pending controller retry
// (a packet is tracked once however often the retry fires; repeats refresh
// the next-attempt tick).
func (p *Platform) trackRetry(pkt *noc.Packet, tap noc.NodeID, at sim.Tick) {
	for i := range p.ctlRetry {
		if p.ctlRetry[i].pkt == pkt {
			p.ctlRetry[i].at = at
			return
		}
	}
	p.ctlRetry = append(p.ctlRetry, ctlRetryRec{pkt: pkt, tap: tap, at: at})
}

// untrackRetry forgets a retry-held packet once its injection succeeded.
// Removal keeps the remaining records in order (see the field comment).
func (p *Platform) untrackRetry(pkt *noc.Packet) {
	for i := range p.ctlRetry {
		if p.ctlRetry[i].pkt == pkt {
			last := len(p.ctlRetry) - 1
			copy(p.ctlRetry[i:], p.ctlRetry[i+1:])
			p.ctlRetry[last] = ctlRetryRec{}
			p.ctlRetry = p.ctlRetry[:last]
			return
		}
	}
}

// NewPacket implements node.Env.
func (e platformEnv) NewPacket() *noc.Packet { return e.p.allocPacket() }

// FreePacket implements node.Env.
func (e platformEnv) FreePacket(pkt *noc.Packet) { e.p.pool.Put(pkt) }

// NextInstanceID implements node.Env.
func (e platformEnv) NextInstanceID() uint64 {
	e.p.nextInst++
	e.p.counters.InstancesStarted++
	return e.p.nextInst
}

// InstanceCompleted implements node.Env: count the throughput event and
// deliver the completion acknowledgement to the origin source (modelled as
// an out-of-band ack; see DESIGN.md §5).
func (e platformEnv) InstanceCompleted(inst uint64, origin, at noc.NodeID, now sim.Tick) {
	e.p.counters.InstancesCompleted++
	e.p.ack(inst, origin)
}

// InstanceLost implements node.Env: a loss report also frees the origin's
// flow-control slot so sources do not stall on dead work.
func (e platformEnv) InstanceLost(inst uint64, origin, at noc.NodeID, now sim.Tick) {
	e.p.counters.InstancesLost++
	e.p.ack(inst, origin)
}

// ack frees the origin source's flow-control window slot.
func (p *Platform) ack(inst uint64, origin noc.NodeID) {
	if origin >= 0 && int(origin) < len(p.pes) {
		p.pes[origin].AckInstance(inst)
	}
}

// PacketDropped implements node.Env.
func (e platformEnv) PacketDropped(pkt *noc.Packet, at noc.NodeID, now sim.Tick) {
	e.p.counters.PacketsDropped++
}

// rescuePacket retargets a packet ejected by deadlock recovery or stranded
// by an unreachable destination, then re-injects it locally.
func (p *Platform) rescuePacket(at noc.NodeID, pkt *noc.Packet, now sim.Tick) bool {
	if pkt.Kind != noc.Data {
		return false
	}
	isJoin := pkt.JoinDst != noc.Invalid && p.Graph.IsSink(pkt.Task)
	if isJoin && p.Dir.Alive(pkt.JoinDst) && p.Dir.TaskOf(pkt.JoinDst) == pkt.Task &&
		p.Net.Reachable(at, pkt.JoinDst) {
		// The join binding is still valid: the packet was ejected by
		// congestion, not by a lost destination. Requeue it unchanged so
		// sibling branches still converge.
		pkt.Dst = pkt.JoinDst
	} else {
		anchor := at
		if isJoin {
			anchor = pkt.JoinDst
		}
		dst, ok := p.Dir.Nearest(pkt.Task, anchor)
		if !ok || !p.Net.Reachable(at, dst) {
			return false
		}
		pkt.Dst = dst
		if p.Graph.IsSink(pkt.Task) {
			pkt.JoinDst = dst
		}
		pkt.Retargets++
	}
	if !p.Net.Inject(at, pkt, now) {
		return false
	}
	p.counters.PacketsRescued++
	return true
}

// Now returns the current simulation tick.
func (p *Platform) Now() sim.Tick { return p.clock.Now() }

// Counters returns the run's cumulative accounting.
func (p *Platform) Counters() Counters { return p.counters }

// PEs returns the processing elements indexed by NodeID (do not mutate).
func (p *Platform) PEs() []*node.PE { return p.pes }

// Engine returns the AIM of one node.
func (p *Platform) Engine(id noc.NodeID) aim.Engine { return p.engines[id] }

// Schedule registers a callback at an absolute tick (used by the experiment
// controller for fault injection and runtime reconfiguration).
func (p *Platform) Schedule(at sim.Tick, fn func(now sim.Tick)) {
	p.events.Schedule(at, fn)
}

// InjectFaults kills the given nodes now: their routers stop forwarding,
// their PEs stop processing, and fault-aware routes are recomputed. On a
// concentrated fabric the failed node's router is the whole cluster's
// attachment point, so its sibling members go down with it — keeping the
// directory's aliveness consistent with the fabric's (a "live" sibling
// behind a dead router would keep winning nearest-owner ties at distance 0
// while being unreachable). This is the experiment controller's out-of-band
// debug interface, so it does not perturb NoC traffic.
func (p *Platform) InjectFaults(nodes []noc.NodeID) {
	now := p.clock.Now()
	for _, id := range nodes {
		p.pes[id].Fail(now)
		p.Net.Fail(id, now)
		rid := p.Topo.RouterOf(id)
		for m := noc.NodeID(0); int(m) < p.Topo.Nodes(); m++ {
			if m == id || p.Topo.RouterOf(m) != rid || !p.pes[m].Alive() {
				continue
			}
			p.pes[m].Fail(now)
		}
	}
}

// ReviveNodes returns downed nodes to service now — the churn half of the
// fault engine. The node's router rejoins the fabric (routes recompute,
// back to dimension order once no fault is left), and every dead PE behind it revives
// as an idle recruit: directory re-registered, intelligence engine told the
// node is unassigned and re-enrolled for polling. On a concentrated fabric
// the shared router is the cluster's attachment point, so reviving any
// member brings its dead siblings back too — the exact mirror of
// InjectFaults' cluster semantics. Reviving a healthy node is a no-op.
func (p *Platform) ReviveNodes(nodes []noc.NodeID) {
	now := p.clock.Now()
	for _, id := range nodes {
		p.Net.Revive(id, now)
		rid := p.Topo.RouterOf(id)
		for m := noc.NodeID(0); int(m) < p.Topo.Nodes(); m++ {
			if p.Topo.RouterOf(m) != rid || p.pes[m].Alive() {
				continue
			}
			p.pes[m].Revive(now)
			p.engines[m].NoteTask(taskgraph.None)
			p.engSet.Add(int(m))
		}
	}
}

// Step advances the platform one tick: scheduled events, processing
// elements, fabric, then intelligence decisions.
//
// The default core is activity-tracked: only enrolled PEs are ticked, only
// routers holding traffic are serviced, and only stimulated (or timer-due)
// engines are polled. Sweeps run in ascending node-ID order — the order the
// dense scan uses — so for the same seed the two cores produce bit-identical
// counters and series (TestSteppingEquivalence).
func (p *Platform) Step() {
	now := p.clock.Now()
	p.events.RunDue(now)
	p.stepThermal(now)
	if p.Cfg.denseStepping {
		p.stepDense(now)
	} else {
		p.peSet.Sweep(func(id int) bool {
			pe := p.pes[id]
			pe.Tick(now)
			wake, has, parkable := pe.NextWake(now)
			if !parkable {
				return true
			}
			if has {
				// Near wakes stay enrolled: a few no-op ticks are cheaper
				// than two event-heap operations (and equally deterministic —
				// the dense scan ticks idle PEs every cycle anyway).
				if wake-now <= peParkHorizon {
					return true
				}
				p.peWake.schedule(id, wake)
			}
			return false
		})
		p.netPar = p.Net.ParallelTick()
		p.Net.Tick(now)
		p.netPar = false
		if p.engPollAll {
			for id := range p.engines {
				p.pollEngine(id, now)
			}
		} else {
			p.engSet.Sweep(func(id int) bool { return p.pollEngine(id, now) })
		}
	}
	p.clock.Step()
}

// stepDense is the reference full scan: every component, every tick.
func (p *Platform) stepDense(now sim.Tick) {
	for _, pe := range p.pes {
		pe.Tick(now)
	}
	p.netPar = p.Net.ParallelTick()
	p.Net.TickDense(now)
	p.netPar = false
	for id := range p.engines {
		p.pollEngine(id, now)
	}
}

// pollEngine runs one AIM decision pass and applies a fired switch. It
// returns whether a switch was applied (a fired engine stays enrolled one
// more tick so its post-switch state is re-polled). After the pass the
// engine's self-reported next decision tick is scheduled as a wake event.
func (p *Platform) pollEngine(id int, now sim.Tick) bool {
	engine := p.engines[id]
	task, ok := engine.Decide(now)
	fired := false
	if ok {
		pe := p.pes[id]
		if pe.Alive() {
			pe.SwitchTask(task, now)
			engine.NoteTask(pe.Task())
			fired = true
		}
	}
	if !p.Cfg.denseStepping && !p.engPollAll {
		if w := p.engWaker[id]; w != nil {
			if at, has := w.NextDecide(now); has {
				p.engWake.schedule(id, at)
			}
		}
	}
	return fired
}

// wakeTable parks the members of one component class (PEs or engines): a
// scheduled wake re-enrolls the member in its active set, with wake events
// deduplicated against the earliest pending tick per member. The per-member
// event closures are bound once so parking never allocates.
type wakeTable struct {
	events *sim.EventQueue
	at     []sim.Tick // earliest pending wake per member, -1 when none
	fn     []func(sim.Tick)
}

func newWakeTable(n int, events *sim.EventQueue, set *sim.ActiveSet) *wakeTable {
	w := &wakeTable{events: events, at: make([]sim.Tick, n), fn: make([]func(sim.Tick), n)}
	for id := 0; id < n; id++ {
		w.at[id] = -1
		w.fn[id] = func(fired sim.Tick) {
			if w.at[id] == fired {
				w.at[id] = -1
			}
			set.Add(id)
		}
	}
	return w
}

// reset forgets all pending wakes (their queued events must have been
// cleared by the caller).
func (w *wakeTable) reset() {
	for id := range w.at {
		w.at[id] = -1
	}
}

// schedule arranges a wake at the given tick, deduplicating against an
// earlier-or-equal pending wake. Superseded later wakes still fire but are
// spurious by the stepping core's contract (an extra tick on a parked
// component is a no-op).
func (w *wakeTable) schedule(id int, at sim.Tick) {
	if p := w.at[id]; p >= 0 && p <= at {
		return
	}
	w.at[id] = at
	w.events.Schedule(at, w.fn[id])
}

// RunFor advances the platform by d ticks, invoking onTick (when non-nil)
// after each step with the tick that just executed. When the platform is
// fully idle — no active PEs, routers or engines — the clock fast-forwards
// to the next scheduled wake (bounded by thermal steps and the run end)
// instead of executing no-op ticks; per-tick observers disable the skip.
func (p *Platform) RunFor(d sim.Tick, onTick func(now sim.Tick)) {
	end := p.clock.Now() + d
	for p.clock.Now() < end {
		if onTick == nil {
			p.fastForward(end)
			if p.clock.Now() >= end {
				return
			}
		}
		start := p.clock.Now()
		p.Step()
		if onTick != nil {
			onTick(start)
		}
	}
}

// fastForward advances the clock to the next tick with any work pending,
// capped at end. It is a no-op unless the active stepping core is in use and
// every component is parked.
func (p *Platform) fastForward(end sim.Tick) {
	if p.Cfg.denseStepping || p.engPollAll {
		return
	}
	if !p.peSet.Empty() || !p.engSet.Empty() || p.Net.ActiveRouters() > 0 {
		return
	}
	now := p.clock.Now()
	next := end
	if at, ok := p.events.PeekTick(); ok && at < next {
		next = at
	}
	if p.heat != nil && p.nextHeat < next {
		next = p.nextHeat
	}
	if next > now {
		p.clock.Advance(next - now)
	}
}

// String summarises the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("centurion %s seed=%d t=%s", p.Topo, p.Cfg.Seed, p.clock.Now())
}
