package noc_test

// Fault waves: Network.Fail and Network.Revive take a whole wave of nodes
// and rebuild the hop rows once. Nothing between two victims reads the rows,
// so a k-node wave must leave exactly the fabric that k one-node waves leave
// — rows, rings, per-router stats, drops, even the drop and callback order —
// while paying one rebuild instead of k.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"centurion/internal/noc"
	"centurion/internal/sim"
)

// refuseSink never accepts a delivery, so traffic stays buffered.
type refuseSink struct{}

func (refuseSink) Accept(*noc.Packet, sim.Tick) bool { return false }

// waveFabric builds a loaded fabric: every sink refuses, and three packets
// per node are injected over a few ticks, so the rings of whatever a wave
// kills still hold traffic to drain and account.
func waveFabric(topo noc.Topology) (*noc.Network, sim.Tick) {
	n := noc.NewNetwork(topo, noc.DefaultConfig())
	for _, r := range n.UniqueRouters() {
		r.SetSink(refuseSink{})
	}
	var clk sim.Clock
	nodes := topo.Nodes()
	for i := 0; i < 3*nodes; i++ {
		src := noc.NodeID(i % nodes)
		n.Inject(src, &noc.Packet{ID: uint64(i), Kind: noc.Data, Src: src, Dst: noc.NodeID((i*7 + 5) % nodes), Task: 1, Flits: 4}, clk.Now())
		if i%nodes == nodes-1 {
			n.Tick(clk.Now())
			clk.Step()
		}
	}
	for i := 0; i < 8; i++ {
		n.Tick(clk.Now())
		clk.Step()
	}
	return n, clk.Now()
}

// waveTwin is a fabric restored from another's state that logs its drops
// and wave callbacks in order.
type waveTwin struct {
	*noc.Network
	log []string
}

func newWaveTwin(topo noc.Topology, from *noc.Network) *waveTwin {
	var st noc.NetworkState
	from.SaveState(&st)
	w := &waveTwin{Network: noc.NewNetwork(topo, noc.DefaultConfig())}
	w.LoadState(&st)
	for _, r := range w.UniqueRouters() {
		r.SetSink(refuseSink{})
	}
	w.DropHandler = func(at noc.NodeID, p *noc.Packet, reason noc.DropReason) {
		w.log = append(w.log, fmt.Sprintf("drop %d@%d %v", p.ID, at, reason))
	}
	return w
}

func (w *waveTwin) note(what string) func(noc.NodeID) {
	return func(id noc.NodeID) { w.log = append(w.log, fmt.Sprintf("%s %d", what, id)) }
}

// stateBytes is the fabric's whole checkpointed state: rings, hop rows,
// router records and stats, the arena and the fabric counters.
func stateBytes(n *noc.Network) []byte {
	var st noc.NetworkState
	n.SaveState(&st)
	return st.AppendBinary(nil)
}

// sameFabric fails the test unless the wave-driven and the single-driven
// twins are indistinguishable.
func sameFabric(t *testing.T, phase string, wave, single *waveTwin) {
	t.Helper()
	if !slices.Equal(wave.log, single.log) {
		t.Fatalf("%s: the wave logged\n%q\none-node waves logged\n%q", phase, wave.log, single.log)
	}
	if !bytes.Equal(stateBytes(wave.Network), stateBytes(single.Network)) {
		t.Fatalf("%s: the wave's fabric state differs from the one-node waves'", phase)
	}
}

// TestFaultWaveMatchesSingles: on every fabric shape, one k-node Fail wave
// and one Revive wave leave the fabric that k one-node waves leave, rebuild
// once each instead of once per changed router, and a Revive wave that
// heals the last fault restores dimension-order rows. The victims include
// a node whose router the wave already killed (a cluster sibling on the
// cmesh) and a repeat of an earlier victim. The twins then tick on and must
// stay identical.
func TestFaultWaveMatchesSingles(t *testing.T) {
	for _, topo := range []noc.Topology{noc.NewMesh(16, 8), noc.NewTorus(16, 8), noc.NewCMesh(16, 8)} {
		t.Run(topo.Kind(), func(t *testing.T) {
			base, now := waveFabric(topo)
			wave, single := newWaveTwin(topo, base), newWaveTwin(topo, base)
			w := noc.NodeID(topo.Width())
			victims := []noc.NodeID{3*w + 5, 0, 5*w + 12, 3*w + 4, 7*w + 15, 2*w + 9, 3*w + 5}
			routers := map[noc.NodeID]bool{}
			for _, id := range victims {
				routers[topo.RouterOf(id)] = true
			}

			before := wave.Rebuilds()
			wave.Fail(victims, wave.note("down"))
			if got := wave.Rebuilds() - before; got != 1 {
				t.Errorf("a %d-node Fail wave rebuilt %d times, want 1", len(victims), got)
			}
			before = single.Rebuilds()
			for _, id := range victims {
				single.Fail([]noc.NodeID{id}, single.note("down"))
			}
			if got := single.Rebuilds() - before; got != uint64(len(routers)) {
				t.Errorf("%d one-node Fail waves rebuilt %d times, want one per dead router (%d)", len(victims), got, len(routers))
			}
			if wave.FaultyCount() != len(routers) || len(wave.log) == 0 {
				t.Fatalf("the wave killed %d routers and logged %d events, want %d routers and some drops", wave.FaultyCount(), len(wave.log), len(routers))
			}
			sameFabric(t, "after the Fail wave", wave, single)

			// A partial Revive wave, then the healing one.
			before = wave.Rebuilds()
			wave.Revive(victims[:3], wave.note("up"))
			for _, id := range victims[:3] {
				single.Revive([]noc.NodeID{id}, single.note("up"))
			}
			sameFabric(t, "after a partial Revive wave", wave, single)
			wave.Revive(victims, wave.note("up"))
			for _, id := range victims {
				single.Revive([]noc.NodeID{id}, single.note("up"))
			}
			if got := wave.Rebuilds() - before; got != 2 {
				t.Errorf("two Revive waves rebuilt %d times, want 2", got)
			}
			sameFabric(t, "after the healing Revive wave", wave, single)
			if wave.FaultyCount() != 0 {
				t.Fatalf("%d routers still faulty after the healing wave", wave.FaultyCount())
			}
			for src := noc.NodeID(0); int(src) < topo.Nodes(); src++ {
				for dst := noc.NodeID(0); int(dst) < topo.Nodes(); dst++ {
					if got, want := wave.NextHop(src, dst), topo.BaseNextHop(src, dst); got != want {
						t.Fatalf("healed NextHop(%d, %d) = %v, want dimension order %v", src, dst, got, want)
					}
				}
			}

			for i := sim.Tick(0); i < 40; i++ {
				wave.Tick(now + i)
				single.Tick(now + i)
			}
			sameFabric(t, "40 ticks later", wave, single)
		})
	}
}

// TestFaultWaveRebuildsOnce: a 32-node wave rebuilds the rows once, and a
// wave that changes no router — every victim already dead, every victim
// already alive, or no victim at all — rebuilds nothing.
func TestFaultWaveRebuildsOnce(t *testing.T) {
	topo := noc.NewMesh(16, 8)
	n := noc.NewNetwork(topo, noc.DefaultConfig())
	victims := make([]noc.NodeID, 32)
	for i := range victims {
		victims[i] = noc.NodeID(4*i + i/4%4)
	}
	for _, step := range []struct {
		name string
		do   func()
		want uint64
	}{
		{"32-node Fail wave", func() { n.Fail(victims, nil) }, 1},
		{"Fail wave of dead nodes", func() { n.Fail(victims, nil) }, 0},
		{"empty Fail wave", func() { n.Fail(nil, nil) }, 0},
		{"32-node Revive wave", func() { n.Revive(victims, nil) }, 1},
		{"Revive wave of live nodes", func() { n.Revive(victims, nil) }, 0},
	} {
		before := n.Rebuilds()
		step.do()
		if got := n.Rebuilds() - before; got != step.want {
			t.Errorf("%s rebuilt %d times, want %d", step.name, got, step.want)
		}
	}
	if n.FaultyCount() != 0 {
		t.Fatalf("%d routers faulty after the revive", n.FaultyCount())
	}
}
