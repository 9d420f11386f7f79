package noc

import (
	"testing"

	"centurion/internal/sim"
)

// ringNet builds a small fabric whose shared ring backing the tests poke
// directly (the rings are internal to the network since DESIGN.md §11).
func ringNet(bufFlits int) *Network {
	cfg := DefaultConfig()
	cfg.BufferFlits = bufFlits
	return NewNetwork(NewTopology(2, 1), cfg)
}

func ringPacket(net *Network, id uint64, flits int) *Packet {
	p := net.Pool().Get()
	p.ID = id
	p.Kind = Data
	p.Flits = flits
	return p
}

func TestRingFIFO(t *testing.T) {
	net := ringNet(16)
	for i := uint64(1); i <= 4; i++ {
		if !net.pushPacket(0, North, ringPacket(net, i, 4), 0) {
			t.Fatalf("push %d failed", i)
		}
	}
	if net.pushPacket(0, North, ringPacket(net, 5, 1), 0) {
		t.Fatal("push past flit capacity succeeded")
	}
	st := &net.state[0]
	if got := st.rings[North].n; got != 4 {
		t.Fatalf("ring holds %d packets, want 4", got)
	}
	if got := st.rings[North].used; got != 16 {
		t.Fatalf("ring uses %d flits, want 16", got)
	}
	for i := uint64(1); i <= 4; i++ {
		s := net.headSlot(st, North)
		p := net.Pool().Deref(s.id)
		if p.ID != i {
			t.Fatalf("head %d returned packet #%d", i, p.ID)
		}
		net.popIn(nil, 0, st, North)
	}
	if st.rings[North].n != 0 || st.rings[North].used != 0 {
		t.Fatalf("drained ring not empty: %+v", st.rings[North])
	}
	if st.queued != 0 || st.occ != 0 {
		t.Fatalf("router counters not cleared: queued=%d occ=%b", st.queued, st.occ)
	}
}

func TestRingReadyAt(t *testing.T) {
	net := ringNet(8)
	if !net.pushPacket(0, East, ringPacket(net, 1, 4), 10) {
		t.Fatal("push failed")
	}
	s := net.headSlot(&net.state[0], East)
	if net.Pool().Deref(s.id).ID != 1 || s.ready != sim.Tick(10) {
		t.Fatalf("head slot = %+v, want packet #1 ready at 10", s)
	}
}

func TestRingWrapAround(t *testing.T) {
	// Interleave pushes and pops far past the ring length and make sure
	// ordering and flit accounting survive the wrap.
	net := ringNet(8)
	st := &net.state[0]
	next := uint64(0)
	want := uint64(0)
	for ; next < 4; next++ {
		if !net.pushPacket(0, West, ringPacket(net, next, 1), 0) {
			t.Fatalf("prefill push %d failed", next)
		}
	}
	for round := 0; round < 300; round++ {
		if !net.pushPacket(0, West, ringPacket(net, next, 1), 0) {
			t.Fatalf("round %d: push failed with %d queued", round, st.rings[West].n)
		}
		next++
		p := net.Pool().Deref(net.headSlot(st, West).id)
		if p.ID != want {
			t.Fatalf("round %d: popped %d, want %d", round, p.ID, want)
		}
		net.popIn(nil, 0, st, West)
		net.Pool().Put(p)
		want++
	}
	for st.rings[West].n > 0 {
		p := net.Pool().Deref(net.headSlot(st, West).id)
		if p.ID != want {
			t.Fatalf("drain: popped %d, want %d", p.ID, want)
		}
		net.popIn(nil, 0, st, West)
		net.Pool().Put(p)
		want++
	}
	if want != next {
		t.Fatalf("popped %d packets, pushed %d", want, next)
	}
}

func TestRingSubFlitPacketsStillOccupy(t *testing.T) {
	// A zero-flit packet costs one flit of accounting (the same clamp the
	// link serialiser applies), so the ring can never overflow on count.
	net := ringNet(4)
	for i := 0; i < 4; i++ {
		if !net.pushPacket(0, South, ringPacket(net, uint64(i), 0), 0) {
			t.Fatalf("push %d failed", i)
		}
	}
	if net.pushPacket(0, South, ringPacket(net, 9, 0), 0) {
		t.Fatal("zero-flit push past capacity succeeded")
	}
}
