package noc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/wire"
)

// fitFabric builds the small faulted fabric FuzzNetworkStateFit saves:
// 8×4 mesh in one or two tiles, traffic buffered in the rings, two dead
// routers and one byzantine one.
func fitFabric(tiles int) *Network {
	cfg := DefaultConfig()
	cfg.Tiles = tiles
	n := NewNetwork(NewMesh(8, 4), cfg)
	var clk sim.Clock
	for i := 0; i < 24; i++ {
		src := NodeID(i % 32)
		n.Inject(src, dataPacket(uint64(i), src, NodeID((i*7+5)%32), 1, 4), clk.Now())
	}
	n.SetByzantine(9, 1<<31, ByzMisroute|ByzDup, 3)
	run(n, &clk, 6)
	n.Fail([]NodeID{13}, nil)
	n.Fail([]NodeID{22}, nil)
	run(n, &clk, 3)
	return n
}

// resized returns a copy of s grown or shrunk by d elements (never below 0).
func resized[T any](s []T, d int16) []T {
	out := make([]T, max(0, len(s)+int(d)))
	copy(out, s)
	return out
}

// FuzzNetworkStateFit drives the network section's header counts and slice
// lengths — and, through a 4-byte patch, its encoded length prefixes or any
// other four bytes — around a valid faulted state. Whatever arrives,
// decoding refuses it, or LoadState refuses it and leaves the fabric as it
// was, or LoadState restores it and the fabric ticks on: never a panic, and
// never more memory than the input's size accounts for.
func FuzzNetworkStateFit(f *testing.F) {
	var bases [2]NetworkState
	fitFabric(1).SaveState(&bases[0])
	fitFabric(2).SaveState(&bases[1])
	// tiled, nodes, spp, uniq, tileN, recs, cold, slots, hop, byz, tileSets, words, packets, gen, flipByz, patchAt, patch
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))           // the valid state
	f.Add(true, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))            // the valid tiled state
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(10-32*32), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))    // hop cut to 10 bytes
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(-3), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))          // recs miscounted
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(5), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))           // cold miscounted
	f.Add(false, int8(0), int8(16), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))          // another ring capacity
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(-7), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))          // slots short
	f.Add(true, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(-1), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))           // a tile set missing
	f.Add(true, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(2), int16(0), int16(0), false, uint32(0), uint32(0))            // set words wrong
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(-31), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))         // byz short
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), true, uint32(0), uint32(0))            // hasByz flipped
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(40), int16(0), false, uint32(0), uint32(0))          // gen short of the arena
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(300), int16(300), false, uint32(0), uint32(0))       // a larger arena
	f.Add(false, int8(-1), int8(0), int8(1), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(0), uint32(0))          // header lies
	f.Add(false, int8(0), int8(0), int8(0), int8(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false, uint32(17), uint32(0xffffffff)) // huge arena count
	f.Fuzz(func(t *testing.T, tiled bool, dNodes, dSpp, dUniq, dTileN int8, dRecs, dCold, dSlots, dHop, dByz, dSets, dWords, dPackets, dGen int16, flipByz bool, patchAt, patch uint32) {
		base := &bases[0]
		tiles := 1
		if tiled {
			base, tiles = &bases[1], 2
		}
		st := *base
		st.nodes += int(dNodes)
		st.spp += int(dSpp)
		st.uniqN += int(dUniq)
		st.tileN += int(dTileN)
		st.recs = resized(st.recs, dRecs)
		st.cold = resized(st.cold, dCold)
		st.slots = resized(st.slots, dSlots)
		st.hop = resized(st.hop, dHop)
		st.byz = resized(st.byz, dByz)
		st.tileActive = resized(st.tileActive, dSets)
		st.active.Words = resized(st.active.Words, dWords)
		st.pool.packets = resized(st.pool.packets, dPackets)
		st.pool.gen = resized(st.pool.gen, dGen)
		st.hasByz = st.hasByz != flipByz
		data := st.AppendBinary(nil)
		if int(patchAt)+4 <= len(data) && patch != 0 {
			binary.LittleEndian.PutUint32(data[patchAt:], patch)
		}

		target := NewNetwork(NewMesh(8, 4), Params{Tiles: tiles}) // same spp: BufferFlits defaults
		var was NetworkState
		target.SaveState(&was)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var dec NetworkState
		if dec.DecodeBinary(wire.NewReader(data)) != nil {
			return
		}
		err := target.LoadState(&dec)
		runtime.ReadMemStats(&after)
		// The decoded slices mirror the input; LoadState adds at most the
		// arena's packets (one slab per 256) and the byzantine slice.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil && dNodes == 0 && dSpp == 0 && dUniq == 0 && dTileN == 0 && dRecs == 0 && dCold == 0 &&
			dSlots == 0 && dHop == 0 && dByz == 0 && dSets == 0 && dWords == 0 && dPackets == 0 && dGen == 0 && !flipByz && patch == 0 {
			t.Fatalf("the unmodified state does not fit: %v", err)
		}
		if err != nil {
			var now NetworkState
			target.SaveState(&now)
			if !bytes.Equal(now.AppendBinary(nil), was.AppendBinary(nil)) {
				t.Fatalf("a refused LoadState (%v) changed the fabric", err)
			}
			return
		}
		var clk sim.Clock
		clk.SetNow(9) // where fitFabric stopped
		run(target, &clk, 20)
	})
}

// TestNetworkStateRefusesHostileValues: a network section whose values
// contradict each other is refused by DecodeBinary, one whose rings sit
// elsewhere in another fabric by LoadState (leaving the fabric as it was),
// and one carrying a task the platform's graph lacks by CheckTasks. Every
// row would otherwise panic a later tick or run on silently wrong state.
// Neighbour links are the target's own: a hostile one is ignored.
func TestNetworkStateRefusesHostileValues(t *testing.T) {
	var base NetworkState
	fitFabric(1).SaveState(&base)
	// busy finds a router record with a queued entry, and that entry.
	busy := func(st *NetworkState) (rec, port int, s *ringSlot) {
		for i := range st.recs {
			for p, rg := range st.recs[i].rings {
				if rg.n > 0 {
					return i, p, &st.slots[rg.head]
				}
			}
		}
		t.Fatal("no ring holds a packet")
		return
	}
	live := func(st *NetworkState) *Packet {
		for i := range st.pool.packets {
			if !st.pool.packets[i].pooled {
				return &st.pool.packets[i]
			}
		}
		t.Fatal("no live packet")
		return nil
	}
	const decode, load, tasks = "DecodeBinary", "LoadState", "CheckTasks"
	rows := []struct {
		name string
		by   string
		edit func(st *NetworkState)
	}{
		{"ring handle 0x7ffff", decode, func(st *NetworkState) { _, _, s := busy(st); s.id = 0x7ffff }},
		{"ring handle of a stale generation", decode, func(st *NetworkState) {
			_, _, s := busy(st)
			s.id = makePacketID(int32(s.id)&pidIndexMask, uint32(s.id>>pidGenShift)+1)
		}},
		{"ring head 1<<30", decode, func(st *NetworkState) { i, p, _ := busy(st); st.recs[i].rings[p].head = 1 << 30 }},
		{"ring count past capacity", decode, func(st *NetworkState) { i, p, _ := busy(st); st.recs[i].rings[p].n = uint32(st.spp) + 1 }},
		{"occupancy bits without packets", decode, func(st *NetworkState) { st.recs[0].occ ^= 1 << Local }},
		{"round-robin cursor past the ports", decode, func(st *NetworkState) { st.recs[0].rr = 9 }},
		{"ring entry to node 9999", decode, func(st *NetworkState) { _, _, s := busy(st); s.dst = 9999 }},
		{"hop entry 50", decode, func(st *NetworkState) { st.hop[77] = 50 }},
		{"free-list entry -3", decode, func(st *NetworkState) { st.pool.free = append(st.pool.free, -3) }},
		{"free-list entry of a live packet", decode, func(st *NetworkState) {
			_, _, s := busy(st)
			st.pool.free = append(st.pool.free, int32(s.id)&pidIndexMask)
		}},
		{"packet Dst 9999", decode, func(st *NetworkState) { live(st).Dst = 9999 }},
		{"packet handle of another slot", decode, func(st *NetworkState) { live(st).h ^= 1 }},
		{"generation tag past the handle", decode, func(st *NetworkState) { st.pool.gen[0] = 1 << 12 }},
		{"byzantine arming without records", decode, func(st *NetworkState) { st.hasByz, st.byz = false, nil }},
		{"ring moved into another router's", load, func(st *NetworkState) {
			i, p, _ := busy(st)
			j := (i + 1) % len(st.recs)
			st.recs[i].rings[p], st.recs[j].rings[p] = st.recs[j].rings[p], st.recs[i].rings[p]
		}},
		{"tile set marking a router past the fabric", load, func(st *NetworkState) {
			st.active.Words = append([]uint64(nil), st.active.Words...)
			st.active.Words[0] |= 1 << 40
			st.active.N++
		}},
		{"packet task 99", tasks, func(st *NetworkState) { live(st).Task = 99 }},
		{"ring entry task 99", tasks, func(st *NetworkState) { _, _, s := busy(st); s.task = 99 }},
		{"data packet of no task", tasks, func(st *NetworkState) { live(st).Task = taskgraph.None }},
	}
	known := func(task taskgraph.TaskID) bool { return task == 1 }
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var st NetworkState
			if err := st.DecodeBinary(wire.NewReader(base.AppendBinary(nil))); err != nil {
				t.Fatal(err)
			}
			row.edit(&st)
			var dec NetworkState
			err := dec.DecodeBinary(wire.NewReader(st.AppendBinary(nil)))
			if row.by == decode {
				if err == nil {
					t.Fatal("DecodeBinary accepted the state")
				}
				t.Log(err)
				return
			}
			if err != nil {
				t.Fatalf("DecodeBinary refused a state whose bytes agree: %v", err)
			}
			if row.by == tasks {
				if err := dec.CheckTasks(known); err == nil {
					t.Fatal("CheckTasks accepted the state")
				}
				return
			}
			target := NewNetwork(NewMesh(8, 4), DefaultConfig())
			var was, now NetworkState
			target.SaveState(&was)
			if err = target.LoadState(&dec); err == nil {
				t.Fatal("LoadState accepted the state")
			}
			t.Log(err)
			target.SaveState(&now)
			if !bytes.Equal(now.AppendBinary(nil), was.AppendBinary(nil)) {
				t.Fatal("a refused LoadState changed the fabric")
			}
		})
	}

	// A hostile neighbour link is ignored: the fabric keeps its own.
	st := base
	st.recs = append([]routerState(nil), base.recs...)
	st.recs[3].nbr[East] = 9999
	var dec NetworkState
	if err := dec.DecodeBinary(wire.NewReader(st.AppendBinary(nil))); err != nil {
		t.Fatal(err)
	}
	if err := dec.CheckTasks(known); err != nil {
		t.Fatal(err)
	}
	target := NewNetwork(NewMesh(8, 4), DefaultConfig())
	if err := target.LoadState(&dec); err != nil {
		t.Fatal(err)
	}
	var got NetworkState
	target.SaveState(&got)
	if !bytes.Equal(got.AppendBinary(nil), base.AppendBinary(nil)) {
		t.Fatal("the restored fabric differs from the saved one")
	}
}
