package noc

import (
	"encoding/binary"
	"runtime"
	"testing"

	"centurion/internal/sim"
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
// lengths — and, through a 4-byte patch, its encoded length prefixes — around
// a valid faulted state. Whatever arrives, decoding fails, or Fits refuses
// the state, or LoadState restores it: never a panic, and never more memory
// than the input's size accounts for.
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var dec NetworkState
		if dec.DecodeBinary(wire.NewReader(data)) != nil {
			return
		}
		err := target.Fits(&dec)
		if err == nil {
			target.LoadState(&dec)
		}
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
	})
}
