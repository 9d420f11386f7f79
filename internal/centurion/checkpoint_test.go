package centurion

// The bit-identity contract of checkpoint/fork snapshots (ISSUE 9):
// Restore(Snapshot(t)) followed by stepping to T must be indistinguishable —
// counters, fabric stats, per-window series, per-node state, and the encoded
// checkpoint bytes themselves — from the uncheckpointed run, for every
// model × topology × fault timeline, in production and under the dense
// oracle, whether the fork lands
// on a fresh platform or one leased back dirty from a sync.Pool, and whether
// the fabric ticks serially or on the parallel tiled kernel. The encoded
// checkpoint is canonical (identical state → identical bytes), which makes
// byte comparison the strongest available oracle: it covers the packet
// arena's books, ring slots, router records, RNG streams and timers that the
// observable-state comparison cannot see.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/node"
	"centurion/internal/picoblaze"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// ckptWindows advances p window by window (1 ms each, under the dense oracle
// when dense), appending each window's completions to *series.
func ckptWindows(p *Platform, dense bool, windows int, series *[]uint64, last *uint64) {
	for w := 0; w < windows; w++ {
		advance(p, sim.Ms(1), dense)
		c := p.Counters()
		*series = append(*series, c.InstancesCompleted-*last)
		*last = c.InstancesCompleted
	}
}

// ckptObserve captures the equivalence suite's observable set with the given
// per-window series.
func ckptObserve(p *Platform, series []uint64) steppingSnapshot {
	snap := steppingSnapshot{
		series:   series,
		counters: p.Counters(),
		net:      p.Net.Stats(),
		now:      p.Now(),
	}
	for _, pe := range p.PEs() {
		snap.tasks = append(snap.tasks, pe.Task())
		snap.work = append(snap.work, [3]uint64{pe.Stats.Generated, pe.Stats.Processed, pe.Stats.Switches})
	}
	return snap
}

// applySched arms the fault timeline (no-op for an empty schedule).
func applySched(p *Platform, sched faults.Schedule) {
	if !sched.Empty() {
		NewController(p).ApplySchedule(sched)
	}
}

// forkCheck runs the snapshot/fork protocol for one configuration:
//
//  1. Reference: an uncheckpointed run over the full horizon.
//  2. Source: the same run snapshotted at snapMs, then continued — proving
//     Snapshot is non-perturbing.
//  3. Fork: the checkpoint restored into whatever platform fork() supplies
//     (fresh, pool-leased, different worker count), the timeline re-armed,
//     and the remaining horizon run.
//
// All three must agree on every observable and on the final encoded
// checkpoint bytes. With dense, all three step under the dense oracle.
func forkCheck(t *testing.T, cfg Config, dense bool, sched faults.Schedule, snapMs, totalMs int, fork func(*Checkpoint) *Platform) {
	t.Helper()

	ref := New(cfg)
	applySched(ref, sched)
	var refSeries []uint64
	var refLast uint64
	ckptWindows(ref, dense, totalMs, &refSeries, &refLast)
	refObs := ckptObserve(ref, refSeries[snapMs:])
	refBytes := EncodeCheckpoint(ref.Snapshot())

	src := New(cfg)
	applySched(src, sched)
	var srcSeries []uint64
	var srcLast uint64
	ckptWindows(src, dense, snapMs, &srcSeries, &srcLast)
	cp := src.Snapshot()
	if _, err := DecodeCheckpoint(EncodeCheckpoint(cp)); err != nil {
		t.Fatalf("the decoder refuses a live platform's checkpoint: %v", err)
	}

	forked := fork(cp)
	if err := forked.Restore(cp); err != nil {
		t.Fatalf("restoring the fork: %v", err)
	}
	applySched(forked, sched)
	var fSeries []uint64
	fLast := forked.Counters().InstancesCompleted
	ckptWindows(forked, dense, totalMs-snapMs, &fSeries, &fLast)
	forkObs := ckptObserve(forked, fSeries)
	forkBytes := EncodeCheckpoint(forked.Snapshot())

	ckptWindows(src, dense, totalMs-snapMs, &srcSeries, &srcLast)
	contObs := ckptObserve(src, srcSeries[snapMs:])
	contBytes := EncodeCheckpoint(src.Snapshot())

	compareSnapshots(t, refObs, forkObs)
	compareSnapshots(t, refObs, contObs)
	if !bytes.Equal(refBytes, forkBytes) {
		t.Errorf("forked run's final checkpoint differs from the uncheckpointed reference (%d vs %d bytes)",
			len(forkBytes), len(refBytes))
	}
	if !bytes.Equal(refBytes, contBytes) {
		t.Errorf("taking a snapshot perturbed the source run: final checkpoints differ")
	}
}

// TestCheckpointForkBitIdentity is the core matrix: every model on every
// fabric, in production and under the dense oracle (dense=true),
// checkpointed at 60 ms — after a 12-node
// kill wave at 50 ms has left dead routers, rerouted tables and in-flight
// recovery state for the snapshot to capture. The PicoBlaze engine's record
// leaves out registers, flags, PC and call stack, so it also forks at
// further ticks before and after the wave: those are dead at every pass
// boundary, whatever the latches and counters hold.
func TestCheckpointForkBitIdentity(t *testing.T) {
	for _, m := range steppingModels {
		snaps := []int{60}
		if m.name == "ni-pb" {
			snaps = []int{7, 33, 60, 91}
		}
		for _, topo := range []string{"mesh", "torus", "cmesh"} {
			for _, dense := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/dense=%v", m.name, topo, dense), func(t *testing.T) {
					cfg := DefaultConfig(m.factory, m.mapper, 7)
					cfg.Topology = topo
					probe := New(cfg)
					sched := buildHostile(t, probe, faults.Profile{Kind: faults.KindDeath, AtMs: 50, Nodes: 12}, 7)
					for _, snap := range snaps {
						forkCheck(t, cfg, dense, sched, snap, 120, func(*Checkpoint) *Platform { return New(cfg) })
					}
				})
			}
		}
	}
}

// TestCheckpointHostileTimelines forks before (30 ms) and inside (60 ms)
// each hostile timeline: churn revivals, flaky link flaps, cascade waves and
// byzantine routers all have pending events that ApplySchedule must re-arm
// on the fork — and already-fired events whose effects (including advanced
// per-router byzantine RNG streams) ride in the checkpoint.
func TestCheckpointHostileTimelines(t *testing.T) {
	for _, prof := range hostileProfiles {
		for _, snapMs := range []int{30, 60} {
			t.Run(fmt.Sprintf("%s/snap=%dms", prof.Kind, snapMs), func(t *testing.T) {
				cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
				probe := New(cfg)
				sched := buildHostile(t, probe, prof, 5)
				forkCheck(t, cfg, false, sched, snapMs, 150, func(*Checkpoint) *Platform { return New(cfg) })
			})
		}
	}
}

// TestCheckpointRestoreIntoPooledPlatform restores into a platform leased
// back from a sync.Pool still dirty from a byzantine run — leftover faults,
// buffered packets, armed routers and queued events must all be overwritten
// by Restore alone, with no Reset in between.
func TestCheckpointRestoreIntoPooledPlatform(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 11)
	pool := sync.Pool{New: func() any { return New(cfg) }}

	dirty := pool.Get().(*Platform)
	driveHostile(dirty, false, buildHostile(t, dirty, hostileProfiles[3], 0xbada))
	pool.Put(dirty)

	probe := New(cfg)
	sched := buildHostile(t, probe, hostileProfiles[0], 11)
	forkCheck(t, cfg, false, sched, 60, 120, func(*Checkpoint) *Platform {
		return pool.Get().(*Platform)
	})
}

// TestCheckpointRestoreIntoDirtyPlatform is the same restore without the
// pool's say in it (a sync.Pool may hand back a fresh platform after a GC,
// and then the test above proves nothing): the target is always the
// platform still dirty from the byzantine run.
func TestCheckpointRestoreIntoDirtyPlatform(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 11)
	dirty := New(cfg)
	driveHostile(dirty, false, buildHostile(t, dirty, hostileProfiles[3], 0xbada))

	probe := New(cfg)
	sched := buildHostile(t, probe, hostileProfiles[0], 11)
	forkCheck(t, cfg, false, sched, 60, 120, func(*Checkpoint) *Platform { return dirty })
}

// TestCheckpointParallelTick covers the tiled tick kernel: snapshots taken
// while the fabric steps in parallel epochs, restored into platforms
// sweeping the same four tiles serially (W=1), in parallel (W=4), and
// across the two — a W=1 checkpoint forked onto a W=4 platform must still
// be bit-identical, since worker count is execution strategy, not state.
func TestCheckpointParallelTick(t *testing.T) {
	mk := func(workers int) Config {
		return tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 13, workers)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := mk(workers)
			probe := New(cfg)
			sched := buildHostile(t, probe, hostileProfiles[2], 13)
			forkCheck(t, cfg, false, sched, 60, 120, func(*Checkpoint) *Platform { return New(cfg) })
		})
	}
	t.Run("cross-worker-fork", func(t *testing.T) {
		serial := mk(1)
		probe := New(serial)
		sched := buildHostile(t, probe, hostileProfiles[2], 13)
		forkCheck(t, serial, false, sched, 60, 120, func(*Checkpoint) *Platform { return New(mk(4)) })
	})
}

// TestCheckpointMegaFabric exercises the 64×64 grid (auto-tiled, parallel
// workers, XY routing as large fabrics run it) on a short horizon: 4096
// nodes of arena, ring and router state through the snapshot/fork/
// byte-compare protocol, with a kill wave landing before the snapshot.
func TestCheckpointMegaFabric(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 21)
	cfg.Width, cfg.Height = 64, 64
	cfg.NoC.Workers = 4
	cfg.NoC.Mode = noc.RouteXY
	probe := New(cfg)
	sched := buildHostile(t, probe, faults.Profile{Kind: faults.KindDeath, AtMs: 3, Nodes: 12}, 21)
	forkCheck(t, cfg, false, sched, 5, 10, func(*Checkpoint) *Platform { return New(cfg) })
}

// TestCheckpointBytesPinned pins the CENCKPT1 wire format across refactors
// of the state it serializes: the encoded checkpoint of a fixed run must keep
// its exact length and SHA-256, on a single-tile fabric (whose one active set
// travels in the whole-fabric slot with an empty tile list) and on the
// auto-tiled 64×64 (zeroed whole-fabric words plus four tile sets). A
// checkpoint written before such a refactor must restore after it.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, c := range []struct {
		w, h  int
		bytes int
		sum   string
	}{
		{16, 8, 281587, "d7ac46ee6011b279dbb34d525c7ead9f971fef78379971e6becf84c7d8d0c630"},
		{64, 64, 24996539, "f87246f6cf35ab70a8dad6c35b42ddbdf40b7d6cf9f250cfaa03e22cb4101d0c"},
	} {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			if c.w > 16 && testing.Short() {
				t.Skip("64×64 pin skipped in -short mode")
			}
			cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 7)
			cfg.Width, cfg.Height = c.w, c.h
			p := New(cfg)
			p.RunFor(sim.Ms(30), nil)
			data := EncodeCheckpoint(p.Snapshot())
			if sum := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != c.bytes || sum != c.sum {
				t.Errorf("checkpoint is %d bytes, sha256 %s; pinned %d bytes, %s", len(data), sum, c.bytes, c.sum)
			}
		})
	}
}

// TestCheckpointEncodedLen pins EncodedLen to the encoder section by section:
// for every model and fabric, each hostile timeline (byzantine records,
// pending retries), thermal state and a tiled fabric's per-tile sets, the
// encoding is exactly EncodedLen bytes and fills the one buffer
// EncodeCheckpoint allocates without growing it.
func TestCheckpointEncodedLen(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
		prof faults.Profile
	}
	death := faults.Profile{Kind: faults.KindDeath, AtMs: 20, Nodes: 12}
	var cases []tc
	for _, m := range steppingModels {
		for _, topo := range []string{"mesh", "torus", "cmesh"} {
			cfg := DefaultConfig(m.factory, m.mapper, 7)
			cfg.Topology = topo
			cases = append(cases, tc{m.name + "/" + topo, cfg, death})
		}
	}
	ffw := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
	for _, prof := range hostileProfiles {
		cases = append(cases, tc{string(prof.Kind), ffw, prof})
	}
	hot := DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 3)
	th := thermal.DefaultParams()
	hot.Thermal = &th
	cases = append(cases,
		tc{"thermal", hot, death},
		tc{"tiled", tiledConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 13, 1), death})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := New(c.cfg)
			applySched(p, buildHostile(t, p, c.prof, 7))
			p.RunFor(sim.Ms(40), nil)
			cp := p.Snapshot()
			data := EncodeCheckpoint(cp)
			if n := cp.EncodedLen(); len(data) != n || cap(data) != n {
				t.Fatalf("encoded %d bytes into a %d-byte buffer; EncodedLen says %d", len(data), cap(data), n)
			}
			framed := AppendCheckpoint([]byte("head"), cp)
			if string(framed[:4]) != "head" || !bytes.Equal(framed[4:], data) {
				t.Fatal("AppendCheckpoint after a prefix differs from EncodeCheckpoint")
			}
		})
	}
	p := New(ffw)
	p.RunFor(sim.Ms(30), nil)
	cp := p.Snapshot()
	if allocs := testing.AllocsPerRun(5, func() { EncodeCheckpoint(cp) }); allocs != 1 {
		t.Errorf("EncodeCheckpoint made %v allocations, want 1", allocs)
	}
}

// TestCheckpointCodecRoundTrip is the cross-process determinism proof:
// encode → decode → restore → step must match the in-memory restore bit for
// bit, the encoding must be canonical under decode → re-encode, and the
// file writer/reader must round-trip exactly.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 17)
	src := New(cfg)
	sched := buildHostile(t, src, hostileProfiles[0], 17)
	applySched(src, sched)
	var series []uint64
	var last uint64
	ckptWindows(src, false, 60, &series, &last)
	cp := src.Snapshot()
	data := EncodeCheckpoint(cp)

	dec, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}
	if !bytes.Equal(EncodeCheckpoint(dec), data) {
		t.Errorf("decode → re-encode is not byte-identical")
	}

	path := filepath.Join(t.TempDir(), "prefix.ckpt")
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatalf("writing checkpoint file: %v", err)
	}
	fromFile, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("reading checkpoint file: %v", err)
	}
	if !bytes.Equal(EncodeCheckpoint(fromFile), data) {
		t.Errorf("file round-trip is not byte-identical")
	}

	run := func(c *Checkpoint) ([]uint64, steppingSnapshot, []byte) {
		p := New(cfg)
		if err := p.Restore(c); err != nil {
			t.Fatalf("restoring: %v", err)
		}
		applySched(p, sched)
		var s []uint64
		l := p.Counters().InstancesCompleted
		ckptWindows(p, false, 60, &s, &l)
		return s, ckptObserve(p, s), EncodeCheckpoint(p.Snapshot())
	}
	_, memObs, memBytes := run(cp)
	_, decObs, decBytes := run(dec)
	_, fileObs, fileBytes := run(fromFile)
	compareSnapshots(t, memObs, decObs)
	compareSnapshots(t, memObs, fileObs)
	if !bytes.Equal(memBytes, decBytes) || !bytes.Equal(memBytes, fileBytes) {
		t.Errorf("decoded-checkpoint forks diverged from the in-memory fork")
	}
}

// TestCheckpointCodecRejectsDamage proves truncated, corrupted and misframed
// checkpoint files fail loudly with descriptive errors instead of restoring
// garbage.
func TestCheckpointCodecRejectsDamage(t *testing.T) {
	cfg := DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)
	p := New(cfg)
	p.RunFor(sim.Ms(5), nil)
	data := EncodeCheckpoint(p.Snapshot())

	for _, n := range []int{0, 4, ckptHeaderLen - 1, ckptHeaderLen + 16, len(data) - 1} {
		if _, err := DecodeCheckpoint(data[:n]); !errors.Is(err, ErrCheckpointTruncated) {
			t.Errorf("truncated to %d bytes: got %v, want ErrCheckpointTruncated", n, err)
		}
	}

	badMagic := bytes.Clone(data)
	badMagic[0] ^= 0xff
	if _, err := DecodeCheckpoint(badMagic); err == nil {
		t.Errorf("bad magic accepted")
	}

	badVersion := bytes.Clone(data)
	badVersion[8] ^= 0xff
	if _, err := DecodeCheckpoint(badVersion); err == nil {
		t.Errorf("unknown version accepted")
	}

	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := DecodeCheckpoint(corrupt); !errors.Is(err, ErrCheckpointChecksum) {
		t.Errorf("corrupted payload: got %v, want ErrCheckpointChecksum", err)
	}

	trailing := append(bytes.Clone(data), 0xEE)
	if _, err := DecodeCheckpoint(trailing); err == nil {
		t.Errorf("trailing bytes accepted")
	}
}

// misfitRow is one row of the admission table of outside checkpoint bytes:
// a checkpoint of src, run 20 ms and then edited, must be refused by the step
// named in by — DecodeCheckpoint, or Restore into a dst platform.
type misfitRow struct {
	name     string
	src, dst Config
	by       string
	edit     func(t *testing.T, cp *Checkpoint)
}

const byDecode, byRestore = "DecodeCheckpoint", "Restore"

// misfitConfigs returns the platforms the admission table is built from: a
// 16×8 FFW platform, the same with twice the ring capacity, an 8×8 one, a
// thermal NI platform, the same with FFW engines and the same over a
// pipeline task graph.
func misfitConfigs() (ffw, wide, small, hot, hotFFW, pipe Config) {
	ffw = DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3)
	wide = ffw
	wide.NoC.BufferFlits = 16
	small = ffw
	small.Width, small.Height = 8, 8
	hot = DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 3)
	th := thermal.DefaultParams()
	hot.Thermal = &th
	hotFFW = hot
	hotFFW.Engines = ffw.Engines
	pipe = hot
	pipe.Graph = taskgraph.Pipeline(4, 120, 24)
	return
}

// checkMisfits runs each row: the step it names returns an error, nothing
// panics, and a refused Restore leaves the target's state byte for byte as
// it was.
func checkMisfits(t *testing.T, rows []misfitRow) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			src := New(row.src)
			src.RunFor(sim.Ms(20), nil)
			cp := src.Snapshot()
			if row.edit != nil {
				row.edit(t, cp)
			}
			dec, err := DecodeCheckpoint(EncodeCheckpoint(cp))
			if row.by == byDecode {
				if err == nil {
					t.Fatal("DecodeCheckpoint accepted the checkpoint")
				}
				t.Log(err)
				return
			}
			if err != nil {
				t.Fatalf("DecodeCheckpoint refused a checkpoint whose bytes agree: %v", err)
			}
			dst := New(row.dst)
			dst.RunFor(sim.Ms(5), nil)
			before := EncodeCheckpoint(dst.Snapshot())
			if err = dst.Restore(dec); err == nil {
				t.Fatal("Restore accepted the checkpoint")
			}
			t.Log(err)
			if !bytes.Equal(EncodeCheckpoint(dst.Snapshot()), before) {
				t.Fatal("a refused Restore changed the platform")
			}
		})
	}
}

// TestCheckpointShapeMismatchPanics: a checkpoint of another grid shape is
// refused by Restore with an error rather than a panic, and the target is
// left as it was.
func TestCheckpointShapeMismatchPanics(t *testing.T) {
	ffw, _, small, _, _, _ := misfitConfigs()
	checkMisfits(t, []misfitRow{{"another shape", ffw, small, byRestore, nil}})
}

// TestCheckpointFitsRejectsFabricMisfit: a checkpoint of the same grid whose
// fabric was built with another ring capacity, one with any per-node section
// cut short, or one with engine records of another kind or task graph does
// not fit the target platform, and Restore refuses it. A checkpoint that fits
// still restores.
func TestCheckpointFitsRejectsFabricMisfit(t *testing.T) {
	ffw, wide, _, hot, hotFFW, pipe := misfitConfigs()
	checkMisfits(t, []misfitRow{
		{"twice the ring capacity", wide, ffw, byRestore, nil},
		{"NI records on an FFW platform", hot, hotFFW, byRestore, nil},
		{"NI records over another task graph", hot, pipe, byRestore, nil},
		{"dir.TaskOf cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.dir.TaskOf = cp.dir.TaskOf[1:] }},
		{"dir.Alive cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.dir.Alive = cp.dir.Alive[1:] }},
		{"engines cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.engines = cp.engines[1:] }},
		{"NI Counts cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.engines[5].Counts = cp.engines[5].Counts[1:] }},
		{"peActive cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.peActive.Words = cp.peActive.Words[1:] }},
		{"engActive cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.engActive.Words = cp.engActive.Words[1:] }},
		{"peWakeAt cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.peWakeAt = cp.peWakeAt[1:] }},
		{"engWakeAt cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.engWakeAt = cp.engWakeAt[1:] }},
		{"heat.Temp cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.heat.Temp = cp.heat.Temp[1:] }},
		{"throttled cut short", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.throttled = cp.throttled[1:] }},
	})

	for _, cfg := range []Config{wide, hot} {
		src := New(cfg)
		src.RunFor(sim.Ms(20), nil)
		cp, err := DecodeCheckpoint(EncodeCheckpoint(src.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		dst := New(cfg)
		if err := dst.Restore(cp); err != nil {
			t.Fatalf("Restore refused the checkpoint on its own platform: %v", err)
		}
		if !bytes.Equal(EncodeCheckpoint(dst.Snapshot()), EncodeCheckpoint(src.Snapshot())) {
			t.Error("a fitting checkpoint did not restore to the source's state")
		}
	}
}

// TestRestoreRejectsMisfit: a checkpoint whose values contradict each other
// — slots that name no live packet or are held twice, nodes past the fabric
// — is refused by DecodeCheckpoint, and one naming tasks the target's graph
// lacks, or an activity set that counts a member it lacks, is refused by
// Restore. The shape and size misfits are in
// TestCheckpointShapeMismatchPanics and TestCheckpointFitsRejectsFabricMisfit.
func TestRestoreRejectsMisfit(t *testing.T) {
	ffw, _, _, hot, _, _ := misfitConfigs()
	// held detaches one packet a PE holds and returns its arena slot, so a
	// row can hand the packet to another owner.
	held := func(t *testing.T, cp *Checkpoint) int32 {
		for i := range cp.pes {
			if st := &cp.pes[i]; len(st.Queue) > 0 {
				slot := st.Queue[len(st.Queue)-1]
				st.Queue = st.Queue[:len(st.Queue)-1]
				return slot
			}
		}
		t.Fatal("no PE holds a queued packet")
		return 0
	}
	checkMisfits(t, []misfitRow{
		{"peActive counts a member it lacks", hot, hot, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.peActive.N++ }},

		{"PE current slot 1<<20", ffw, ffw, byDecode, func(_ *testing.T, cp *Checkpoint) { cp.pes[0].Current = 1 << 20 }},
		{"PE queue slot -7", ffw, ffw, byDecode, func(_ *testing.T, cp *Checkpoint) { cp.pes[0].Queue = append(cp.pes[0].Queue, -7) }},
		{"PE queue slot held twice", ffw, ffw, byDecode, func(t *testing.T, cp *Checkpoint) {
			slot := held(t, cp)
			cp.pes[1].Outbox = append(cp.pes[1].Outbox, slot, slot)
		}},
		{"retry slot 1<<20", ffw, ffw, byDecode, func(_ *testing.T, cp *Checkpoint) {
			cp.retries = append(cp.retries, retryRec{slot: 1 << 20, tap: 0, at: cp.now + 1})
		}},
		{"retry tap 9999", ffw, ffw, byDecode, func(t *testing.T, cp *Checkpoint) {
			cp.retries = append(cp.retries, retryRec{slot: held(t, cp), tap: 9999, at: cp.now + 1})
		}},
		{"retry of a data packet", ffw, ffw, byDecode, func(t *testing.T, cp *Checkpoint) {
			cp.retries = append(cp.retries, retryRec{slot: held(t, cp), tap: 0, at: cp.now + 1})
		}},
		{"join origin 9999", ffw, ffw, byDecode, func(_ *testing.T, cp *Checkpoint) {
			cp.pes[0].Joins = append(cp.pes[0].Joins, node.JoinEntry{Inst: 1 << 40, Origin: 9999})
		}},
		{"dir.TaskOf -5", ffw, ffw, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.dir.TaskOf[7] = -5 }},
		{"dir.TaskOf 99", ffw, ffw, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.dir.TaskOf[7] = 99 }},
		{"PE task 99", ffw, ffw, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.pes[9].Task = 99 }},
		{"engine current 99", ffw, ffw, byRestore, func(_ *testing.T, cp *Checkpoint) { cp.engines[11].Current = 99 }},
	})
}

// FuzzCheckpointRestore drives outside checkpoint bytes through the whole
// admission path: a 16×8 checkpoint of NI, FFW, the PicoBlaze NI program, a
// faulted FFW run or a thermal NI run gets patch written into its payload at
// offset at, and is re-framed with a valid checksum so the input passes the
// frame check. Decoding refuses it; or Restore refuses it, with the target
// left as it was; or the restored platform runs 20 ms. Nothing panics, and
// decoding and restoring allocate no more than the input's size accounts
// for.
func FuzzCheckpointRestore(f *testing.F) {
	ni := DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 3)
	ffw := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3)
	pb := DefaultConfig(picoblaze.NewNIEngineFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 3)
	hot := ni
	th := thermal.DefaultParams()
	hot.Thermal = &th
	cfgs := []Config{ni, ffw, pb, ffw, hot}
	bases := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		p := New(cfg)
		if i == 3 {
			sched, err := faults.Build(p.Topo, 5, faults.Profile{Kind: faults.KindDeath, AtMs: 10, Nodes: 12}, 200)
			if err != nil {
				f.Fatal(err)
			}
			applySched(p, sched)
		}
		p.RunFor(sim.Ms(20), nil)
		bases[i] = EncodeCheckpoint(p.Snapshot())
		f.Add(uint8(i), uint32(0), []byte(nil))
	}
	f.Add(uint8(1), uint32(200), []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(uint8(3), uint32(1<<16), []byte{0x03, 0, 0, 0})
	f.Add(uint8(4), uint32(len(bases[4])-40), []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, base uint8, at uint32, patch []byte) {
		i := int(base) % len(bases)
		data := bytes.Clone(bases[i])
		payload := data[ckptHeaderLen:]
		copy(payload[int(at)%len(payload):], patch)
		binary.LittleEndian.PutUint32(data[14:], crc32.ChecksumIEEE(payload))

		dst := New(cfgs[i])
		was := EncodeCheckpoint(dst.Snapshot())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cp, err := DecodeCheckpoint(data)
		if err == nil {
			err = dst.Restore(cp)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if len(patch) == 0 {
				t.Fatalf("the unmodified checkpoint was refused: %v", err)
			}
			if !bytes.Equal(EncodeCheckpoint(dst.Snapshot()), was) {
				t.Fatalf("a refusal (%v) changed the platform", err)
			}
			return
		}
		dst.RunFor(sim.Ms(20), nil)
	})
}
