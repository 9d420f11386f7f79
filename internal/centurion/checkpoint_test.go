package centurion

// The bit-identity contract of checkpoint/fork snapshots (ISSUE 9):
// Restore(Snapshot(t)) followed by stepping to T must be indistinguishable —
// counters, fabric stats, per-window series, per-node state, and the encoded
// checkpoint bytes themselves — from the uncheckpointed run, for every
// model × topology × fault timeline × stepping core, whether the fork lands
// on a fresh platform or one leased back dirty from a sync.Pool, and whether
// the fabric ticks serially or on the parallel tiled kernel. The encoded
// checkpoint is canonical (identical state → identical bytes), which makes
// byte comparison the strongest available oracle: it covers the packet
// arena's books, ring slots, router records, RNG streams and timers that the
// observable-state comparison cannot see.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// ckptWindows advances p window by window (1 ms each), appending each
// window's completions to *series.
func ckptWindows(p *Platform, windows int, series *[]uint64, last *uint64) {
	for w := 0; w < windows; w++ {
		p.RunFor(sim.Ms(1), nil)
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
// checkpoint bytes.
func forkCheck(t *testing.T, cfg Config, sched faults.Schedule, snapMs, totalMs int, fork func(*Checkpoint) *Platform) {
	t.Helper()

	ref := New(cfg)
	applySched(ref, sched)
	var refSeries []uint64
	var refLast uint64
	ckptWindows(ref, totalMs, &refSeries, &refLast)
	refObs := ckptObserve(ref, refSeries[snapMs:])
	refBytes := EncodeCheckpoint(ref.Snapshot())

	src := New(cfg)
	applySched(src, sched)
	var srcSeries []uint64
	var srcLast uint64
	ckptWindows(src, snapMs, &srcSeries, &srcLast)
	cp := src.Snapshot()

	forked := fork(cp)
	forked.Restore(cp)
	applySched(forked, sched)
	var fSeries []uint64
	fLast := forked.Counters().InstancesCompleted
	ckptWindows(forked, totalMs-snapMs, &fSeries, &fLast)
	forkObs := ckptObserve(forked, fSeries)
	forkBytes := EncodeCheckpoint(forked.Snapshot())

	ckptWindows(src, totalMs-snapMs, &srcSeries, &srcLast)
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
// fabric under both stepping cores, checkpointed at 60 ms — after a 12-node
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
					cfg.denseStepping = dense
					probe := New(cfg)
					sched := buildHostile(t, probe, faults.Profile{Kind: faults.KindDeath, AtMs: 50, Nodes: 12}, 7)
					for _, snap := range snaps {
						forkCheck(t, cfg, sched, snap, 120, func(*Checkpoint) *Platform { return New(cfg) })
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
				forkCheck(t, cfg, sched, snapMs, 150, func(*Checkpoint) *Platform { return New(cfg) })
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
	driveHostile(dirty, buildHostile(t, dirty, hostileProfiles[3], 0xbada))
	pool.Put(dirty)

	probe := New(cfg)
	sched := buildHostile(t, probe, hostileProfiles[0], 11)
	forkCheck(t, cfg, sched, 60, 120, func(*Checkpoint) *Platform {
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
	driveHostile(dirty, buildHostile(t, dirty, hostileProfiles[3], 0xbada))

	probe := New(cfg)
	sched := buildHostile(t, probe, hostileProfiles[0], 11)
	forkCheck(t, cfg, sched, 60, 120, func(*Checkpoint) *Platform { return dirty })
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
			forkCheck(t, cfg, sched, 60, 120, func(*Checkpoint) *Platform { return New(cfg) })
		})
	}
	t.Run("cross-worker-fork", func(t *testing.T) {
		serial := mk(1)
		probe := New(serial)
		sched := buildHostile(t, probe, hostileProfiles[2], 13)
		forkCheck(t, serial, sched, 60, 120, func(*Checkpoint) *Platform { return New(mk(4)) })
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
	forkCheck(t, cfg, sched, 5, 10, func(*Checkpoint) *Platform { return New(cfg) })
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
	ckptWindows(src, 60, &series, &last)
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
		p.Restore(c)
		applySched(p, sched)
		var s []uint64
		l := p.Counters().InstancesCompleted
		ckptWindows(p, 60, &s, &l)
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

// TestCheckpointShapeMismatchPanics: restoring into a platform of a
// different geometry is a programming error and must fail fast.
func TestCheckpointShapeMismatchPanics(t *testing.T) {
	cp := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)).Snapshot()
	small := DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)
	small.Width, small.Height = 8, 8
	other := New(small)
	defer func() {
		if recover() == nil {
			t.Errorf("restore into a differently shaped platform did not panic")
		}
	}()
	other.Restore(cp)
}

// TestCheckpointFitsRejectsFabricMisfit: a checkpoint of the same grid whose
// fabric was built with another ring capacity carries a network section the
// target cannot hold; a CRC-valid checkpoint with any per-node section cut
// short, or engine records of another kind or task graph, would panic
// Restore or restore the wrong state. Fits must say so — it is what a worker
// asks before trusting checkpoint bytes from a lease — rather than let
// Restore panic. A checkpoint that fits still restores.
func TestCheckpointFitsRejectsFabricMisfit(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3)
	wide := cfg
	wide.NoC.BufferFlits = 16
	src := New(wide)
	src.RunFor(sim.Ms(10), nil)
	cp, err := DecodeCheckpoint(EncodeCheckpoint(src.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if err := New(cfg).Fits(cp); err == nil {
		t.Fatal("Fits accepted a checkpoint of a fabric with twice the ring capacity")
	}
	if err := New(wide).Fits(cp); err != nil {
		t.Fatalf("Fits refused the checkpoint on its own fabric: %v", err)
	}

	hot := DefaultConfig(aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}, 3)
	th := thermal.DefaultParams()
	hot.Thermal = &th
	src = New(hot)
	src.RunFor(sim.Ms(10), nil)
	reencode := func(cp *Checkpoint) *Checkpoint {
		t.Helper()
		out, err := DecodeCheckpoint(EncodeCheckpoint(cp))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cuts := []struct {
		section string
		cut     func(cp *Checkpoint)
	}{
		{"dir.TaskOf", func(cp *Checkpoint) { cp.dir.TaskOf = cp.dir.TaskOf[1:] }},
		{"dir.Alive", func(cp *Checkpoint) { cp.dir.Alive = cp.dir.Alive[1:] }},
		{"engines", func(cp *Checkpoint) { cp.engines = cp.engines[1:] }},
		{"NI Counts", func(cp *Checkpoint) { cp.engines[5].Counts = cp.engines[5].Counts[1:] }},
		{"peActive", func(cp *Checkpoint) { cp.peActive.Words = cp.peActive.Words[1:] }},
		{"engActive", func(cp *Checkpoint) { cp.engActive.Words = cp.engActive.Words[1:] }},
		{"peWakeAt", func(cp *Checkpoint) { cp.peWakeAt = cp.peWakeAt[1:] }},
		{"engWakeAt", func(cp *Checkpoint) { cp.engWakeAt = cp.engWakeAt[1:] }},
		{"heat.Temp", func(cp *Checkpoint) { cp.heat.Temp = cp.heat.Temp[1:] }},
		{"throttled", func(cp *Checkpoint) { cp.throttled = cp.throttled[1:] }},
	}
	for _, c := range cuts {
		cp := src.Snapshot()
		c.cut(cp)
		if err := New(hot).Fits(reencode(cp)); err == nil {
			t.Errorf("Fits accepted a checkpoint with %s cut short", c.section)
		}
	}
	ffw := hot
	ffw.Engines = aim.NewFFWFactory(aim.DefaultFFWParams())
	pipe := hot
	pipe.Graph = taskgraph.Pipeline(4, 120, 24)
	cp = reencode(src.Snapshot())
	if err := New(ffw).Fits(cp); err == nil {
		t.Error("Fits accepted NI engine records on an FFW platform")
	}
	if err := New(pipe).Fits(cp); err == nil {
		t.Error("Fits accepted NI engine records built over another task graph")
	}
	dst := New(hot)
	if err := dst.Fits(cp); err != nil {
		t.Fatalf("Fits refused the checkpoint on its own platform: %v", err)
	}
	dst.Restore(cp)
	if !bytes.Equal(EncodeCheckpoint(dst.Snapshot()), EncodeCheckpoint(src.Snapshot())) {
		t.Error("a fitting checkpoint did not restore to the source's state")
	}
}
