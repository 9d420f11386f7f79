package experiments

import (
	"sort"

	"centurion/internal/centurion"
	"centurion/internal/sim"
)

// Run prefixes (DESIGN.md §15/§16). A run that does not start at tick zero
// starts from a RunCheckpoint: the state at a window boundary plus the
// sampler prefix a restored platform cannot re-derive. The same value serves
// a dispatch retry resuming at the last committed boundary (it arrives as
// RunContext's resume argument) and a sweep variant forking from the settled
// prefix its siblings share (it comes from the warm-start cache); RunContext
// emits them through a CheckpointHook and at the divergence boundary. The
// concatenation of a prefix and the suffix run from it is bit-identical to an
// uninterrupted run of the same spec.

// NetSnap is a fabric-counter snapshot at a wave boundary. Checkpoints
// carry the boundaries already passed so per-wave traffic diffs survive a
// resume.
type NetSnap struct {
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Misrouted uint64 `json:"misrouted"`
}

// RunCheckpoint is one run's prefix up to a window boundary.
type RunCheckpoint struct {
	// Win is the number of completed windows; the run continues there.
	Win int
	// Thr/Act/Sw are the completed windows' throughput, nodes-active and
	// switch samples (length Win).
	Thr, Act, Sw []float64
	// WaveSnaps are the fabric snapshots taken at wave boundaries < Win.
	WaveSnaps []NetSnap
	// Platform is the platform snapshot at the Win boundary. It is nil only
	// for a prefix that covers the whole run, which replays from the samples
	// and the final counters without touching a platform.
	Platform *centurion.Checkpoint
	counters centurion.Counters
}

// CheckpointHook asks a run to emit checkpoints every EveryWins completed
// windows (at absolute window indices divisible by EveryWins, so resumed
// attempts checkpoint at the same boundaries as the first, and never at the
// final window). Fn owns the checkpoint it receives; returning an error
// aborts the run — that is how a fenced-off dispatch attempt stops promptly
// instead of racing its replacement.
type CheckpointHook struct {
	EveryWins int
	Fn        func(win int, cp *RunCheckpoint) error
}

// capturePrefix copies the run's state after win completed windows.
func capturePrefix(p *centurion.Platform, res *Result, waveSnaps []NetSnap, win, windows int) *RunCheckpoint {
	cp := &RunCheckpoint{
		Win:       win,
		Thr:       append([]float64(nil), res.Throughput.Values[:win]...),
		Act:       append([]float64(nil), res.NodesActive.Values[:win]...),
		Sw:        append([]float64(nil), res.Switches.Values[:win]...),
		WaveSnaps: append([]NetSnap(nil), waveSnaps...),
	}
	if win < windows {
		cp.Platform = p.Snapshot()
	} else {
		cp.counters = p.Counters()
	}
	return cp
}

// fits reports whether a resume checkpoint — bytes another process wrote,
// delivered over HTTP or read back from the checkpoint store — is a prefix of
// this run: a boundary strictly inside the run, sample arrays of exactly that
// length, the wave snapshots of exactly the waves before it, and a platform
// snapshot taken at that tick. Whether the snapshot fits the platform is
// Restore's to say. A misfit is discarded and the run starts from tick zero,
// which is always correct.
func (cp *RunCheckpoint) fits(windows int, windowTicks sim.Tick, waveWins []int) bool {
	if cp == nil || cp.Platform == nil || cp.Win <= 0 || cp.Win >= windows ||
		len(cp.Thr) != cp.Win || len(cp.Act) != cp.Win || len(cp.Sw) != cp.Win {
		return false
	}
	return len(cp.WaveSnaps) == sort.SearchInts(waveWins, cp.Win) &&
		cp.Platform.Now() == sim.Tick(cp.Win)*windowTicks
}
