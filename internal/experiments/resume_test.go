package experiments

import (
	"context"
	"errors"
	"testing"

	"centurion/internal/centurion"
	"centurion/internal/faults"
)

// The checkpoint-resume contract: a run interrupted at any checkpoint
// boundary and resumed from the committed checkpoint — including across the
// CENCKPT1 wire encoding, as dispatch ships it — must be bit-identical to
// the same spec executed without interruption, across models × topologies ×
// hostile fault profiles.

var errKilled = errors.New("experiments_test: simulated worker kill")

// runUntilKilled runs the spec committing checkpoints every everyWins
// windows and aborts at the first boundary ≥ killWin, returning the last
// checkpoint committed before the kill (round-tripped through the CENCKPT1
// codec, like a real dispatch retry would see it).
func runUntilKilled(t *testing.T, spec Spec, resume *RunCheckpoint, everyWins, killWin int) *RunCheckpoint {
	t.Helper()
	var last *RunCheckpoint
	hook := &CheckpointHook{
		EveryWins: everyWins,
		Fn: func(win int, cp *RunCheckpoint) error {
			if win >= killWin {
				return errKilled
			}
			last = cp
			return nil
		},
	}
	_, err := RunContext(context.Background(), spec, nil, resume, hook)
	if !errors.Is(err, errKilled) {
		t.Fatalf("interrupted run returned %v, want the kill error", err)
	}
	if last == nil {
		t.Fatal("no checkpoint committed before the kill")
	}
	dec, err := centurion.DecodeCheckpoint(centurion.EncodeCheckpoint(last.Platform))
	if err != nil {
		t.Fatalf("checkpoint codec round trip: %v", err)
	}
	last.Platform = dec
	return last
}

func TestCheckpointResumeBitIdentity(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{
			name: "ffw-legacy-mesh",
			spec: func() Spec {
				s := DefaultSpec(ModelFFW, 21)
				s.DurationMs, s.FaultAtMs, s.NumFaults = 240, 120, 8
				return s
			}(),
		},
		{
			name: "ni-cascade-torus",
			spec: func() Spec {
				s := DefaultSpec(ModelNI, 7)
				s.DurationMs = 200
				s.Topology = "torus"
				s.FaultProfile = &faults.Profile{
					Kind: "cascade", AtMs: 45, Nodes: 6,
					Waves: 3, WaveDelayMs: 25, WaveRadius: 3, WaveDecayPct: 60,
				}
				return s
			}(),
		},
		{
			name: "none-flaky-cmesh",
			spec: func() Spec {
				s := DefaultSpec(ModelNone, 5)
				s.DurationMs = 150
				s.Topology = "cmesh"
				s.FaultProfile = &faults.Profile{
					Kind: "flaky", AtMs: 30, Links: 8, PeriodMs: 30, DutyPct: 40,
				}
				return s
			}(),
		},
	}
	prev := SetWarmStart(false)
	defer SetWarmStart(prev)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := Run(tc.spec)

			// First attempt dies mid-hostile-phase; the retry resumes from
			// the last committed checkpoint and runs to completion.
			cp := runUntilKilled(t, tc.spec, nil, 20, tc.spec.DurationMs/2)
			var progressed []float64
			progress := func(w int, thr, act, sw float64) {
				if w != len(progressed) {
					t.Fatalf("progress out of order: window %d after %d", w, len(progressed))
				}
				progressed = append(progressed, thr)
			}
			resumed, err := RunContext(context.Background(), tc.spec, progress, cp, nil)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			requireEqualResults(t, tc.name+"/one-kill", clean, resumed)
			// The resumed run replays the prefix to progress, so the stream
			// the submitter sees covers every window exactly once.
			if len(progressed) != len(clean.Throughput.Values) {
				t.Fatalf("progress covered %d windows, want %d", len(progressed), len(clean.Throughput.Values))
			}
			for w, thr := range progressed {
				if thr != clean.Throughput.Values[w] {
					t.Fatalf("progress window %d = %v, want %v", w, thr, clean.Throughput.Values[w])
				}
			}

			// Two kills: the second attempt also dies (later), and the third
			// resumes from the second attempt's checkpoint.
			cp1 := runUntilKilled(t, tc.spec, nil, 20, tc.spec.DurationMs/3)
			cp2 := runUntilKilled(t, tc.spec, cp1, 20, (2*tc.spec.DurationMs)/3)
			if cp2.Win <= cp1.Win {
				t.Fatalf("second attempt made no progress: %d -> %d", cp1.Win, cp2.Win)
			}
			final, err := RunContext(context.Background(), tc.spec, nil, cp2, nil)
			if err != nil {
				t.Fatalf("final resumed run: %v", err)
			}
			requireEqualResults(t, tc.name+"/two-kills", clean, final)
		})
	}
}

// A checkpoint cadence longer than the run emits no checkpoints (and never
// fires at the final window — completion supersedes it).
func TestCheckpointHookCadence(t *testing.T) {
	prev := SetWarmStart(false)
	defer SetWarmStart(prev)
	spec := DefaultSpec(ModelNone, 3)
	spec.DurationMs = 60
	var wins []int
	hook := &CheckpointHook{EveryWins: 25, Fn: func(win int, cp *RunCheckpoint) error {
		wins = append(wins, win)
		if cp.Win != win || len(cp.Thr) != win || cp.Platform == nil {
			t.Fatalf("malformed checkpoint at %d: %+v", win, cp)
		}
		return nil
	}}
	if _, err := RunContext(context.Background(), spec, nil, nil, hook); err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 || wins[0] != 25 || wins[1] != 50 {
		t.Fatalf("checkpoint windows = %v, want [25 50]", wins)
	}
}
