package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/centurion"
	"centurion/internal/experiments"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// The run-lifecycle contract at the batch layer (DESIGN.md §16): a batch
// resumed from any checkpoint a clean pass commits produces the bytes a clean
// local Execute produces, and a checkpoint that is not a prefix of the leased
// batch — short series, a boundary outside the run, a platform of another
// shape, undecodable bytes — is discarded rather than trusted.

// commitRec is one checkpoint as the coordinator would have stored it.
type commitRec struct {
	tick int64
	data []byte
}

// cleanPass runs the spec through the worker executor from tick zero,
// committing every everyMs, and returns the result with every commit made.
func cleanPass(t testing.TB, spec RunSpec, everyMs int, checkpoint []byte) ([]byte, []commitRec) {
	t.Helper()
	var commits []commitRec
	res, errMsg := runLeased(context.Background(), everyMs, envelopeOf(t, spec), checkpoint, func(tick int64, data []byte) {
		commits = append(commits, commitRec{tick, data})
	})
	if errMsg != "" {
		t.Fatalf("leased execution failed: %s", errMsg)
	}
	return res, commits
}

func localBytes(t testing.TB, spec RunSpec) []byte {
	t.Helper()
	res, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func parseSpecT(t testing.TB, body string) RunSpec {
	t.Helper()
	spec, err := ParseSpec([]byte(body))
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return spec
}

func TestResumeFromEveryCommit(t *testing.T) {
	// Warm start off: every pass simulates what it claims to, so a resumed
	// attempt that silently restarted from tick zero shows up in its commits.
	defer experiments.SetWarmStart(experiments.SetWarmStart(false))
	plans := map[string]string{
		"fault-free": ``,
		"faulted":    `, "fault_at_ms": 30, "num_faults": 5`,
		"cascade":    `, "fault_profile": {"kind": "cascade", "at_ms": 18, "nodes": 3, "waves": 3, "wave_delay_ms": 9, "wave_radius": 2}`,
	}
	for name, plan := range plans {
		for _, runs := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/runs=%d", name, runs), func(t *testing.T) {
				spec := parseSpecT(t, fmt.Sprintf(`{"model": "ffw", "seed": 11, "duration_ms": 60, "width": 8, "height": 4, "runs": %d%s}`, runs, plan))
				want := localBytes(t, spec)

				never, none := cleanPass(t, spec, 0, nil)
				if len(none) != 0 {
					t.Fatalf("DispatchExecuteResumable(0) committed %d checkpoints", len(none))
				}
				if !bytes.Equal(want, never) {
					t.Fatal("never-committing executor and local Execute disagree")
				}

				clean, commits := cleanPass(t, spec, 10, nil)
				if !bytes.Equal(want, clean) {
					t.Fatal("committing executor and local Execute disagree")
				}
				// 60 windows at a cadence of 10: five in-run commits per run
				// (never at the final window) plus one per run boundary.
				if wantN := 5*runs + runs - 1; len(commits) != wantN {
					t.Fatalf("clean pass committed %d checkpoints, want %d", len(commits), wantN)
				}
				for i, c := range commits {
					if i > 0 && c.tick <= commits[i-1].tick {
						t.Fatalf("commit ticks not increasing: %d after %d", c.tick, commits[i-1].tick)
					}
					got, later := cleanPass(t, spec, 10, c.data)
					if !bytes.Equal(want, got) {
						t.Errorf("resume from tick %d diverged from the clean run", c.tick)
					}
					// The attempt really resumed: it re-committed nothing at
					// or before its starting point, and everything after it.
					if len(later) != len(commits)-i-1 {
						t.Errorf("resume from tick %d committed %d checkpoints, want %d", c.tick, len(later), len(commits)-i-1)
					}
					for j, l := range later {
						if l.tick != commits[i+1+j].tick {
							t.Errorf("resume from tick %d: commit %d at tick %d, want %d", c.tick, j, l.tick, commits[i+1+j].tick)
						}
					}
				}
			})
		}
	}
}

// misfitSpec is a faulted batch of %d runs: 80 windows, fault wave at 20, so
// an in-run checkpoint at window 40 carries one wave snapshot.
const misfitSpec = `{"model": "ffw", "seed": 3, "duration_ms": 80, "width": 8, "height": 4, "runs": %d,
	"fault_profile": {"kind": "death", "at_ms": 20, "nodes": 4}}`

// midRunCommit returns the checkpoint a clean pass of spec commits at window
// win of run run, decoded.
func midRunCommit(t testing.TB, spec RunSpec, run, win int) jobCheckpoint {
	t.Helper()
	_, commits := cleanPass(t, spec, 20, nil)
	tick := int64(run*(spec.DurationMs/spec.WindowMs) + win)
	for _, c := range commits {
		if c.tick == tick {
			jc, err := decodeJobCheckpoint(c.data)
			if err != nil {
				t.Fatal(err)
			}
			return *jc
		}
	}
	t.Fatalf("clean pass never committed at run %d window %d", run, win)
	return jobCheckpoint{}
}

// resumeBytes runs spec from the checkpoint with a never-committing executor.
func resumeBytes(t testing.TB, spec RunSpec, jc jobCheckpoint) []byte {
	t.Helper()
	data, err := encodeJobCheckpoint(&jc, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := cleanPass(t, spec, 0, data)
	return got
}

func TestResumeDiscardsMisfitCheckpoint(t *testing.T) {
	defer experiments.SetWarmStart(experiments.SetWarmStart(false))
	// filler pads a runs list; a checkpoint that is accepted with it inside
	// cannot reproduce the clean bytes.
	filler := RunSummary{Seed: 99, SteadyRate: 1}
	cases := map[string]func(jc *jobCheckpoint, runs int){
		"short thr":        func(jc *jobCheckpoint, _ int) { jc.Thr = jc.Thr[:jc.Win-8] },
		"short act":        func(jc *jobCheckpoint, _ int) { jc.Act = jc.Act[:1] },
		"short sw":         func(jc *jobCheckpoint, _ int) { jc.Sw = nil },
		"long thr":         func(jc *jobCheckpoint, _ int) { jc.Thr = append(jc.Thr, 1, 2, 3) },
		"win at run end":   func(jc *jobCheckpoint, _ int) { jc.Win = 80 },
		"win past run end": func(jc *jobCheckpoint, _ int) { jc.Win = 1 << 20 },
		"negative win":     func(jc *jobCheckpoint, _ int) { jc.Win = -40 },
		"win off the tick": func(jc *jobCheckpoint, _ int) {
			jc.Win = 39
			jc.Thr, jc.Act, jc.Sw = jc.Thr[:39], jc.Act[:39], jc.Sw[:39]
		},
		"missing wave snap":  func(jc *jobCheckpoint, _ int) { jc.WaveSnaps = nil },
		"extra wave snap":    func(jc *jobCheckpoint, _ int) { jc.WaveSnaps = append(jc.WaveSnaps, jc.WaveSnaps[0]) },
		"rotted platform":    func(jc *jobCheckpoint, _ int) { jc.Platform[len(jc.Platform)/2] ^= 0x40 },
		"truncated platform": func(jc *jobCheckpoint, _ int) { jc.Platform = jc.Platform[:len(jc.Platform)/2] },
		"run > runs": func(jc *jobCheckpoint, runs int) {
			for jc.Run = runs + 1; len(jc.Runs) < jc.Run; {
				jc.Runs = append(jc.Runs, filler)
			}
		},
		"run == runs": func(jc *jobCheckpoint, runs int) {
			for jc.Run = runs; len(jc.Runs) < jc.Run; {
				jc.Runs = append(jc.Runs, filler)
			}
		},
		"negative run":     func(jc *jobCheckpoint, _ int) { jc.Run = -1 },
		"len(runs) != run": func(jc *jobCheckpoint, _ int) { jc.Runs = append(jc.Runs, filler) },
	}
	for _, runs := range []int{1, 2} {
		spec := parseSpecT(t, fmt.Sprintf(misfitSpec, runs))
		want := localBytes(t, spec)
		base := midRunCommit(t, spec, runs-1, 40)
		if !bytes.Equal(want, resumeBytes(t, spec, base)) {
			t.Fatal("the unmodified checkpoint does not resume to the clean result")
		}
		// Valid CENCKPT1 bytes that belong elsewhere: another fabric shape,
		// and this run at an earlier boundary.
		other := spec
		other.Width, other.Height = 8, 8
		foreign := midRunCommit(t, other, runs-1, 40).Platform
		earlier := midRunCommit(t, spec, runs-1, 20).Platform
		cases["wrong-shape platform"] = func(jc *jobCheckpoint, _ int) { jc.Platform = foreign }
		cases["earlier platform"] = func(jc *jobCheckpoint, _ int) { jc.Platform = earlier }
		// The same grid at the same tick, but a fabric with twice the ring
		// capacity: its network section cannot restore into the leased one.
		wide := centurion.DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, spec.Seed+uint64(runs-1))
		wide.Width, wide.Height, wide.Topology = spec.Width, spec.Height, spec.Topology
		wide.NoC.BufferFlits = 16
		widep := centurion.New(wide)
		widep.RunFor(sim.Ms(40), nil)
		wider := centurion.EncodeCheckpoint(widep.Snapshot())
		cases["wider-ring platform"] = func(jc *jobCheckpoint, _ int) { jc.Platform = wider }
		// CRC-valid bytes of this very run whose values contradict each
		// other: the decoder refuses them, so the run starts at tick zero.
		poisoned := freeListPoisoned(t, base.Platform)
		cases["free-list-poisoned platform"] = func(jc *jobCheckpoint, _ int) { jc.Platform = poisoned }

		for name, edit := range cases {
			t.Run(fmt.Sprintf("runs=%d/%s", runs, name), func(t *testing.T) {
				jc := base
				jc.Platform = bytes.Clone(base.Platform)
				jc.Runs = append([]RunSummary(nil), base.Runs...)
				edit(&jc, runs)
				if !bytes.Equal(want, resumeBytes(t, spec, jc)) {
					t.Fatal("a misfit checkpoint changed the result")
				}
			})
		}
		if got, _ := cleanPass(t, spec, 0, []byte(`{"run": "one"}`)); !bytes.Equal(want, got) {
			t.Fatal("an undecodable checkpoint changed the result")
		}

		// Frames that do not decode: cut inside the head, a head length past
		// the end, and the JSON form (platform base64'd inside) that a
		// ckpt/<key> record written before the binary frame holds.
		frame, err := encodeJobCheckpoint(&base, nil)
		if err != nil {
			t.Fatal(err)
		}
		headLen := int(binary.LittleEndian.Uint32(frame))
		pastEnd := bytes.Clone(frame)
		binary.LittleEndian.PutUint32(pastEnd, uint32(len(frame)))
		oldJSON, err := json.Marshal(struct {
			jobCheckpoint
			Platform []byte `json:"platform,omitempty"`
		}{base, base.Platform})
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"truncated frame":          frame[:4+headLen/2],
			"head length past the end": pastEnd,
			"old JSON checkpoint":      oldJSON,
		} {
			t.Run(fmt.Sprintf("runs=%d/%s", runs, name), func(t *testing.T) {
				if _, err := decodeJobCheckpoint(data); err == nil {
					t.Fatal("the frame decoded")
				}
				if got, _ := cleanPass(t, spec, 0, data); !bytes.Equal(want, got) {
					t.Fatal("an undecodable frame changed the result")
				}
			})
		}
	}
}

// FuzzJobCheckpoint drives the structural fields of a resume checkpoint —
// run and window indices and every slice length — around the valid platform
// snapshots of one batch. Whatever arrives, the executor must not panic and
// must return the clean run's bytes: a checkpoint either is a prefix of the
// batch or is discarded.
func FuzzJobCheckpoint(f *testing.F) {
	defer experiments.SetWarmStart(experiments.SetWarmStart(false))
	spec := parseSpecT(f, fmt.Sprintf(misfitSpec, 2))
	want := localBytes(f, spec)
	bases := [2]jobCheckpoint{midRunCommit(f, spec, 0, 40), midRunCommit(f, spec, 1, 40)}
	f.Add(1, 40, 40, 40, 40, 1, 1)  // the valid checkpoint
	f.Add(0, 40, 40, 40, 40, 1, 0)  // the valid checkpoint of run 0
	f.Add(1, 40, 32, 40, 40, 1, 1)  // short thr
	f.Add(1, 80, 80, 80, 80, 1, 1)  // win == windows
	f.Add(1, 60, 60, 60, 60, 1, 1)  // win off the platform's tick
	f.Add(3, 40, 40, 40, 40, 1, 3)  // run > runs
	f.Add(1, 40, 40, 40, 40, 0, 1)  // missing wave snap
	f.Add(1, 40, 40, 40, 40, 1, 0)  // len(runs) != run
	f.Add(-1, -5, 0, 0, 0, 0, 0)    // negative indices
	f.Add(1, 0, 0, 0, 0, 0, 1)      // run-boundary shape with a platform
	f.Add(2, 40, 40, 40, 40, 1, 2)  // run == runs
	f.Add(1, 40, 40, 40, 40, 64, 1) // many wave snaps
	resize := func(v []float64, n int) []float64 {
		out := make([]float64, max(0, min(n, 4096)))
		copy(out, v)
		return out
	}
	f.Fuzz(func(t *testing.T, run, win, nThr, nAct, nSw, nSnaps, nRuns int) {
		jc := bases[0]
		if run == 1 {
			jc = bases[1]
		}
		jc.Run, jc.Win = run, win
		jc.Thr, jc.Act, jc.Sw = resize(jc.Thr, nThr), resize(jc.Act, nAct), resize(jc.Sw, nSw)
		snaps := make([]experiments.NetSnap, max(0, min(nSnaps, 64)))
		copy(snaps, jc.WaveSnaps)
		jc.WaveSnaps = snaps
		runs := make([]RunSummary, max(0, min(nRuns, 8)))
		copy(runs, bases[1].Runs)
		jc.Runs = runs
		if !bytes.Equal(want, resumeBytes(t, spec, jc)) {
			t.Fatalf("checkpoint run=%d win=%d thr=%d act=%d sw=%d snaps=%d runs=%d changed the result",
				run, win, nThr, nAct, nSw, nSnaps, nRuns)
		}
	})
}

// freeListPoisoned returns a copy of CENCKPT1 bytes whose packet arena's
// last free-list entry — the slot the next packet is drawn from — is -3,
// re-framed with a valid checksum: bytes that pass every frame check and
// name an arena slot that does not exist.
func freeListPoisoned(t *testing.T, ckpt []byte) []byte {
	t.Helper()
	const headerLen, packetLen = 18, 136
	out := bytes.Clone(ckpt)
	payload := out[headerLen:]
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(payload[off:])) }
	off := 16 + 4 + u32(16) + 5*8 + 6*8 // dimensions, topology, clock and counters
	off += 4*4 + 1                      // the network section's geometry header
	off += 4 + u32(off)*packetLen       // the arena's packets
	off += 4 + 4*u32(off)               // their generation tags
	free := u32(off)
	if free == 0 {
		t.Fatal("the checkpoint's arena has no free packet")
	}
	binary.LittleEndian.PutUint32(payload[off+4*free:], 0xfffffffd)
	binary.LittleEndian.PutUint32(out[14:], crc32.ChecksumIEEE(payload))
	return out
}
