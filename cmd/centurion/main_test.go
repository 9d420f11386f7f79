package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"centurion/internal/experiments"
	"centurion/internal/faults"
	"centurion/internal/server"
)

func TestParseInts(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"0,2,4,8,16,32", []int{0, 2, 4, 8, 16, 32}, false},
		{" 1 , 2 ", []int{1, 2}, false},
		{"5", []int{5}, false},
		{"", nil, false},
		{",,", nil, false},
		{"-3", nil, true},
		{"1,-3", nil, true},
		{"abc", nil, true},
		{"1,two", nil, true},
		{"1.5", nil, true},
	}
	for _, tc := range cases {
		got, err := parseInts(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseInts(%q) error = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseInts(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestModelOptions: -model takes exactly the wire names of the one model
// table the service also reads.
func TestModelOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		want experiments.Model
	}{
		{"none", experiments.ModelNone},
		{"ni", experiments.ModelNI},
		{"ffw", experiments.ModelFFW},
		{"random-static", experiments.ModelRandomStatic},
		{"ni-pb", experiments.ModelNIPB},
	} {
		m, err := experiments.ParseModel(tc.name)
		if err != nil || m != tc.want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", tc.name, m, err, tc.want)
		}
		if m.Name() != tc.name {
			t.Errorf("%v.Name() = %q, want %q", m, m.Name(), tc.name)
		}
	}
	for _, bad := range []string{"swarm", "", "NI", "random_static"} {
		if _, err := experiments.ParseModel(bad); err == nil {
			t.Errorf("ParseModel(%q) accepted", bad)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := f()
	w.Close()
	out := new(strings.Builder)
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return out.String(), runErr
}

func TestRunSubcommandSmoke(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdRun([]string{"-model", "ffw", "-seed", "1", "-ms", "50"})
	})
	if err != nil {
		t.Fatalf("run subcommand: %v", err)
	}
	if !strings.Contains(out, "model=ffw topology=mesh seed=1") {
		t.Errorf("run output missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "task populations:") {
		t.Errorf("run output missing task populations:\n%s", out)
	}
}

func TestRunSubcommandTopologies(t *testing.T) {
	for _, topo := range []string{"torus", "cmesh"} {
		out, err := captureStdout(t, func() error {
			return cmdRun([]string{"-model", "ffw", "-topology", topo, "-seed", "1", "-ms", "50"})
		})
		if err != nil {
			t.Fatalf("run -topology %s: %v", topo, err)
		}
		if !strings.Contains(out, "topology="+topo) {
			t.Errorf("run -topology %s output missing summary line:\n%s", topo, out)
		}
		if !strings.Contains(out, "instances completed") {
			t.Errorf("run -topology %s produced no throughput summary:\n%s", topo, out)
		}
	}
}

func TestRunRejectsUnknownTopology(t *testing.T) {
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-topology", "hypercube"})
	}); err == nil {
		t.Error("unknown topology accepted by run subcommand")
	}
}

func TestRunSubcommandWithFaults(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdRun([]string{"-model", "none", "-seed", "2", "-ms", "60", "-faults", "2", "-fault-at", "30"})
	})
	if err != nil {
		t.Fatalf("run with faults: %v", err)
	}
	if !strings.Contains(out, "death faults from 30 ms: pre-fault") || !strings.Contains(out, "post-fault") {
		t.Errorf("fault run output missing rates:\n%s", out)
	}
}

func TestRunRejectsOutOfRangeFaultTime(t *testing.T) {
	for _, args := range [][]string{
		{"-ms", "100", "-faults", "2", "-fault-at", "0"},
		{"-ms", "100", "-faults", "2", "-fault-at", "100"},
		{"-ms", "100", "-faults", "2", "-fault-at", "150"},
		{"-ms", "100", "-faults", "2", "-fault-at", "-5"},
		// A fractional time must not truncate to a profile's AtMs of 0
		// ("half the run") or silently move.
		{"-ms", "100", "-faults", "2", "-fault-at", "0.5"},
		{"-ms", "100", "-faults", "2", "-fault-at", "30.5"},
	} {
		if _, err := captureStdout(t, func() error { return cmdRun(args) }); err == nil {
			t.Errorf("cmdRun(%v) accepted an out-of-range fault time", args)
		}
	}
}

// TestRunRefusesHugeFaultGrid: above noc.HugeNodes the fabric ejects
// blocked packets instead of rerouting, so `centurion run` refuses a fault
// plan there with the service validator's message, and still runs the grid
// fault-free.
func TestRunRefusesHugeFaultGrid(t *testing.T) {
	_, svcErr := server.ParseSpec([]byte(`{"model": "ffw", "width": 100, "height": 100, "duration_ms": 20, "num_faults": 4, "fault_at_ms": 10}`))
	if svcErr == nil {
		t.Fatal("the service admitted a fault spec on a 100x100 grid")
	}
	for _, args := range [][]string{
		{"-grid", "100x100", "-model", "ffw", "-ms", "20", "-faults", "4", "-fault-at", "10"},
		{"-grid", "100x100", "-model", "ffw", "-ms", "20", "-fault-profile", "death"},
		{"-grid", "100x100", "-model", "ffw", "-ms", "20", "-fault-profile", `{"kind":"cascade","waves":2}`},
	} {
		_, err := captureStdout(t, func() error { return cmdRun(args) })
		if err == nil || !strings.Contains(svcErr.Error(), err.Error()) {
			t.Errorf("cmdRun(%v) = %v, want the service's refusal %q", args, err, svcErr)
		}
	}
	out, err := captureStdout(t, func() error { return cmdRun([]string{"-grid", "100x100", "-model", "ffw", "-ms", "20"}) })
	if err != nil || !strings.Contains(out, "(alive nodes: 10000)") {
		t.Errorf("fault-free 100x100 run: err %v, output:\n%s", err, out)
	}
}

// TestRunMatchesService: `centurion run` and the service build a run
// through one translation and one fault path, so every flag set prints the
// instance and switch counts that server.Execute returns for the
// equivalent spec.
func TestRunMatchesService(t *testing.T) {
	cascade := &faults.Profile{Kind: "cascade", AtMs: 300, Nodes: 6, Waves: 3}
	for _, tc := range []struct {
		args []string
		spec server.RunSpec
	}{
		{[]string{"-model", "none"}, server.RunSpec{Model: "none"}},
		{[]string{"-model", "ni"}, server.RunSpec{Model: "ni"}},
		{[]string{"-model", "ffw"}, server.RunSpec{Model: "ffw"}},
		{[]string{"-model", "ni-pb", "-ms", "400"}, server.RunSpec{Model: "ni-pb", DurationMs: 400}},
		{[]string{"-model", "none", "-faults", "16", "-fault-at", "500"}, server.RunSpec{Model: "none", NumFaults: 16, FaultAtMs: 500}},
		{[]string{"-model", "ni", "-faults", "16", "-fault-at", "500"}, server.RunSpec{Model: "ni", NumFaults: 16, FaultAtMs: 500}},
		{[]string{"-model", "ffw", "-faults", "16", "-fault-at", "500"}, server.RunSpec{Model: "ffw", NumFaults: 16, FaultAtMs: 500}},
		{[]string{"-model", "ni-pb", "-ms", "400", "-faults", "16", "-fault-at", "200"},
			server.RunSpec{Model: "ni-pb", DurationMs: 400, NumFaults: 16, FaultAtMs: 200}},
		{[]string{"-model", "ffw", "-ms", "600", "-fault-profile", `{"kind":"cascade","at_ms":300,"nodes":6,"waves":3}`},
			server.RunSpec{Model: "ffw", DurationMs: 600, FaultProfile: cascade}},
		{[]string{"-model", "ni", "-ms", "400", "-grid", "12x6", "-topology", "torus", "-faults", "8", "-fault-at", "150"},
			server.RunSpec{Model: "ni", DurationMs: 400, Width: 12, Height: 6, Topology: "torus", NumFaults: 8, FaultAtMs: 150}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out, err := captureStdout(t, func() error { return cmdRun(tc.args) })
			if err != nil {
				t.Fatalf("cmdRun: %v\n%s", err, out)
			}
			m := regexp.MustCompile(`(\d+) instances completed .*, (\d+) task switches`).FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no summary line in output:\n%s", out)
			}
			spec := tc.spec
			if err := spec.Canonicalize(); err != nil {
				t.Fatal(err)
			}
			res, err := server.Execute(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := res.Runs[0]
			if got := m[1] + "/" + m[2]; got != strconv.FormatUint(want.InstancesCompleted, 10)+"/"+strconv.FormatUint(want.TaskSwitches, 10) {
				t.Errorf("run printed %s instances/switches, the service returned %d/%d",
					got, want.InstancesCompleted, want.TaskSwitches)
			}
		})
	}
}

// TestRunCheckpointRestoreResumesTimeline drives the run subcommand's
// checkpoint flags end to end for the behavioural and the embedded engine:
// a run checkpointed mid-way is undisturbed, and resuming from the file
// continues the exact timeline — the resumed segment's completions plus a
// straight run to the checkpoint equal a straight full-length run.
func TestRunCheckpointRestoreResumesTimeline(t *testing.T) {
	for _, model := range []string{"ffw", "ni-pb"} {
		t.Run(model, func(t *testing.T) { checkpointRoundTrip(t, model) })
	}
}

func checkpointRoundTrip(t *testing.T, model string) {
	ck := filepath.Join(t.TempDir(), "mid.ckpt")
	completed := func(out string) int {
		m := regexp.MustCompile(`(\d+) instances completed`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no completion count in output:\n%s", out)
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	base := []string{"-model", model, "-seed", "3", "-grid", "8x4"}
	run := func(extra ...string) string {
		t.Helper()
		out, err := captureStdout(t, func() error { return cmdRun(append(append([]string{}, base...), extra...)) })
		if err != nil {
			t.Fatalf("cmdRun(%v): %v\n%s", extra, err, out)
		}
		return out
	}

	outFull := run("-ms", "80")
	outHalf := run("-ms", "40")
	outCkpt := run("-ms", "80", "-checkpoint-at", "40", "-checkpoint-out", ck)
	if !strings.Contains(outCkpt, "checkpoint written to") {
		t.Fatalf("no checkpoint confirmation:\n%s", outCkpt)
	}
	if completed(outCkpt) != completed(outFull) {
		t.Fatalf("writing a checkpoint disturbed the run: %d vs %d", completed(outCkpt), completed(outFull))
	}

	outResumed := run("-ms", "40", "-restore", ck)
	if !strings.Contains(outResumed, "restored") {
		t.Fatalf("no restore confirmation:\n%s", outResumed)
	}
	if got, want := completed(outHalf)+completed(outResumed), completed(outFull); got != want {
		t.Fatalf("resumed timeline diverged: %d (to checkpoint) + %d (resumed) != %d (straight run)",
			completed(outHalf), completed(outResumed), want)
	}
}

func TestRunCheckpointFlagValidation(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "v.ckpt")
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-ms", "50", "-checkpoint-at", "20"})
	}); err == nil {
		t.Error("-checkpoint-at without -checkpoint-out accepted")
	}
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-ms", "50", "-checkpoint-at", "60", "-checkpoint-out", ck})
	}); err == nil {
		t.Error("-checkpoint-at beyond the run accepted")
	}
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-ms", "50", "-restore", ck, "-faults", "2", "-fault-at", "20"})
	}); err == nil {
		t.Error("-restore combined with a fault plan accepted")
	}
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-ms", "50", "-restore", filepath.Join(t.TempDir(), "absent.ckpt")})
	}); err == nil {
		t.Error("-restore of a missing file accepted")
	}

	// A checkpoint only fits the platform it was taken from.
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-model", "ffw", "-grid", "8x4", "-ms", "30", "-checkpoint-at", "10", "-checkpoint-out", ck})
	}); err != nil {
		t.Fatalf("writing validation checkpoint: %v", err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-model", "ffw", "-grid", "16x8", "-ms", "30", "-restore", ck})
	}); err == nil {
		t.Error("grid-mismatched restore accepted")
	}

	// A CRC-valid file whose values contradict each other is refused with
	// an error naming the section, before the run starts.
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := filepath.Join(t.TempDir(), "poisoned.ckpt")
	if err := os.WriteFile(poisoned, freeListPoisoned(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = captureStdout(t, func() error {
		return cmdRun([]string{"-model", "ffw", "-grid", "8x4", "-ms", "30", "-restore", poisoned})
	})
	if err == nil || !strings.Contains(err.Error(), "free list") {
		t.Errorf("restore of a free-list-poisoned checkpoint: %v, want an error naming the free list", err)
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-model", "swarm"})
	}); err == nil {
		t.Error("unknown model accepted by run subcommand")
	}
}

// TestServeRejectsOldFormatJournal: `serve -journal DIR` over a queue.jrnl
// left by the CENJRNL1 event-log journal fails before listening, naming the
// file and saying what to do with it — never misreading or rewriting it.
func TestServeRejectsOldFormatJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.jrnl")
	old := []byte("CENJRNL1\x01\x00\x00\x00")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdServe([]string{"-addr", "127.0.0.1:0", "-journal", dir})
	if err == nil {
		t.Fatal("serve started over a CENJRNL1 journal")
	}
	for _, want := range []string{path, "pre-PR-14", "remove it once no sweep is in flight"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if now, rerr := os.ReadFile(path); rerr != nil || string(now) != string(old) {
		t.Errorf("rejected journal was modified (read err %v)", rerr)
	}
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
