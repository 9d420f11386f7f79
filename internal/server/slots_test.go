package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/store"
)

// The service's one job queue (DESIGN.md §16): every miss is a coordinator
// job, run by the in-process slots unless a remote worker is live.

// waitCoordinator polls until cond holds on the coordinator's stats.
func waitCoordinator(t *testing.T, c *dispatch.Coordinator, what string, cond func(dispatch.Stats) bool) dispatch.Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := c.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened: %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeOnlyRestartRunsOrphans: a serve-only service crashes with one job
// running on its slot and one queued behind it. The restarted service
// replays both from the journal and runs them on its own slots at once — no
// worker daemon, no client retry — writing each result to the store, so the
// client's later request is a store hit with the result a fresh run gives.
func TestServeOnlyRestartRunsOrphans(t *testing.T) {
	dir := t.TempDir()
	specs := []string{
		`{"model": "ffw", "seed": 61, "duration_ms": 8000, "width": 8, "height": 4}`,
		`{"model": "ni", "seed": 62, "duration_ms": 2000, "width": 8, "height": 4}`,
	}
	open := func() (store.Store, *dispatch.Journal) {
		st, err := store.OpenLog(filepath.Join(dir, "results.log"))
		if err != nil {
			t.Fatal(err)
		}
		jr, err := dispatch.OpenJournal(filepath.Join(dir, "queue.jrnl"))
		if err != nil {
			t.Fatal(err)
		}
		return st, jr
	}

	st1, jr1 := open()
	s1 := New(Options{Workers: 1, Store: st1, Dispatch: dispatch.Config{Journal: jr1}})
	for _, body := range specs {
		spec, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Engine().Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	waitCoordinator(t, s1.Coordinator(), "the slot leasing the first job", func(st dispatch.Stats) bool {
		return st.Leased == 1 && st.Pending == 1
	})
	s1.Coordinator().CrashForTest()
	s1.Close()

	st2, jr2 := open()
	if n := len(jr2.Pending()); n != 2 {
		t.Fatalf("the journal replays %d jobs, want 2", n)
	}
	s2 := New(Options{Workers: 2, Store: st2, Dispatch: dispatch.Config{Journal: jr2}})
	ts := httptest.NewServer(s2)
	defer func() { ts.Close(); s2.Close() }()
	life2 := waitCoordinator(t, s2.Coordinator(), "the replayed jobs' results reaching the store", func(st dispatch.Stats) bool {
		return st.Completed == 2 && st2.Stats().Entries == 2
	})
	if life2.JournalReplays != 2 || life2.WorkersRegistered != 0 {
		t.Fatalf("life 2: %+v; want both jobs replayed and no worker", life2)
	}

	for _, body := range specs {
		code, js := postRun(t, ts, body, true)
		if code != http.StatusOK || js.State != JobDone || !js.StoreHit {
			t.Fatalf("after the restart: code %d state %s store_hit %v (%s)", code, js.State, js.StoreHit, js.Error)
		}
		spec, _ := ParseSpec([]byte(body))
		want, err := Execute(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(js.Result.Runs, want.Runs) {
			t.Errorf("replayed result of %s differs from a fresh run", js.Key[:8])
		}
	}
	if st := s2.Coordinator().Stats(); st.LeasesGranted != 2 || st.Completed != 2 {
		t.Fatalf("the store hits re-executed: %+v", st)
	}
}

// TestAttemptsExhaustedFailsJob: a job whose every remote lease lapses is
// reported failed; the slots do not run it again.
func TestAttemptsExhaustedFailsJob(t *testing.T) {
	s := New(Options{Workers: 2, Dispatch: dispatch.Config{
		LeaseTTL:    30 * time.Millisecond,
		PollWait:    50 * time.Millisecond,
		MaxAttempts: 1,
	}})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	c := s.Coordinator()
	w, _, _, err := c.Register("silent", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec([]byte(fastSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The worker leases the job and then never heartbeats or completes.
	if _, ok, err := c.Lease(context.Background(), w, time.Second); !ok || err != nil {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Engine().Wait(ctx, j); err != nil {
		t.Fatal(err)
	}
	snap, res := s.Engine().Snapshot(j)
	if snap.State != JobFailed || res != nil || !strings.Contains(snap.Error, "attempts exhausted") {
		t.Fatalf("job = %s (%q), want failed with attempts exhausted", snap.State, snap.Error)
	}
	if st := c.Stats(); st.LeasesGranted != 1 || st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("coordinator %+v: the exhausted job ran again", st)
	}
}

func TestProgressFrameRoundTrip(t *testing.T) {
	samples := []Sample{
		{Run: 0, TimeMs: 0, Throughput: 0.5, NodesActive: 128, Switches: 3},
		{Run: 7, TimeMs: 1e6, Throughput: math.Inf(1), NodesActive: -0.0, Switches: math.SmallestNonzeroFloat64},
	}
	frame := appendSamples(nil, samples)
	if len(frame) != 4+len(samples)*sampleLen {
		t.Fatalf("frame is %d bytes, want %d", len(frame), 4+len(samples)*sampleLen)
	}
	got, err := decodeSamples(frame)
	if err != nil || !reflect.DeepEqual(got, samples) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, samples)
	}
	jsonBody, err := json.Marshal(samples[:1])
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"JSON samples":   jsonBody,
		"truncated":      frame[:len(frame)-1],
		"trailing bytes": append(bytes.Clone(frame), 0),
		"empty":          nil,
	} {
		if s, err := decodeSamples(bad); err == nil {
			t.Errorf("%s: decoded to %+v", name, s)
		}
	}
}

// TestJSONProgressIsDropped: a worker that posts its samples as JSON (the
// form before the progress frame) has them refused — no sample reaches a
// subscriber — and the job still completes with its full result.
func TestJSONProgressIsDropped(t *testing.T) {
	s := New(Options{Workers: 1, Dispatch: dispatch.Config{PollWait: 50 * time.Millisecond}})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	subscribed := make(chan struct{})
	exec := func(ctx context.Context, job dispatch.ResumableJob) ([]byte, string) {
		<-subscribed
		job.Progress([]byte(`[{"run":0,"time_ms":0,"throughput":1,"nodes_active":2,"switches":3}]`))
		job.Progress = func([]byte) {}
		return DispatchExecuteResumable(0)(ctx, job)
	}
	defer startTestWorker(t, ts.URL, "json", nil, exec)()
	waitForWorkers(t, s.Coordinator(), 1)

	spec, err := ParseSpec([]byte(fastSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	replay, live, cancel := s.Engine().Subscribe(j)
	defer cancel()
	close(subscribed)
	n := len(replay)
	for range live {
		n++
	}
	snap, res := s.Engine().Snapshot(j)
	if snap.State != JobDone || res == nil || len(res.Series.Throughput) != spec.DurationMs {
		t.Fatalf("job = %s (%s), want done with its full series", snap.State, snap.Error)
	}
	if n != 0 {
		t.Fatalf("a subscriber received %d samples from a JSON progress post", n)
	}
	if j.ticket != (dispatch.Ticket{}) {
		t.Fatal("a finished job still holds the coordinator's record of it")
	}
}
