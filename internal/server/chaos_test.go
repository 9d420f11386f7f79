package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/store"
)

// The service-level chaos acceptance suite (DESIGN.md §16): a sweep shared
// by three checkpointing workers survives a seeded schedule of two worker
// kills and one coordinator crash-restart with a bit-identical aggregate
// and no lost job, and a failing store degrades the service to LRU-only
// caching instead of failing runs.

// startResumableWorker runs an in-process checkpoint-aware worker daemon
// and returns its stop function.
func startResumableWorker(t *testing.T, url, name string, hardStop <-chan struct{}, tr dispatch.Transport, exec dispatch.ExecuteResumableFunc) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = dispatch.RunWorker(ctx, dispatch.WorkerOptions{
			Coordinator:      url,
			Name:             name,
			Slots:            2,
			ExecuteResumable: exec,
			Transport:        tr,
			HardStop:         hardStop,
			MaxBackoff:       100 * time.Millisecond,
		})
	}()
	return func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("worker %s did not stop", name)
		}
	}
}

// killAfterCommits wraps a resumable executor so the worker hard-stops
// itself immediately after its n-th successfully committed checkpoint —
// a seeded, deterministic mid-run kill with a fresh checkpoint behind it.
func killAfterCommits(exec dispatch.ExecuteResumableFunc, n int64, hardStop chan struct{}, killed *atomic.Bool) dispatch.ExecuteResumableFunc {
	var commits atomic.Int64
	return func(jobCtx context.Context, job dispatch.ResumableJob) ([]byte, string) {
		inner := job
		commit := job.Commit
		inner.Commit = func(ctx context.Context, tick int64, data []byte) error {
			err := commit(ctx, tick, data)
			if err == nil && commits.Add(1) == n && killed.CompareAndSwap(false, true) {
				close(hardStop)
				// The worker cancels the job context on another goroutine;
				// wait for it so the run cannot finish before the kill lands.
				<-jobCtx.Done()
			}
			return err
		}
		return exec(jobCtx, inner)
	}
}

// chaosSweep is the acceptance workload: 204 distinct cells of 80 windows
// each, long enough that every job commits several mid-run checkpoints.
const chaosSweep = `{
	"spec": {"duration_ms": 80, "width": 8, "height": 4},
	"models": ["none", "ni", "ffw", "random-static"],
	"fault_counts": [0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],
	"topologies": ["mesh", "torus", "cmesh"],
	"runs": 1
}`

// TestChaosSweepSurvivesKillsAndRestart is ISSUE 10's headline acceptance
// test: three checkpointing workers share a 204-cell sweep over a hostile
// network while a seeded schedule kills two of them mid-job and then
// crash-restarts the coordinator mid-sweep. The journal replays the open
// queue, the surviving worker re-registers, killed jobs resume from their
// last committed checkpoint, the client sees only retryable errors — and
// the final aggregate is bit-identical to a clean local run.
func TestChaosSweepSurvivesKillsAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("204-cell chaos sweep")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "results.log")
	jrnlPath := filepath.Join(dir, "queue.jrnl")
	dcfg := dispatch.Config{
		LeaseTTL:    150 * time.Millisecond,
		PollWait:    50 * time.Millisecond,
		MaxAttempts: 6,
	}

	// Life 1: durable store + journal, on a listener whose address the
	// restarted coordinator will re-bind, so workers and clients reconnect
	// to the same endpoint.
	st1, err := store.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	jr1, err := dispatch.OpenJournal(jrnlPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := dcfg
	cfg1.Journal = jr1
	s1 := New(Options{Workers: 4, QueueBound: 512, CacheSize: 512, Store: st1, Dispatch: cfg1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	url := "http://" + addr
	ts1 := httptest.NewUnstartedServer(s1)
	ts1.Listener.Close()
	ts1.Listener = ln
	ts1.Start()

	// Checkpoint every 10 simulated ms: an 80-window cell commits at
	// windows 10..70, so a kill never wastes more than one interval.
	resumable := DispatchExecuteResumable(10)

	// Two doomed workers die right after their 3rd and 8th committed
	// checkpoints; the survivor rides a seeded hostile network (drops,
	// lost replies, duplicated deliveries) for the whole test.
	hsA, hsB := make(chan struct{}), make(chan struct{})
	var killedA, killedB atomic.Bool
	stopA := startResumableWorker(t, url, "doomed-a", hsA, nil, killAfterCommits(resumable, 3, hsA, &killedA))
	defer stopA()
	stopB := startResumableWorker(t, url, "doomed-b", hsB, nil, killAfterCommits(resumable, 8, hsB, &killedB))
	defer stopB()
	chaosTr := dispatch.NewChaosTransport(dispatch.NewHTTPTransport(url, nil), dispatch.ChaosConfig{
		Seed:          29,
		DropRate:      0.02,
		ReplyLossRate: 0.05,
		DupRate:       0.05,
		Exempt:        []string{"/v1/workers/register", "/lease"},
	})
	stopSurvivor := startResumableWorker(t, url, "survivor", nil, chaosTr, resumable)
	defer stopSurvivor()
	waitForWorkers(t, s1.Coordinator(), 3)

	// The client: one sweep, retried through connection errors and 5xx
	// until it lands. A crash mid-POST must read as a retry, never as a
	// lost or doubled job.
	type sweepOut struct {
		rows    SweepResponse
		retries int
	}
	sweepDone := make(chan sweepOut, 1)
	go func() {
		retries := 0
		for {
			code, sr := func() (int, SweepResponse) {
				resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(chaosSweep))
				if err != nil {
					return 0, SweepResponse{}
				}
				defer resp.Body.Close()
				var out SweepResponse
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						return 0, SweepResponse{}
					}
				}
				return resp.StatusCode, out
			}()
			if code == http.StatusOK {
				sweepDone <- sweepOut{rows: sr, retries: retries}
				return
			}
			retries++
			time.Sleep(100 * time.Millisecond)
		}
	}()

	// Crash the coordinator only once the seeded schedule has fully fired:
	// both kills landed, at least one killed job already resumed from its
	// checkpoint, and the queue still has open jobs for the journal to
	// carry across the restart.
	var life1 dispatch.Stats
	crashDeadline := time.Now().Add(30 * time.Second)
	for {
		life1 = s1.Coordinator().Stats()
		if killedA.Load() && killedB.Load() && life1.Resumes >= 1 && life1.Pending+life1.Leased > 0 {
			break
		}
		select {
		case out := <-sweepDone:
			t.Fatalf("sweep finished (%d rows) before the chaos schedule fired: %+v", len(out.rows.Rows), life1)
		default:
		}
		if time.Now().After(crashDeadline) {
			t.Fatalf("chaos schedule never fired: killedA=%v killedB=%v stats=%+v", killedA.Load(), killedB.Load(), life1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if life1.CheckpointsCommitted == 0 {
		t.Fatalf("no checkpoint committed before the crash: %+v", life1)
	}
	ts1.CloseClientConnections()
	s1.Coordinator().CrashForTest() // journal on disk is exactly what a real crash leaves
	ts1.Close()
	s1.Close()

	// Life 2: reopen the journal and store, re-bind the same address. The
	// journal must replay every job the crash left open.
	st2, err := store.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	jr2, err := dispatch.OpenJournal(jrnlPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(jr2.Pending()); got == 0 {
		t.Fatal("crash left open jobs but the journal replayed none")
	}
	cfg2 := dcfg
	cfg2.Journal = jr2
	s2 := New(Options{Workers: 4, QueueBound: 512, CacheSize: 512, Store: st2, Dispatch: cfg2})
	var ln2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not re-bind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ts2 := httptest.NewUnstartedServer(s2)
	ts2.Listener.Close()
	ts2.Listener = ln2
	ts2.Start()
	defer func() { ts2.Close(); s2.Close() }()
	// A replacement joins; the survivor re-registers on its own.
	stopFresh := startResumableWorker(t, url, "replacement", nil, nil, resumable)
	defer stopFresh()
	waitForWorkers(t, s2.Coordinator(), 1)

	var got sweepOut
	select {
	case got = <-sweepDone:
	case <-time.After(120 * time.Second):
		t.Fatalf("sweep never completed after the restart: %+v", s2.Coordinator().Stats())
	}
	if got.retries == 0 {
		t.Error("the client never observed the crash as a retry")
	}
	if len(got.rows.Rows) != 204 {
		t.Fatalf("sweep returned %d rows, want 204", len(got.rows.Rows))
	}

	life2 := s2.Coordinator().Stats()
	if life2.JournalReplays == 0 {
		t.Errorf("restarted coordinator replayed no journal jobs: %+v", life2)
	}
	if life1.Resumes+life2.Resumes < 1 {
		t.Errorf("no killed job ever resumed from a checkpoint: life1=%+v life2=%+v", life1, life2)
	}
	if life1.Expired+life2.Expired == 0 {
		t.Errorf("worker kills left no expiry trace: life1=%+v life2=%+v", life1, life2)
	}

	// The same grid on a clean, worker-less server must produce
	// bit-identical aggregates: kills, resumes and the restart changed
	// nothing about the results.
	local := New(Options{Workers: 4, QueueBound: 512, CacheSize: 512})
	lts := httptest.NewServer(local)
	defer func() { lts.Close(); local.Close() }()
	lcode, want, _ := postSweep(t, lts.URL, chaosSweep)
	if lcode != http.StatusOK {
		t.Fatalf("clean local sweep status %d", lcode)
	}
	if len(want.Rows) != len(got.rows.Rows) {
		t.Fatalf("row count mismatch: chaos %d, clean %d", len(got.rows.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		g, w := got.rows.Rows[i], want.Rows[i]
		if g.Model != w.Model || g.Faults != w.Faults || g.Topology != w.Topology {
			t.Fatalf("row %d cell mismatch: %s/%d/%s vs %s/%d/%s",
				i, g.Model, g.Faults, g.Topology, w.Model, w.Faults, w.Topology)
		}
		if g.Aggregate != w.Aggregate {
			t.Errorf("row %s/%d/%s diverged from the clean run:\n%+v\n%+v",
				g.Model, g.Faults, g.Topology, g.Aggregate, w.Aggregate)
		}
	}
}

// errDisk is the backend failure a broken store surfaces.
var errDisk = errors.New("store: disk on fire")

// failingStore errors on every touch — the breaker must open and the
// service must keep serving from the LRU alone.
type failingStore struct{ ops atomic.Uint64 }

func (f *failingStore) Get(string) ([]byte, bool, error) { f.ops.Add(1); return nil, false, errDisk }
func (f *failingStore) Put(string, []byte) error         { f.ops.Add(1); return errDisk }
func (f *failingStore) Delete(string) error              { f.ops.Add(1); return errDisk }
func (f *failingStore) Stats() store.Stats               { return store.Stats{} }
func (f *failingStore) Compact() error                   { return nil }
func (f *failingStore) Close() error                     { return nil }

// TestStoreBreakerDegradesToLRU: with every store operation failing, runs
// still succeed (LRU-only caching) and /healthz raises store_degraded.
func TestStoreBreakerDegradesToLRU(t *testing.T) {
	fs := &failingStore{}
	s := New(Options{Workers: 2, QueueBound: 64, CacheSize: 16, Store: fs})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	for seed := 1; seed <= 3; seed++ {
		spec := fmt.Sprintf(`{"model": "ffw", "seed": %d, "duration_ms": 20, "width": 8, "height": 4}`, seed)
		code, js := postRun(t, ts, spec, true)
		if code != http.StatusOK || js.State != JobDone || js.Result == nil {
			t.Fatalf("run with a failing store: code %d state %s (%s)", code, js.State, js.Error)
		}
	}
	if fs.ops.Load() == 0 {
		t.Fatal("the failing store was never touched — nothing was degraded")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Dispatch struct {
			StoreDegraded bool   `json:"store_degraded"`
			StoreTrips    uint64 `json:"store_trips"`
		} `json:"dispatch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Dispatch.StoreDegraded || health.Dispatch.StoreTrips == 0 {
		t.Fatalf("breaker never opened: degraded=%v trips=%d after %d failed ops",
			health.Dispatch.StoreDegraded, health.Dispatch.StoreTrips, fs.ops.Load())
	}

	// Degraded, not broken: a repeated spec is an LRU cache hit.
	spec := `{"model": "ffw", "seed": 1, "duration_ms": 20, "width": 8, "height": 4}`
	code, js := postRun(t, ts, spec, true)
	if code != http.StatusOK || js.State != JobDone || !js.CacheHit {
		t.Fatalf("repeat spec with an open breaker: code %d state %s cacheHit=%v", code, js.State, js.CacheHit)
	}
}
