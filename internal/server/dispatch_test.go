package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/store"
)

// startTestWorker runs an in-process worker daemon against the service URL
// and returns its stop function. exec defaults to the never-committing
// DispatchExecuteResumable(0).
func startTestWorker(t *testing.T, url, name string, hardStop <-chan struct{}, exec dispatch.ExecuteResumableFunc) func() {
	t.Helper()
	if exec == nil {
		exec = DispatchExecuteResumable(0)
	}
	return startResumableWorker(t, url, name, hardStop, nil, exec)
}

func waitForWorkers(t *testing.T, c *dispatch.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().WorkersLive < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered", c.Stats().WorkersLive, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postSweep(t *testing.T, url, body string) (int, SweepResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SweepResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr, resp.Header
}

// sweep200 is the distributed-sweep workload: 4 models x 17 fault counts x
// 3 topologies = 204 cells, every cell a distinct canonical spec.
const sweep200 = `{
	"spec": {"duration_ms": 40, "width": 8, "height": 4},
	"models": ["none", "ni", "ffw", "random-static"],
	"fault_counts": [0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],
	"topologies": ["mesh", "torus", "cmesh"],
	"runs": 1
}`

// TestDistributedSweep is the headline acceptance test (and the CI -race
// target): a coordinator with three in-process leased workers shares a
// 200-spec sweep; one worker is hard-killed mid-job and no result is lost —
// the expired lease requeues, a survivor recomputes, and the aggregate is
// bit-identical to a purely local run of the same grid.
func TestDistributedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("204-cell sweep")
	}
	s := New(Options{
		Workers:    8,
		QueueBound: 512,
		CacheSize:  512,
		Dispatch: dispatch.Config{
			LeaseTTL:    100 * time.Millisecond,
			PollWait:    50 * time.Millisecond,
			MaxAttempts: 5,
		},
	})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	// Worker "doomed" dies mid-job: on its killAfter-th lease it closes its
	// own HardStop during execution, so the job is abandoned without a
	// complete and its lease must lapse.
	const killAfter = 5
	hardStop := make(chan struct{})
	var doomedJobs atomic.Int64
	doomedExec := func(ctx context.Context, job dispatch.ResumableJob) ([]byte, string) {
		if doomedJobs.Add(1) == killAfter {
			close(hardStop)
			// The worker cancels the job context on another goroutine; wait
			// for it so the kill lands before this job could complete.
			<-ctx.Done()
		}
		return DispatchExecuteResumable(0)(ctx, job)
	}
	stopDoomed := startTestWorker(t, ts.URL, "doomed", hardStop, doomedExec)
	defer stopDoomed()
	for i := 0; i < 2; i++ {
		defer startTestWorker(t, ts.URL, fmt.Sprintf("survivor-%d", i), nil, nil)()
	}
	waitForWorkers(t, s.Coordinator(), 3)

	code, got, _ := postSweep(t, ts.URL, sweep200)
	if code != http.StatusOK {
		t.Fatalf("distributed sweep status %d", code)
	}
	if len(got.Rows) != 204 {
		t.Fatalf("sweep returned %d rows, want 204", len(got.Rows))
	}

	st := s.Coordinator().Stats()
	if doomedJobs.Load() < killAfter {
		t.Fatalf("doomed worker executed only %d jobs; the kill never fired", doomedJobs.Load())
	}
	if st.Expired == 0 || st.Requeued == 0 {
		t.Errorf("worker kill left no expiry trace: %+v", st)
	}
	if st.Completed == 0 {
		t.Error("no job completed remotely")
	}

	// The same grid on a worker-less server (dispatch falls back to local
	// execution) must produce bit-identical aggregates.
	local := New(Options{Workers: 8, QueueBound: 512, CacheSize: 512})
	lts := httptest.NewServer(local)
	defer func() { lts.Close(); local.Close() }()
	lcode, want, _ := postSweep(t, lts.URL, sweep200)
	if lcode != http.StatusOK {
		t.Fatalf("local sweep status %d", lcode)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count mismatch: distributed %d, local %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if g.Model != w.Model || g.Faults != w.Faults || g.Topology != w.Topology {
			t.Fatalf("row %d cell mismatch: %s/%d/%s vs %s/%d/%s",
				i, g.Model, g.Faults, g.Topology, w.Model, w.Faults, w.Topology)
		}
		if g.Aggregate != w.Aggregate {
			t.Errorf("row %s/%d/%s diverged between distributed and local execution:\n%+v\n%+v",
				g.Model, g.Faults, g.Topology, g.Aggregate, w.Aggregate)
		}
	}
}

// TestCoordinatorRestartServesFromStore: results computed by a leased
// worker survive in the durable store, so a restarted coordinator answers
// the same specs without re-executing anything.
func TestCoordinatorRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "results.log")
	specs := []string{
		`{"model": "ffw", "seed": 41, "duration_ms": 40, "width": 8, "height": 4}`,
		`{"model": "ni", "seed": 42, "duration_ms": 40, "width": 8, "height": 4}`,
		`{"model": "none", "seed": 43, "duration_ms": 40, "width": 8, "height": 4}`,
	}

	st1, err := store.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 2, QueueBound: 64, CacheSize: 16, Store: st1,
		Dispatch: dispatch.Config{LeaseTTL: 100 * time.Millisecond, PollWait: 50 * time.Millisecond}})
	ts1 := httptest.NewServer(s1)
	stopWorker := startTestWorker(t, ts1.URL, "w1", nil, nil)
	waitForWorkers(t, s1.Coordinator(), 1)

	firstRun := map[string]JobStatus{}
	for _, spec := range specs {
		code, js := postRun(t, ts1, spec, true)
		if code != http.StatusOK || js.State != JobDone || js.Result == nil {
			t.Fatalf("first-life run: code %d state %s (%s)", code, js.State, js.Error)
		}
		if js.StoreHit {
			t.Error("fresh spec reported a store hit")
		}
		firstRun[js.Key] = js
	}
	if c := s1.Coordinator().Stats().Completed; c != uint64(len(specs)) {
		t.Fatalf("first life completed %d jobs remotely, want %d", c, len(specs))
	}
	stopWorker()
	ts1.Close()
	s1.Close() // closes st1 — the log is durable on disk now

	// Second life: same store directory, no workers at all.
	st2, err := store.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Entries; got != len(specs) {
		t.Fatalf("store replayed %d entries, want %d", got, len(specs))
	}
	s2 := New(Options{Workers: 2, QueueBound: 64, CacheSize: 16, Store: st2})
	ts2 := httptest.NewServer(s2)
	defer func() { ts2.Close(); s2.Close() }()

	for _, spec := range specs {
		code, js := postRun(t, ts2, spec, true)
		if code != http.StatusOK || js.State != JobDone || js.Result == nil {
			t.Fatalf("second-life run: code %d state %s (%s)", code, js.State, js.Error)
		}
		if !js.StoreHit {
			t.Errorf("restarted coordinator re-executed spec %s instead of serving the store", js.Key[:8])
		}
		prev := firstRun[js.Key]
		if len(js.Result.Runs) != len(prev.Result.Runs) {
			t.Fatalf("restored result has %d runs, want %d", len(js.Result.Runs), len(prev.Result.Runs))
		}
		for i := range prev.Result.Runs {
			if !reflect.DeepEqual(js.Result.Runs[i], prev.Result.Runs[i]) {
				t.Errorf("restored run %d differs from the original computation", i)
			}
		}
	}
	if c := s2.Coordinator().Stats(); c.Completed != 0 || c.LeasesGranted != 0 {
		t.Errorf("second life dispatched work despite the store: %+v", c)
	}
	if hits := s2.Engine().Stats().StoreHits; hits != uint64(len(specs)) {
		t.Errorf("engine counted %d store hits, want %d", hits, len(specs))
	}
}

// TestRetryAfterOnQueueFull: 503 backpressure carries Retry-After advice on
// both the runs and sweep endpoints.
func TestRetryAfterOnQueueFull(t *testing.T) {
	s := New(Options{Workers: 1, QueueBound: 1, CacheSize: 4})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	// Occupy the single worker and the single queue slot with long runs,
	// then overflow.
	long := func(seed int) string {
		return fmt.Sprintf(`{"model": "ffw", "seed": %d, "duration_ms": 60000}`, seed)
	}
	var overflowed bool
	for seed := 1; seed <= 8; seed++ {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(long(seed)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 {
				t.Fatalf("queue-full 503 Retry-After = %q, want a positive integer", ra)
			}
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("queue never overflowed")
	}

	// The sweep endpoint reports the same advice when its cells overflow.
	code, _, hdr := postSweep(t, ts.URL, `{
		"spec": {"duration_ms": 60000},
		"models": ["none", "ni", "ffw"],
		"fault_counts": [0],
		"runs": 1
	}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflowing sweep status = %d, want 503", code)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("sweep 503 Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
}

// TestHealthzDispatchSection: /healthz carries the coordinator and store
// counters the operators watch.
func TestHealthzDispatchSection(t *testing.T) {
	st := store.NewMemStore()
	s := New(Options{Workers: 2, QueueBound: 64, CacheSize: 16, Store: st})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	stop := startTestWorker(t, ts.URL, "hw", nil, nil)
	defer stop()
	waitForWorkers(t, s.Coordinator(), 1)
	if code, js := postRun(t, ts, fastSpecJSON, true); code != http.StatusOK || js.State != JobDone {
		t.Fatalf("run: code %d state %s (%s)", code, js.State, js.Error)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Dispatch struct {
			dispatch.Stats
			Store *store.Stats `json:"store"`
		} `json:"dispatch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Dispatch.WorkersRegistered != 1 || h.Dispatch.Completed != 1 {
		t.Errorf("healthz dispatch section = %+v", h.Dispatch.Stats)
	}
	if h.Dispatch.Store == nil || h.Dispatch.Store.Entries != 1 {
		t.Errorf("healthz store section = %+v", h.Dispatch.Store)
	}
}
