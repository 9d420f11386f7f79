package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"centurion/internal/experiments"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Workers: 2, QueueBound: 64, CacheSize: 16})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

const fastSpecJSON = `{"model": "ffw", "seed": 5, "duration_ms": 40, "width": 8, "height": 4}`

func postRun(t *testing.T, ts *httptest.Server, body string, wait bool) (int, JobStatus) {
	t.Helper()
	url := ts.URL + "/v1/runs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, st
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status string                        `json:"status"`
		Engine EngineStats                   `json:"engine"`
		Pool   experiments.PoolStatsSnapshot `json:"pool"`
		Warm   *experiments.WarmStartStats   `json:"warmstart"`
		GC     *GCStats                      `json:"gc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Engine.Workers != 2 {
		t.Errorf("healthz = %+v", h)
	}
	if h.GC == nil {
		t.Error("healthz carries no gc stats")
	}
	if h.Warm == nil {
		t.Error("healthz carries no warm-start stats")
	}
	// The platform pool is process-global: after at least one simulated run
	// (any test in this package, or the submit below) it must show activity.
	postRun(t, ts, `{"model":"none","duration_ms":20,"window_ms":20,"runs":2}`, true)
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Pool.PlatformsCreated == 0 {
		t.Errorf("pool stats show no platform activity: %+v", h.Pool)
	}
}

func TestSubmitWaitAndCache(t *testing.T) {
	_, ts := newTestServer(t)

	code, st := postRun(t, ts, fastSpecJSON, true)
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("first submit: code %d, state %s (%s)", code, st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Runs) != 1 {
		t.Fatal("finished job carries no result")
	}
	if st.CacheHit {
		t.Error("first submission cannot be a cache hit")
	}

	code2, st2 := postRun(t, ts, fastSpecJSON, true)
	if code2 != http.StatusOK || !st2.CacheHit {
		t.Fatalf("second submit: code %d, cache_hit %v — identical spec not cached", code2, st2.CacheHit)
	}
	if !reflect.DeepEqual(st.Result.Runs[0], st2.Result.Runs[0]) {
		t.Error("cached result differs from the original")
	}
}

func TestSubmitValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t)

	if code, _ := postRun(t, ts, `{"model": "zerg"}`, false); code != http.StatusBadRequest {
		t.Errorf("bad model: code %d, want 400", code)
	}
	if code, _ := postRun(t, ts, `{not json`, false); code != http.StatusBadRequest {
		t.Errorf("bad JSON: code %d, want 400", code)
	}
	resp0, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"modles": ["ni"], "spec": {"duration_ms": 40}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep with unknown field: code %d, want 400", resp0.StatusCode)
	}
	for _, body := range []string{`null`, `{"runs": 1} trailing`, `{"runs": 1}{"runs": 2}`} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep body %s: code %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", resp.StatusCode)
	}
}

func TestSubmitWaitZeroDoesNotBlock(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
		strings.NewReader(`{"model": "ffw", "seed": 77, "duration_ms": 2000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.State == JobDone {
		t.Errorf("wait=0 submit: code %d state %s — should not have waited for a 2 s run", resp.StatusCode, st.State)
	}
}

func TestSubmitAsyncThenPoll(t *testing.T) {
	_, ts := newTestServer(t)

	code, st := postRun(t, ts, `{"model": "ni", "seed": 6, "duration_ms": 40, "width": 8, "height": 4}`, false)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("async submit: code %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == JobDone {
			if cur.Result == nil {
				t.Fatal("done job without result")
			}
			break
		}
		if cur.State == JobFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentIdenticalPostsAreDeterministic(t *testing.T) {
	_, ts := newTestServer(t)

	const clients = 8
	var wg sync.WaitGroup
	results := make([]RunSummary, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(fastSpecJSON))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				errs[i] = err
				return
			}
			if st.State != JobDone || st.Result == nil {
				errs[i] = fmt.Errorf("state %s (%s)", st.State, st.Error)
				return
			}
			results[i] = st.Result.Runs[0]
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("client %d saw a different result:\n%+v\n%+v", i, results[i], results[0])
		}
	}
}

func TestSSEStreamsSeries(t *testing.T) {
	_, ts := newTestServer(t)

	_, st := postRun(t, ts, `{"model": "ffw", "seed": 9, "duration_ms": 40, "width": 8, "height": 4}`, false)
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	samples, done := 0, false
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: sample":
			samples++
		case line == "event: done":
			done = true
		}
		if done && strings.HasPrefix(line, "data: ") {
			var final JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				t.Fatalf("decoding done event: %v", err)
			}
			if final.State != JobDone {
				t.Errorf("final state %s", final.State)
			}
			break
		}
	}
	if samples != 40 {
		t.Errorf("streamed %d samples, want 40", samples)
	}
	if !done {
		t.Error("no done event")
	}
}

func TestSweepAggregates(t *testing.T) {
	_, ts := newTestServer(t)

	req := `{
		"spec": {"duration_ms": 60, "width": 8, "height": 4, "fault_at_ms": 30},
		"models": ["none", "ffw"],
		"fault_counts": [0, 2],
		"runs": 2
	}`
	post := func() SweepResponse {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			t.Fatalf("sweep status %d: %s", resp.StatusCode, buf.String())
		}
		var sr SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	sr := post()
	if len(sr.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 models x 2 fault counts)", len(sr.Rows))
	}
	for _, row := range sr.Rows {
		if row.Aggregate.Runs != 2 {
			t.Errorf("row %s/%d aggregated %d runs, want 2", row.Model, row.Faults, row.Aggregate.Runs)
		}
	}

	// The same sweep again is answered entirely from the cache.
	sr2 := post()
	for i, row := range sr2.Rows {
		if !row.CacheHit {
			t.Errorf("repeat sweep row %s/%d not served from cache", row.Model, row.Faults)
		}
		if row.Aggregate != sr.Rows[i].Aggregate {
			t.Errorf("repeat sweep row %s/%d diverged", row.Model, row.Faults)
		}
	}
}

func TestSweepRejectsInvalidCellBeforeSubmitting(t *testing.T) {
	s, ts := newTestServer(t)

	req := `{"spec": {"duration_ms": 40, "width": 8, "height": 4}, "models": ["none", "bogus"], "fault_counts": [0], "runs": 1}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid cell: code %d, want 400", resp.StatusCode)
	}
	if st := s.Engine().Stats(); st.Queued != 0 || st.Running != 0 || st.Completed != 0 {
		t.Errorf("invalid sweep still submitted work: %+v", st)
	}
}

func TestSweepDefaultsFaultTimeToMidRun(t *testing.T) {
	_, ts := newTestServer(t)

	// No fault_at_ms in the spec: sweeps must derive a valid injection
	// time (mid-run, on the window grid), not fail validation — including
	// when duration/2 is not itself a window multiple.
	for _, req := range []string{
		`{"spec": {"duration_ms": 80, "width": 8, "height": 4}, "models": ["none"], "fault_counts": [2], "runs": 1}`,
		`{"spec": {"duration_ms": 200, "window_ms": 8, "width": 8, "height": 4}, "models": ["none"], "fault_counts": [2], "runs": 1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			t.Fatalf("faulted sweep without fault_at_ms rejected: %d %s", resp.StatusCode, buf.String())
		}
		resp.Body.Close()
	}
}

// The sweep's topologies axis fans the grid over fabric shapes, each cell
// getting its own canonical cache identity, and /healthz breaks the
// platform-pool counters down by topology once those shapes have run.
func TestSweepTopologiesAxis(t *testing.T) {
	_, ts := newTestServer(t)

	req := `{
		"spec": {"duration_ms": 40, "width": 8, "height": 4},
		"models": ["ffw"],
		"fault_counts": [0],
		"topologies": ["mesh", "torus", "cmesh"],
		"runs": 1
	}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("topology sweep status %d: %s", resp.StatusCode, buf.String())
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (one per topology)", len(sr.Rows))
	}
	seen := map[string]bool{}
	for _, row := range sr.Rows {
		seen[row.Topology] = true
		if row.Aggregate.Runs != 1 {
			t.Errorf("row %s aggregated %d runs, want 1", row.Topology, row.Aggregate.Runs)
		}
	}
	for _, want := range []string{"mesh", "torus", "cmesh"} {
		if !seen[want] {
			t.Errorf("sweep rows missing topology %q (rows: %+v)", want, sr.Rows)
		}
	}

	// A cmesh cell with odd dimensions is rejected before any cell runs.
	bad := `{"spec": {"duration_ms": 40, "width": 7, "height": 4}, "models": ["none"], "fault_counts": [0], "topologies": ["cmesh"], "runs": 1}`
	resp2, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("odd-dimension cmesh cell: code %d, want 400", resp2.StatusCode)
	}

	// /healthz now reports per-shape platform-pool counters (topology kind
	// plus grid dimensions) for the shapes this sweep exercised.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var h struct {
		Pool experiments.PoolStatsSnapshot `json:"pool"`
	}
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mesh/8x4", "torus/8x4", "cmesh/8x4"} {
		bt, ok := h.Pool.ByTopology[want]
		if !ok {
			t.Errorf("healthz pool stats missing shape %q: %+v", want, h.Pool.ByTopology)
			continue
		}
		if bt.PlatformsCreated+bt.PlatformsReused == 0 {
			t.Errorf("healthz pool stats for %q count no platforms", want)
		}
	}
}

// The sweep's grids axis fans cells over fabric shapes: each "WxH" entry is
// validated like a standalone spec, labels its rows, and yields a distinct
// cache identity (re-sweeping must hit the cache per shape).
func TestSweepGridsAxis(t *testing.T) {
	_, ts := newTestServer(t)

	req := `{
		"spec": {"duration_ms": 40},
		"models": ["ffw"],
		"fault_counts": [0],
		"grids": ["8x4", "16x8"],
		"runs": 1
	}`
	post := func() SweepResponse {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			t.Fatalf("grids sweep status %d: %s", resp.StatusCode, buf.String())
		}
		var sr SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	sr := post()
	if len(sr.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (one per grid)", len(sr.Rows))
	}
	seen := map[string]bool{}
	for _, row := range sr.Rows {
		seen[row.Grid] = true
	}
	for _, want := range []string{"8x4", "16x8"} {
		if !seen[want] {
			t.Errorf("sweep rows missing grid %q (rows: %+v)", want, sr.Rows)
		}
	}
	// The same sweep again must be served entirely from the cache — each
	// shape kept its own canonical identity.
	for _, row := range post().Rows {
		if !row.CacheHit {
			t.Errorf("re-swept cell %s/%s missed the cache", row.Model, row.Grid)
		}
	}

	// Malformed and over-budget grid entries reject the whole request.
	for _, bad := range []string{`["8x"]`, `["512x512"]`} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"spec": {"duration_ms": 60000}, "models": ["none"], "fault_counts": [0], "grids": `+bad+`, "runs": 1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("grids %s: code %d, want 400", bad, resp.StatusCode)
		}
	}
}
