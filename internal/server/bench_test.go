package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"centurion/internal/dispatch"
)

// benchPost submits one spec with ?wait=1 and fails the benchmark on any
// non-200 outcome.
func benchPost(b *testing.B, url, spec string) {
	resp, err := http.Post(url+"/v1/runs?wait=1", "application/json", strings.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != JobDone {
		b.Fatalf("status %d, state %s (%s)", resp.StatusCode, st.State, st.Error)
	}
}

// benchServe drives concurrent POST /v1/runs?wait=1 traffic against a
// GOMAXPROCS-worker service, cycling through `distinct` different specs, and
// reports requests/s and the cache hit rate.
func benchServe(b *testing.B, distinct int) {
	s := New(Options{Workers: runtime.GOMAXPROCS(0), QueueBound: 4096, CacheSize: 256})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	specs := make([]string, distinct)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"model": "ffw", "seed": %d, "duration_ms": 20, "width": 8, "height": 4}`, i+1)
	}
	// Warm the cache so steady-state traffic measures the serving path of a
	// long-running service rather than first-contact simulation.
	for _, spec := range specs {
		benchPost(b, ts.URL, spec)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			benchPost(b, ts.URL, specs[i%len(specs)])
			i++
		}
	})
	b.StopTimer()

	stats := s.Engine().Stats()
	total := stats.Cache.Hits + stats.Cache.Misses
	if total > 0 {
		b.ReportMetric(float64(stats.Cache.Hits)/float64(total)*100, "cache_hit_%")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(stats.Workers), "workers")
}

// BenchmarkServeCached is the hot-cache regime: every request after warm-up
// is answered from the LRU without re-simulating.
func BenchmarkServeCached(b *testing.B) { benchServe(b, 8) }

// benchDistributedSweep drives 32-cell sweep grids (every cell a distinct
// canonical spec, so nothing is answered from the caches) through a service
// with `workers` in-process leased daemons attached — 0 means the dispatch
// executor falls back to purely local execution, the 1-process baseline —
// and reports sweep-spec throughput.
func benchDistributedSweep(b *testing.B, workers int) {
	s := New(Options{Workers: runtime.GOMAXPROCS(0), QueueBound: 4096, CacheSize: 16})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < workers; i++ {
		go func(i int) {
			_ = dispatch.RunWorker(ctx, dispatch.WorkerOptions{
				Coordinator:      ts.URL,
				Name:             fmt.Sprintf("bench-%d", i),
				Slots:            2,
				ExecuteResumable: DispatchExecuteResumable(0),
			})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Coordinator().Stats().WorkersLive < workers {
		if time.Now().After(deadline) {
			b.Fatal("bench workers never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const cellsPerSweep = 32 // 2 models x 8 fault counts x 2 topologies
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh base seed per iteration keeps every cell a cache miss.
		req := fmt.Sprintf(`{
			"spec": {"duration_ms": 20, "width": 8, "height": 4, "seed": %d},
			"models": ["none", "ffw"],
			"fault_counts": [0,1,2,3,4,5,6,7],
			"topologies": ["mesh", "torus"],
			"runs": 1
		}`, i*cellsPerSweep+1)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		var sr SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(sr.Rows) != cellsPerSweep {
			b.Fatalf("sweep status %d, %d rows", resp.StatusCode, len(sr.Rows))
		}
	}
	b.StopTimer()
	st := s.Coordinator().Stats()
	if workers > 0 && st.Completed == 0 {
		b.Fatal("no cell executed through the dispatch fabric")
	}
	b.ReportMetric(float64(b.N*cellsPerSweep)/b.Elapsed().Seconds(), "specs/s")
	b.ReportMetric(float64(st.Requeued), "requeues")
}

// BenchmarkDistributedSweep is the gated configuration (3 leased workers);
// its specs/s metric is held to a throughput floor by cmd/benchgate. The
// Local and OneWorker variants exist for the scaling table in
// EXPERIMENTS.md and are not gated.
func BenchmarkDistributedSweep(b *testing.B)          { benchDistributedSweep(b, 3) }
func BenchmarkDistributedSweepLocal(b *testing.B)     { benchDistributedSweep(b, 0) }
func BenchmarkDistributedSweepOneWorker(b *testing.B) { benchDistributedSweep(b, 1) }

// BenchmarkServeColdMiss is the all-miss regime: every request simulates.
// Each iteration uses a fresh seed, so the cache never hits.
func BenchmarkServeColdMiss(b *testing.B) {
	s := New(Options{Workers: runtime.GOMAXPROCS(0), QueueBound: 4096, CacheSize: 256})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seed.Add(1)
			benchPost(b, ts.URL, fmt.Sprintf(`{"model": "ffw", "seed": %d, "duration_ms": 20, "width": 8, "height": 4}`, n))
		}
	})
	b.StopTimer()

	stats := s.Engine().Stats()
	b.ReportMetric(float64(stats.Cache.Misses), "misses")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkSweepWithKills is the recovery-throughput floor (ISSUE 10):
// three checkpointing workers share a 32-cell sweep and every iteration
// hard-kills one of them right after its third committed checkpoint, so the
// sweep only completes once the killed cell's lease expires and a survivor
// resumes it from the checkpoint. No journal or store is attached — fsync
// noise would swamp the recovery signal. specs/s is gated as a FLOOR by
// cmd/benchgate: a regression in expiry, requeue or resume shows up as
// recovery stalls dragging the throughput down.
func BenchmarkSweepWithKills(b *testing.B) {
	s := New(Options{Workers: runtime.GOMAXPROCS(0), QueueBound: 4096, CacheSize: 16,
		Dispatch: dispatch.Config{
			LeaseTTL:    150 * time.Millisecond,
			PollWait:    50 * time.Millisecond,
			MaxAttempts: 6,
		}})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	resumable := DispatchExecuteResumable(10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go func(i int) {
			_ = dispatch.RunWorker(ctx, dispatch.WorkerOptions{
				Coordinator:      ts.URL,
				Name:             fmt.Sprintf("survivor-%d", i),
				Slots:            2,
				ExecuteResumable: resumable,
				MaxBackoff:       100 * time.Millisecond,
			})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Coordinator().Stats().WorkersLive < 2 {
		if time.Now().After(deadline) {
			b.Fatal("bench workers never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const cellsPerSweep = 32 // 2 models x 8 fault counts x 2 topologies
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh doomed worker per iteration; 40-window cells commit at
		// windows 10/20/30, so its third commit lands inside its first cell
		// and the kill abandons that cell mid-run with a checkpoint behind.
		hs := make(chan struct{})
		var killed atomic.Bool
		dctx, dcancel := context.WithCancel(ctx)
		workerDone := make(chan struct{})
		go func() {
			defer close(workerDone)
			_ = dispatch.RunWorker(dctx, dispatch.WorkerOptions{
				Coordinator:      ts.URL,
				Name:             fmt.Sprintf("doomed-%d", i),
				Slots:            2,
				ExecuteResumable: killAfterCommits(resumable, 3, hs, &killed),
				HardStop:         hs,
				MaxBackoff:       100 * time.Millisecond,
			})
		}()
		req := fmt.Sprintf(`{
			"spec": {"duration_ms": 40, "width": 8, "height": 4, "seed": %d},
			"models": ["none", "ffw"],
			"fault_counts": [0,1,2,3,4,5,6,7],
			"topologies": ["mesh", "torus"],
			"runs": 1
		}`, i*cellsPerSweep+1)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		var sr SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(sr.Rows) != cellsPerSweep {
			b.Fatalf("sweep status %d, %d rows", resp.StatusCode, len(sr.Rows))
		}
		dcancel()
		<-workerDone
	}
	b.StopTimer()
	st := s.Coordinator().Stats()
	if st.Resumes == 0 {
		b.Fatal("no kill was ever recovered through a checkpoint resume")
	}
	b.ReportMetric(float64(b.N*cellsPerSweep)/b.Elapsed().Seconds(), "specs/s")
	b.ReportMetric(float64(st.Resumes)/float64(b.N), "resumes/op")
}

// BenchmarkJobCheckpoint pins the coordinator-side cost of one committed
// checkpoint — fence validation, monotonic-tick check, lease extension — at
// a 256 KiB payload, the CENCKPT1 size class of the paper's 16x8 platform.
// Gated as an ns/op ceiling: checkpointing is on the worker's hot mid-run
// path, so this is the overhead budget every checkpoint interval pays. The
// coordinator keeps the committed buffer rather than copying it, so a
// commit makes 0 allocs/op, under the recorded 1-alloc baseline.
func BenchmarkJobCheckpoint(b *testing.B) {
	c := dispatch.NewCoordinator(dispatch.Config{
		LeaseTTL: time.Hour, // no expiry mid-benchmark
		PollWait: 50 * time.Millisecond,
	})
	defer c.Close()
	wid, _, _, err := c.Register("bench-ckpt", 1)
	if err != nil {
		b.Fatal(err)
	}
	resCh := make(chan error, 1)
	go func() {
		_, eerr := c.Execute(context.Background(), "bench-ckpt-key", []byte("{}"), nil)
		resCh <- eerr
	}()
	var lease dispatch.Lease
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, ok, lerr := c.Lease(context.Background(), wid, 50*time.Millisecond)
		if lerr != nil {
			b.Fatal(lerr)
		}
		if ok {
			lease = l
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("benchmark job never leased")
		}
	}
	data := make([]byte, 256<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Checkpoint(lease.JobID, wid, lease.Attempt, int64(i+1), data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := c.Complete(lease.JobID, wid, lease.Attempt, []byte("{}"), ""); err != nil {
		b.Fatal(err)
	}
	if err := <-resCh; err != nil {
		b.Fatal(err)
	}
}
