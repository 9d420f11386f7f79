package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"centurion"
	"centurion/internal/dispatch"
	"centurion/internal/server"
	"centurion/internal/store"
)

// cmdServe runs the simulation service: JSON run specs behind a REST API
// with an LRU result cache, queued on the dispatch coordinator that its
// in-process slots and `centurion worker` daemons lease jobs from. With -store the coordinator keeps a durable content-addressed
// result log, so a restart serves previously computed results without
// re-execution. With -journal the coordinator appends every job-queue
// transition to a durable log and replays pending and in-flight jobs on
// restart, so a coordinator crash costs clients at most a retry, never a
// lost job. SIGINT/SIGTERM drains gracefully: admission stops, in-flight
// jobs finish, the store closes cleanly.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "in-process slots running queued jobs while no worker daemon is live")
	queue := fs.Int("queue", server.DefaultQueueBound, "bound on queued jobs (excess submissions get 503 + Retry-After)")
	cache := fs.Int("cache", server.DefaultCacheSize, "LRU result-cache capacity (canonical specs)")
	storeDir := fs.String("store", "", "directory for the durable content-addressed result store (empty: in-memory only)")
	journalDir := fs.String("journal", "", "directory for the durable coordinator job journal (empty: queue dies with the process)")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof (live CPU/heap profiling of the service)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := centurion.ServeOptions{
		Workers:     *workers,
		QueueBound:  *queue,
		CacheSize:   *cache,
		EnablePprof: *pprofOn,
	}
	if *storeDir != "" {
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			return fmt.Errorf("creating store directory: %w", err)
		}
		st, err := store.OpenLog(filepath.Join(*storeDir, "results.log"))
		if err != nil {
			return err
		}
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "result store %s: %d entries, %d log bytes", *storeDir, stats.Entries, stats.LogBytes)
		if stats.TruncatedTail {
			fmt.Fprintf(os.Stderr, " (torn tail record discarded)")
		}
		fmt.Fprintln(os.Stderr)
		opts.Store = st
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return fmt.Errorf("creating journal directory: %w", err)
		}
		jr, err := dispatch.OpenJournal(filepath.Join(*journalDir, "queue.jrnl"))
		if err != nil {
			return err
		}
		jstats := jr.Stats()
		fmt.Fprintf(os.Stderr, "job journal %s: %d jobs to restore, %d log bytes", *journalDir, jstats.Replayed, jstats.LogBytes)
		if jstats.TruncatedTail {
			fmt.Fprintf(os.Stderr, " (torn tail record discarded)")
		}
		fmt.Fprintln(os.Stderr)
		opts.Dispatch.Journal = jr
	}

	fmt.Fprintf(os.Stderr, "centurion service listening on %s (%d workers, queue %d, cache %d)\n",
		*addr, *workers, *queue, *cache)
	fmt.Fprintf(os.Stderr, "  POST /v1/runs[?wait=1]    submit a run spec\n")
	fmt.Fprintf(os.Stderr, "  GET  /v1/runs/{id}        job status + result\n")
	fmt.Fprintf(os.Stderr, "  GET  /v1/runs/{id}/events SSE time-series stream\n")
	fmt.Fprintf(os.Stderr, "  POST /v1/sweep            model x fault-count grid, mean±CI\n")
	fmt.Fprintf(os.Stderr, "  POST /v1/workers/register worker-daemon registration (see `centurion worker`)\n")
	if *journalDir != "" {
		fmt.Fprintf(os.Stderr, "  job journal: %s (queue survives coordinator restarts)\n", *journalDir)
	}
	fmt.Fprintf(os.Stderr, "  GET  /healthz             liveness + engine/dispatch/store stats\n")
	if *pprofOn {
		fmt.Fprintf(os.Stderr, "  GET  /debug/pprof/        live profiling (pprof enabled)\n")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal falls through to default handling (abort)
		fmt.Fprintln(os.Stderr, "centurion service: draining (signal again to abort)")
	}()
	return centurion.ServeContext(ctx, *addr, opts)
}
