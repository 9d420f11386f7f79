package server

import (
	"context"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/store"
)

// Service sizing defaults (applied for zero Options fields).
const (
	DefaultQueueBound = 256
	DefaultCacheSize  = 128
)

// Options sizes the service. Zero values select the defaults.
type Options struct {
	// Workers is how many in-process slots run jobs from the coordinator's
	// queue (default GOMAXPROCS). The slots lease only while no remote
	// `centurion worker` daemon is live: attached daemons take every job.
	Workers int
	// QueueBound bounds the coordinator's pending jobs; submissions beyond
	// it are rejected with 503 (default DefaultQueueBound).
	QueueBound int
	// CacheSize is the LRU result-cache capacity in entries (default
	// DefaultCacheSize).
	CacheSize int
	// Store is the durable content-addressed result store layered under
	// the LRU (nil = none: results die with the process). The server owns
	// the store once passed and closes it on shutdown.
	Store store.Store
	// Dispatch tunes the lease coordinator (zero values = defaults).
	Dispatch dispatch.Config
	// EnablePprof mounts net/http/pprof under /debug/pprof/ so hot-path
	// regressions can be profiled on a live service (`go tool pprof
	// http://host/debug/pprof/profile`). Off by default: the profiling
	// surface is for operators, not tenants.
	EnablePprof bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueBound <= 0 {
		o.QueueBound = DefaultQueueBound
	}
	if o.CacheSize <= 0 {
		o.CacheSize = DefaultCacheSize
	}
	return o
}

// Server is the simulation service: the job engine plus its REST API, and
// — since the dispatch subsystem — the coordinator that `centurion worker`
// daemons lease jobs from.
type Server struct {
	engine  *Engine
	coord   *dispatch.Coordinator
	store   store.Store   // breaker-wrapped; nil when running without durability
	breaker *breakerStore // nil when running without durability
	mux     *http.ServeMux
	started time.Time

	// Cached GC snapshot for /healthz (see gcStats).
	gcMu   sync.Mutex
	gcAt   time.Time
	gcSnap GCStats
}

// New assembles a service: the lease coordinator with its in-process slots,
// and the job engine in front of it.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if opts.Store != nil {
		// Every store touch — result reads/writes under the LRU, dispatch
		// checkpoints, orphan results — goes through the circuit breaker, so
		// a failing disk degrades the service to LRU-only caching instead of
		// slowing or erroring the serving path.
		s.breaker = newBreakerStore(opts.Store)
		s.store = s.breaker
		// Assigned from the interface, not the *breakerStore: the itab is
		// then built on first use instead of being linked into every binary
		// that links this package (see picoblaze.newCPU).
		opts.Dispatch.CheckpointStore = s.store
		opts.Dispatch.OrphanResult = func(key string, result []byte) {
			// A journal-replayed job finished after its submitter died with
			// the previous process: persist the result so the client's retry
			// is a store hit, not a re-execution.
			_ = s.breaker.Put(key, result)
		}
	}
	s.coord = dispatch.NewCoordinator(opts.Dispatch)
	s.engine = newEngine(s.coord, s.store, opts.Workers, opts.QueueBound, opts.CacheSize)
	s.routes(s.mux)
	s.coord.Routes(s.mux)
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Engine exposes the job engine (direct submissions without HTTP).
func (s *Server) Engine() *Engine { return s.engine }

// Coordinator exposes the dispatch coordinator (stats, in-process workers).
func (s *Server) Coordinator() *dispatch.Coordinator { return s.coord }

// Close stops the engine and coordinator immediately, cancelling any
// running jobs, and closes the durable store.
func (s *Server) Close() {
	s.engine.Close()
	if s.store != nil {
		_ = s.store.Close()
	}
}

// Shutdown is the graceful Close: admission stops at once, in-flight jobs
// drain (workers finish or their leases lapse) until ctx expires, then
// everything is torn down and the store closed cleanly.
func (s *Server) Shutdown(ctx context.Context) {
	s.engine.Drain(ctx)
	if s.store != nil {
		_ = s.store.Close()
	}
}

// ListenAndServe runs the service on addr until the listener fails. The
// header timeout guards against slow-header connection exhaustion; no
// write timeout is set because the SSE endpoint streams indefinitely.
func (s *Server) ListenAndServe(addr string) error {
	return s.ListenAndServeContext(context.Background(), addr)
}

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests and jobs before cutting them off.
const shutdownGrace = 30 * time.Second

// ListenAndServeContext runs the service on addr until the listener fails
// or ctx is cancelled. Cancellation triggers a graceful drain: the listener
// stops accepting, in-flight HTTP requests and jobs get shutdownGrace to
// finish, and the store is closed cleanly.
func (s *Server) ListenAndServeContext(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		// Stop accepting and wait for in-flight handlers (blocked sweep
		// waiters finish because the engine is still running), then drain
		// the engine and coordinator.
		_ = srv.Shutdown(grace)
		s.Shutdown(grace)
		return nil
	}
}
