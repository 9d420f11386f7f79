package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/server"
	"centurion/internal/store"
)

// rig is the service under test: a server.Server behind real loopback TCP,
// a LogStore in a scratch directory and, for the dispatch workload, a
// coordinator journal and in-process leased workers. With a tracer the
// layer boundaries are wrapped from outside; without one nothing is.

// Headers the client uses to hand its span to the handler wrapper.
const (
	hdrOp    = "X-Bench-Op"
	hdrSpan  = "X-Bench-Span"
	hdrClass = "X-Bench-Class"
)

// clients is the closed-loop client count: never more than the cores the
// load generator shares with the server.
const clients = 2

type rigConfig struct {
	// dir holds the store log (and journal); it outlives the rig so a second
	// rig can reopen the same store.
	dir string
	// workers is the number of in-process dispatch workers (0 = local
	// execution); journal adds the coordinator journal.
	workers int
	journal bool
	tr      *tracer
}

type rig struct {
	cfg    rigConfig
	srv    *server.Server
	http   *httptest.Server
	client *http.Client
	ts     *tracedStore
	tt     *tracedTransport

	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup
}

func openRig(cfg rigConfig) (*rig, error) {
	st, err := store.OpenLog(filepath.Join(cfg.dir, "results.log"))
	if err != nil {
		return nil, err
	}
	r := &rig{cfg: cfg}
	opts := server.Options{Workers: clients, Store: st}
	if cfg.tr != nil {
		r.ts = &tracedStore{Store: st, tr: cfg.tr}
		opts.Store = r.ts
	}
	if cfg.journal {
		j, err := dispatch.OpenJournal(filepath.Join(cfg.dir, "jobs.journal"))
		if err != nil {
			st.Close()
			return nil, err
		}
		opts.Dispatch.Journal = j
	}
	r.srv = server.New(opts)
	var h http.Handler = r.srv
	if cfg.tr != nil {
		h = tracedHandler{next: r.srv, tr: cfg.tr}
	}
	r.http = httptest.NewServer(h)
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	if cfg.workers > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		r.stopWorkers = cancel
		resumable := server.DispatchExecuteResumable(50)
		if cfg.tr != nil {
			resumable = (&tracedExecute{next: resumable, tr: cfg.tr}).run
			r.tt = &tracedTransport{next: dispatch.NewHTTPTransport(r.http.URL, nil), tr: cfg.tr}
		}
		for i := 0; i < cfg.workers; i++ {
			wo := dispatch.WorkerOptions{
				Coordinator:      r.http.URL,
				Name:             fmt.Sprintf("bench-%d", i),
				Slots:            1,
				ExecuteResumable: resumable,
			}
			if r.tt != nil {
				wo.Transport = r.tt
			}
			r.workersDone.Add(1)
			go func() {
				defer r.workersDone.Done()
				_ = dispatch.RunWorker(ctx, wo)
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for r.srv.Coordinator().Stats().WorkersLive < cfg.workers {
			if time.Now().After(deadline) {
				r.close()
				return nil, fmt.Errorf("dispatch workers never registered")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return r, nil
}

// close stops the workers, the listener and the server (which closes the
// store and journal), and waits for each.
func (r *rig) close() {
	if r.stopWorkers != nil {
		r.stopWorkers()
		r.workersDone.Wait()
	}
	r.client.CloseIdleConnections()
	r.http.Close()
	r.srv.Close()
}

// request is one HTTP exchange as the client saw it.
type request struct {
	method, path string
	body         []byte
	// op, class and span tag the exchange for the handler wrapper (traced
	// runs only).
	op, class string
	span      int
}

// do sends the request and reads the whole response. The latency covers
// send to last body byte; decoding and verification happen after it.
func (r *rig) do(q request) (status int, body []byte, lat float64, err error) {
	req, err := http.NewRequest(q.method, r.http.URL+q.path, bytes.NewReader(q.body))
	if err != nil {
		return 0, nil, 0, err
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if q.span != 0 {
		req.Header.Set(hdrOp, q.op)
		req.Header.Set(hdrClass, q.class)
		req.Header.Set(hdrSpan, strconv.Itoa(q.span))
	}
	t := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	lat = since(t)
	resp.Body.Close()
	return resp.StatusCode, body, lat, err
}

// tracedHandler records one span per request around the server's handler.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, op, parent := "server.handler.dispatch", "", 0
	if c := r.Header.Get(hdrClass); c != "" {
		name, op = "server.handler."+c, r.Header.Get(hdrOp)
		parent, _ = strconv.Atoi(r.Header.Get(hdrSpan)) // our own header; 0 = no parent
	}
	id := h.tr.begin(name, op, parent)
	h.next.ServeHTTP(w, r)
	// Closed before net/http finishes the response, so the client cannot
	// have seen the last byte yet: the span nests in the client's.
	h.tr.end(id)
}

// ckptPrefix is how the coordinator namespaces job checkpoints in the store.
const ckptPrefix = "ckpt/"

// tracedStore times every store call and counts what the timed phase moved.
type tracedStore struct {
	store.Store
	tr *tracer

	puts, putBytes   atomic.Int64
	ckpts, ckptBytes atomic.Int64
}

func (s *tracedStore) span(name, key string) int {
	ref := s.tr.owner(strings.TrimPrefix(key, ckptPrefix))
	// Result reads and writes happen while the owning request's handler is
	// still waiting, so they nest in the client span; checkpoint traffic
	// belongs to a worker RPC and is attached by op only.
	parent := ref.span
	if strings.HasPrefix(key, ckptPrefix) {
		parent = 0
	}
	return s.tr.begin(name, ref.op, parent)
}

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	id := s.span("store.get", key)
	v, ok, err := s.Store.Get(key)
	s.tr.end(id)
	return v, ok, err
}

func (s *tracedStore) Put(key string, val []byte) error {
	id := s.span("store.put", key)
	err := s.Store.Put(key, val)
	s.tr.end(id)
	if id != 0 {
		s.puts.Add(1)
		s.putBytes.Add(int64(len(val)))
		if strings.HasPrefix(key, ckptPrefix) {
			s.ckpts.Add(1)
			s.ckptBytes.Add(int64(len(val)))
		}
	}
	return err
}

func (s *tracedStore) Delete(key string) error {
	id := s.span("store.delete", key)
	err := s.Store.Delete(key)
	s.tr.end(id)
	return err
}

// tracedTransport times worker→coordinator RPCs by kind and learns which
// spec key each leased job carries.
type tracedTransport struct {
	next dispatch.Transport
	tr   *tracer

	mu    sync.Mutex
	keyOf map[string]string // job id → spec key
}

func (t *tracedTransport) Post(ctx context.Context, path string, body, out any) (int, error) {
	kind := path[strings.LastIndexByte(path, '/')+1:]
	op := ""
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		jobID, _, _ := strings.Cut(rest, "/")
		t.mu.Lock()
		op = t.tr.owner(t.keyOf[jobID]).op
		t.mu.Unlock()
	}
	id := 0
	if kind != "lease" { // a lease long-poll is a wait for work, not a round trip
		id = t.tr.begin("dispatch.rpc."+kind, op, 0)
	}
	status, err := t.next.Post(ctx, path, body, out)
	t.tr.end(id)
	if l, ok := out.(*dispatch.Lease); ok && err == nil && status == http.StatusOK {
		t.mu.Lock()
		if t.keyOf == nil {
			t.keyOf = make(map[string]string)
		}
		t.keyOf[l.JobID] = l.Key
		t.mu.Unlock()
	}
	return status, err
}

// tracedExecute records the worker-side execution of each leased job.
type tracedExecute struct {
	next dispatch.ExecuteResumableFunc
	tr   *tracer
}

func (e *tracedExecute) run(ctx context.Context, job dispatch.ResumableJob) ([]byte, string) {
	ref := e.tr.owner(job.Key)
	id := e.tr.begin("dispatch.execute", ref.op, ref.span)
	res, msg := e.next(ctx, job)
	e.tr.end(id)
	return res, msg
}

// fsyncProbeUs times a raw 4 KB write+fsync in dir: the disk, not the
// program. Median of a few, microseconds.
func fsyncProbeUs(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, since(t)*1e6)
	}
	return median(us), nil
}
