package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/experiments"
	"centurion/internal/faults"
	"centurion/internal/store"
)

// maxBodyBytes bounds request bodies; a run spec is a few hundred bytes.
const maxBodyBytes = 1 << 20

// JobStatus is the wire representation of a job returned by the runs
// endpoints.
type JobStatus struct {
	ID       string     `json:"id"`
	Key      string     `json:"key"`
	State    JobState   `json:"state"`
	Error    string     `json:"error,omitempty"`
	CacheHit bool       `json:"cache_hit"`
	StoreHit bool       `json:"store_hit,omitempty"`
	Created  time.Time  `json:"created"`
	Result   *RunResult `json:"result,omitempty"`
}

// SweepRequest asks for a grid of batches: every model × fault axis ×
// topology × grid shape, each aggregated over Runs independently seeded
// runs. An empty Topologies (or Grids) axis sweeps only the base spec's
// shape, so existing clients keep their lower-dimensional grids. Grids
// entries are "WxH" strings ("64x64"); every shape is validated and budgeted
// like a standalone spec and gets its own canonical cache identity. The
// fault axis is either FaultCounts (the legacy single-instant injections) or
// FaultProfiles (hostile fault-engine schedules: death, churn, flaky,
// cascade, byzantine) — the two are mutually exclusive.
type SweepRequest struct {
	Spec          RunSpec          `json:"spec"`
	Models        []string         `json:"models"`
	FaultCounts   []int            `json:"fault_counts"`
	FaultProfiles []faults.Profile `json:"fault_profiles"`
	Topologies    []string         `json:"topologies"`
	Grids         []string         `json:"grids"`
	Runs          int              `json:"runs"`
}

// SweepRow is one cell of the sweep: the aggregate for one model at one
// fault-axis entry on one topology and grid shape. Profile carries the
// fault-profile kind when the sweep used the hostile axis.
type SweepRow struct {
	Model     string    `json:"model"`
	Faults    int       `json:"faults"`
	Profile   string    `json:"profile,omitempty"`
	Topology  string    `json:"topology"`
	Grid      string    `json:"grid"`
	CacheHit  bool      `json:"cache_hit"`
	StoreHit  bool      `json:"store_hit,omitempty"`
	Aggregate Aggregate `json:"aggregate"`
}

// SweepResponse is the sweep endpoint's payload.
type SweepResponse struct {
	Rows []SweepRow `json:"rows"`
}

// routes installs the REST API on mux.
func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
}

// labelSuffix renders an optional fault-profile label for error messages.
func labelSuffix(label string) string {
	if label == "" {
		return ""
	}
	return "/" + label
}

// writeJSON emits v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// status builds the wire form of a job snapshot.
func (s *Server) status(j *Job) JobStatus {
	snap, result := s.engine.Snapshot(j)
	return JobStatus{
		ID:       snap.ID,
		Key:      snap.Key,
		State:    snap.State,
		Error:    snap.Error,
		CacheHit: snap.CacheHit,
		StoreHit: snap.StoreHit,
		Created:  snap.Created,
		Result:   result,
	}
}

// writeUnavailable emits the 503 for a full queue (or closing engine) with
// Retry-After advice derived from the queue depth and the mean executed-job
// latency, so backpressure tells clients *when* to come back instead of
// inviting an immediate stampede.
func (s *Server) writeUnavailable(w http.ResponseWriter, err error) {
	secs := int((s.engine.RetryAfter() + time.Second - 1) / time.Second) // round up
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, err)
}

// GCStats is the allocator/GC view surfaced by /healthz: with pooled
// platforms and recycled packets the pause totals should stay flat under
// sustained sweep traffic — a growing pause total is the capacity signal
// that something regressed to per-run allocation.
type GCStats struct {
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	NumGC          uint32  `json:"num_gc"`
	PauseTotalMs   float64 `json:"pause_total_ms"`
}

// gcStatsTTL bounds how often /healthz pays for a runtime.ReadMemStats —
// the call stops the world, so a hammered health endpoint must not turn
// into a GC-pause generator of its own.
const gcStatsTTL = time.Second

// gcStats returns the allocator snapshot, refreshing it at most once per
// gcStatsTTL.
func (s *Server) gcStats() GCStats {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if time.Since(s.gcAt) >= gcStatsTTL {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.gcSnap = GCStats{
			HeapAllocBytes: ms.HeapAlloc,
			NumGC:          ms.NumGC,
			PauseTotalMs:   float64(ms.PauseTotalNs) / 1e6,
		}
		s.gcAt = time.Now()
	}
	return s.gcSnap
}

// dispatchHealth is the /healthz "dispatch" section: the coordinator's
// worker/lease counters plus, when durability is on, the result store.
type dispatchHealth struct {
	dispatch.Stats
	Store *store.Stats `json:"store,omitempty"`
	// StoreDegraded warns that the store circuit breaker is open: the
	// backend is erroring and the service is running on LRU-only caching
	// (results and checkpoints are not durable right now).
	StoreDegraded bool `json:"store_degraded,omitempty"`
	// StoreTrips counts how many times the breaker has opened.
	StoreTrips uint64 `json:"store_trips,omitempty"`
}

// handleHealth reports liveness plus engine, cache, dispatch, store,
// platform-pool and GC statistics for capacity monitoring.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	dh := dispatchHealth{Stats: s.coord.Stats()}
	if s.store != nil {
		st := s.store.Stats()
		dh.Store = &st
		dh.StoreDegraded = s.breaker.Degraded()
		dh.StoreTrips = s.breaker.Trips()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"engine":         s.engine.Stats(),
		"dispatch":       dh,
		"pool":           experiments.PoolStats(),
		"warmstart":      experiments.WarmStats(),
		"gc":             s.gcStats(),
	})
}

// handleSubmit admits one run spec. With ?wait=1 the response blocks until
// the job finishes; otherwise a 202 with the job ID is returned immediately
// (200 when a cache hit completes it on admission).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.engine.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
			s.writeUnavailable(w, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		if err := s.engine.Wait(r.Context(), j); err != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
	}
	st := s.status(j)
	code := http.StatusAccepted
	switch st.State {
	case JobDone:
		code = http.StatusOK
	case JobFailed:
		// Jobs only fail on engine shutdown or cancellation.
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, st)
}

// handleGet reports one job's status and, when finished, its result.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleEvents streams the job's windowed series as Server-Sent Events:
// already-recorded samples replay first, new ones follow live, and a final
// "done" event carries the job's terminal status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := s.engine.Subscribe(j)
	defer cancel()

	send := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}
	for _, smp := range replay {
		send("sample", smp)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case smp, open := <-live:
			if !open {
				send("done", s.status(j))
				return
			}
			send("sample", smp)
		}
	}
}

// handleSweep fans a grid of batch jobs (model × fault count × topology)
// through the engine, waits for all of them, and returns one aggregate row
// per cell — mean ± 95% CI over the batch's runs. Cells already in the
// cache are free.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req SweepRequest
	if err := decodeObject(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding sweep request: %w", err))
		return
	}
	if len(req.Models) == 0 {
		req.Models = []string{"none", "ni", "ffw"}
	}
	if len(req.FaultCounts) > 0 && len(req.FaultProfiles) > 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("fault_counts and fault_profiles are mutually exclusive sweep axes"))
		return
	}
	// The fault axis: legacy single-instant counts or hostile profiles.
	type faultCell struct {
		count   int
		profile *faults.Profile
		label   string
	}
	var faultAxis []faultCell
	if len(req.FaultProfiles) > 0 {
		for i := range req.FaultProfiles {
			p := req.FaultProfiles[i]
			faultAxis = append(faultAxis, faultCell{profile: &p, label: p.Kind})
		}
	} else if len(req.FaultCounts) > 0 {
		for _, fc := range req.FaultCounts {
			faultAxis = append(faultAxis, faultCell{count: fc})
		}
	} else {
		faultAxis = []faultCell{{}}
	}
	if len(req.Topologies) == 0 {
		req.Topologies = []string{req.Spec.Topology}
	}
	// The grid axis: "WxH" shapes, defaulting to the base spec's own
	// dimensions (possibly zero — Canonicalize fills in 16×8).
	type gridCell struct{ w, h int }
	gridAxis := []gridCell{{req.Spec.Width, req.Spec.Height}}
	if len(req.Grids) > 0 {
		gridAxis = gridAxis[:0]
		for _, g := range req.Grids {
			gw, gh, err := ParseGrid(g)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			gridAxis = append(gridAxis, gridCell{gw, gh})
		}
	}
	if req.Runs > 0 {
		req.Spec.Runs = req.Runs
	}

	// Canonicalize the whole grid before submitting anything, so an invalid
	// cell cannot leave earlier cells simulating for a rejected request.
	// (The guarantee covers validation only: a mid-grid queue-full still
	// leaves earlier admitted cells running.)
	type cell struct {
		row  SweepRow
		spec RunSpec
		job  *Job
	}
	var cells []cell
	for _, model := range req.Models {
		for _, fa := range faultAxis {
			for _, topo := range req.Topologies {
				for _, grid := range gridAxis {
					spec := req.Spec
					spec.Model = model
					spec.NumFaults = fa.count
					spec.FaultProfile = fa.profile
					spec.Topology = topo
					spec.Width, spec.Height = grid.w, grid.h
					if fa.count > 0 && spec.FaultAtMs == 0 {
						// The paper injects halfway through the run (500 ms of
						// 1000), rounded down onto the sampling-window grid.
						d := spec.DurationMs
						if d == 0 {
							d = 1000
						}
						win := spec.WindowMs
						if win == 0 {
							win = 1
						}
						spec.FaultAtMs = d/2 - (d/2)%win
					}
					if err := spec.Canonicalize(); err != nil {
						writeError(w, http.StatusBadRequest, fmt.Errorf("cell %s/%d%s/%s/%dx%d: %w",
							model, fa.count, labelSuffix(fa.label), topo, grid.w, grid.h, err))
						return
					}
					// The canonical topology and grid (empty axis entries
					// default to "mesh" and 16×8) label the row.
					cells = append(cells, cell{row: SweepRow{
						Model:    model,
						Faults:   fa.count,
						Profile:  fa.label,
						Topology: spec.Topology,
						Grid:     fmt.Sprintf("%dx%d", spec.Width, spec.Height),
					}, spec: spec})
				}
			}
		}
	}
	for i := range cells {
		j, err := s.engine.Submit(cells[i].spec)
		if err != nil {
			cellErr := fmt.Errorf("cell %s/%d: %w", cells[i].row.Model, cells[i].row.Faults, err)
			if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
				s.writeUnavailable(w, cellErr)
				return
			}
			writeError(w, http.StatusInternalServerError, cellErr)
			return
		}
		cells[i].job = j
	}

	resp := SweepResponse{}
	for _, c := range cells {
		if err := s.engine.Wait(r.Context(), c.job); err != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
		snap, result := s.engine.Snapshot(c.job)
		if snap.State == JobFailed || result == nil {
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("cell %s/%d failed: %s", c.row.Model, c.row.Faults, snap.Error))
			return
		}
		c.row.CacheHit = snap.CacheHit
		c.row.StoreHit = snap.StoreHit
		c.row.Aggregate = result.Aggregate
		resp.Rows = append(resp.Rows, c.row)
	}
	writeJSON(w, http.StatusOK, resp)
}
