package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"centurion/internal/wire"
)

// The coordinator's wire surface, mounted onto the service mux. Every body
// is JSON except a progress post's and a checkpoint commit's, which are
// binary frames (application/octet-stream, see encodeCheckpointPost):
//
//	POST /v1/workers/register      → {worker_id, lease_ttl_ms, poll_wait_ms}
//	POST /v1/workers/{id}/lease    → 200 {job_id, key, payload, attempt} | 204 (poll timed out)
//	POST /v1/workers/{id}/deregister → 204 (graceful goodbye; best-effort)
//	POST /v1/jobs/{id}/heartbeat   → 204 | 409 (lease lost) | 404
//	POST /v1/jobs/{id}/progress    → 204 | 400 (not a frame) | 409 | 404
//	POST /v1/jobs/{id}/checkpoint  → 204 | 400 (not a frame) | 409 | 404
//	POST /v1/jobs/{id}/complete    → 204 | 409 | 404
//
// A 409/404 on any job endpoint means the worker no longer owns the job
// (lease expired and was requeued, or the coordinator restarted): the
// worker must drop it and lease fresh work.

// maxDispatchBody bounds worker-posted bodies. Batch results carry whole
// sweep-cell payloads, so this is roomier than the public API's spec bound.
const maxDispatchBody = 64 << 20

// registerRequest is the body of POST /v1/workers/register.
type registerRequest struct {
	Name  string `json:"name"`
	Slots int    `json:"slots"`
}

// registerResponse hands the worker its identity and timing contract.
type registerResponse struct {
	WorkerID   string `json:"worker_id"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"`
	PollWaitMs int64  `json:"poll_wait_ms"`
}

// leaseRequest is the body of POST /v1/workers/{id}/lease.
type leaseRequest struct {
	WaitMs int64 `json:"wait_ms"`
}

// jobPost is the shared body shape of heartbeat/complete.
type jobPost struct {
	WorkerID string          `json:"worker_id"`
	Attempt  int             `json:"attempt"`
	Result   json.RawMessage `json:"result,omitempty"` // complete only
	Error    string          `json:"error,omitempty"`  // complete only
}

// encodeCheckpointPost renders the body of POST /v1/jobs/{id}/checkpoint:
// the fencing fields, then the checkpoint bytes verbatim to the end of the
// body.
//
//	str worker_id | u32 attempt | i64 tick | checkpoint…
//
// A progress post is the same frame with tick 0 and the progress payload in
// place of the checkpoint. The coordinator never looks inside either, so
// they cross the wire as raw bytes: no JSON and no base64.
func encodeCheckpointPost(workerID string, attempt int, tick int64, data []byte) []byte {
	b := make([]byte, 0, 4+len(workerID)+4+8+len(data))
	b = wire.AppendString(b, workerID)
	b = wire.AppendU32(b, uint32(attempt))
	b = wire.AppendI64(b, tick)
	return append(b, data...)
}

// decodeCheckpointPost is encodeCheckpointPost's inverse. data aliases body.
// A short frame, or one with no checkpoint bytes, is an error; so is a JSON
// body, whose first four bytes read as a length far past the end.
func decodeCheckpointPost(body []byte) (workerID string, attempt int, tick int64, data []byte, err error) {
	r := wire.NewReader(body)
	workerID, attempt, tick, data = r.String(), r.Int(), r.I64(), r.Rest()
	if err = r.Err(); err != nil {
		return "", 0, 0, nil, err
	}
	if len(data) == 0 {
		return "", 0, 0, nil, errors.New("checkpoint requires a payload")
	}
	return workerID, attempt, tick, data, nil
}

// Routes mounts the coordinator endpoints on mux.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers/register", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/{id}/lease", c.handleLease)
	mux.HandleFunc("POST /v1/workers/{id}/deregister", c.handleDeregister)
	mux.HandleFunc("POST /v1/jobs/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/jobs/{id}/progress", c.handleProgress)
	mux.HandleFunc("POST /v1/jobs/{id}/checkpoint", c.handleCheckpoint)
	mux.HandleFunc("POST /v1/jobs/{id}/complete", c.handleComplete)
}

// readBody reads a bounded request body. A body that declares its length
// (every worker post does) is read into one buffer of exactly that size, so
// a ~300 KB checkpoint costs one allocation instead of a doubling series.
func readBody(r *http.Request) ([]byte, error) {
	n := r.ContentLength
	if n < 0 {
		return io.ReadAll(io.LimitReader(r.Body, maxDispatchBody))
	}
	if n > maxDispatchBody {
		return nil, errors.New("body exceeds the dispatch bound")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// decodeBody reads and decodes a bounded JSON body into v; an empty body
// leaves v at its zero value.
func decodeBody(r *http.Request, v any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil
	}
	return json.Unmarshal(body, v)
}

// writeDispatchError maps coordinator errors to status codes: unknown
// worker/job → 404, lost lease → 409, closed → 503.
func writeDispatchError(w http.ResponseWriter, err error) {
	code := http.StatusConflict
	switch {
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case strings.Contains(err.Error(), "unknown"):
		code = http.StatusNotFound
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeBody(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, ttl, poll, err := c.Register(req.Name, req.Slots)
	if err != nil {
		writeDispatchError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(registerResponse{
		WorkerID:   id,
		LeaseTTLMs: ttl.Milliseconds(),
		PollWaitMs: poll.Milliseconds(),
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeBody(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lease, ok, err := c.Lease(r.Context(), r.PathValue("id"), time.Duration(req.WaitMs)*time.Millisecond)
	if err != nil {
		if errors.Is(err, r.Context().Err()) {
			return // client went away mid-poll; nothing to say
		}
		writeDispatchError(w, err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(lease)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	c.Deregister(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req jobPost
	if err := decodeBody(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.Heartbeat(r.PathValue("id"), req.WorkerID, req.Attempt); err != nil {
		writeDispatchError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	c.handleFrame(w, r, func(jobID, workerID string, attempt int, _ int64, data []byte) error {
		return c.Progress(jobID, workerID, attempt, data)
	})
}

func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	c.handleFrame(w, r, c.Checkpoint)
}

// handleFrame decodes a framed job post (see encodeCheckpointPost) and
// applies it to the job the path names.
func (c *Coordinator) handleFrame(w http.ResponseWriter, r *http.Request, apply func(jobID, workerID string, attempt int, tick int64, data []byte) error) {
	body, err := readBody(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	workerID, attempt, tick, data, err := decodeCheckpointPost(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := apply(r.PathValue("id"), workerID, attempt, tick, data); err != nil {
		writeDispatchError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req jobPost
	if err := decodeBody(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Error == "" && len(req.Result) == 0 {
		http.Error(w, "complete requires a result or an error", http.StatusBadRequest)
		return
	}
	if err := c.Complete(r.PathValue("id"), req.WorkerID, req.Attempt, req.Result, req.Error); err != nil {
		writeDispatchError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
