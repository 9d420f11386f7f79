package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The checkpoint commit's wire form: a binary frame (fencing fields, then
// the checkpoint bytes raw) that the handler decodes before the unchanged
// Coordinator.Checkpoint fences it, and that HTTPTransport posts verbatim.

// leasedCoordinator returns a coordinator on a frozen clock (no lease ever
// expires) holding one job leased to one worker, with its routes mounted.
func leasedCoordinator(t testing.TB) (*Coordinator, *http.ServeMux, string, Lease) {
	t.Helper()
	c := NewCoordinator(Config{Clock: func() time.Duration { return 0 }})
	t.Cleanup(c.Close)
	id, _, _, err := c.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = c.Execute(context.Background(), "key", []byte("payload"), nil) }()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		l, ok, err := c.Lease(context.Background(), id, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			mux := http.NewServeMux()
			c.Routes(mux)
			return c, mux, id, l
		}
	}
	t.Fatal("no lease arrived within 2s")
	return nil, nil, "", Lease{}
}

// postCheckpoint sends body to the job's checkpoint endpoint through the
// real handler and returns the status.
func postCheckpoint(mux *http.ServeMux, jobID string, body []byte) int {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+jobID+"/checkpoint", bytes.NewReader(body)))
	return rec.Code
}

func TestCheckpointPostFrame(t *testing.T) {
	c, mux, w, l := leasedCoordinator(t)
	frame := encodeCheckpointPost(w, l.Attempt, 7, []byte("ckpt"))
	jsonBody, err := json.Marshal(map[string]any{"worker_id": w, "attempt": l.Attempt, "tick": 7, "checkpoint": []byte("ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"json body", jsonBody, http.StatusBadRequest},
		{"truncated fencing header", frame[:len(frame)-len("ckpt")-3], http.StatusBadRequest},
		{"empty payload", frame[:len(frame)-len("ckpt")], http.StatusBadRequest},
		{"empty body", nil, http.StatusBadRequest},
		{"wrong attempt", encodeCheckpointPost(w, l.Attempt+1, 7, []byte("ckpt")), http.StatusConflict},
		{"wrong worker", encodeCheckpointPost("w-other", l.Attempt, 7, []byte("ckpt")), http.StatusConflict},
	} {
		if got := postCheckpoint(mux, l.JobID, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	if n := c.Stats().CheckpointsCommitted; n != 0 {
		t.Fatalf("refused posts committed %d checkpoints", n)
	}
	if got := postCheckpoint(mux, "dj-none", frame); got != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", got)
	}
	if got := postCheckpoint(mux, l.JobID, frame); got != http.StatusNoContent {
		t.Fatalf("well-formed frame: status %d, want 204", got)
	}
	// The coordinator resumes from exactly the bytes after the header.
	st := c.Stats()
	if st.CheckpointsCommitted != 1 {
		t.Fatalf("committed %d checkpoints, want 1", st.CheckpointsCommitted)
	}
	c.mu.Lock()
	got, tick := c.byID[l.JobID].ckpt, c.byID[l.JobID].ckptTick
	c.mu.Unlock()
	if string(got) != "ckpt" || tick != 7 {
		t.Fatalf("stored checkpoint %q at tick %d, want %q at 7", got, tick, "ckpt")
	}
}

func TestHTTPTransportBodies(t *testing.T) {
	type seen struct {
		ctype string
		body  []byte
	}
	got := make(chan seen, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got <- seen{r.Header.Get("Content-Type"), b}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	tr := NewHTTPTransport(ts.URL, nil)

	raw := []byte{0, 1, 2, '{', 0xff}
	if _, err := tr.Post(context.Background(), "/raw", raw, nil); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.ctype != "application/octet-stream" || !bytes.Equal(s.body, raw) {
		t.Errorf("[]byte body arrived as %q %q, want application/octet-stream %q", s.ctype, s.body, raw)
	}
	if _, err := tr.Post(context.Background(), "/json", jobPost{WorkerID: "w", Attempt: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.ctype != "application/json" || string(s.body) != `{"worker_id":"w","attempt":2}` {
		t.Errorf("struct body arrived as %q %s, want application/json", s.ctype, s.body)
	}
}

// FuzzCheckpointPost drives the real checkpoint handler with arbitrary
// bodies against one leased job. Whatever arrives, the answer is 204, 400,
// 404 or 409, and a checkpoint is committed only for a well-formed frame
// from the live (worker, attempt) at a tick past the last committed one.
func FuzzCheckpointPost(f *testing.F) {
	c, mux, w, l := leasedCoordinator(f)
	f.Add(encodeCheckpointPost(w, l.Attempt, 5, []byte("ckpt")))
	f.Add(encodeCheckpointPost(w, l.Attempt, 3, []byte("older")))
	f.Add(encodeCheckpointPost(w, l.Attempt, -1, []byte("negative tick")))
	f.Add(encodeCheckpointPost(w, l.Attempt+1, 9, []byte("wrong attempt")))
	f.Add(encodeCheckpointPost("w-other", l.Attempt, 9, []byte("wrong worker")))
	f.Add(encodeCheckpointPost(w, l.Attempt, 9, nil))
	f.Add([]byte(`{"worker_id":"` + w + `","attempt":1,"tick":4,"checkpoint":"AAAA"}`))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	var have bool
	var last int64
	f.Fuzz(func(t *testing.T, body []byte) {
		before := c.Stats().CheckpointsCommitted
		status := postCheckpoint(mux, l.JobID, body)
		committed := c.Stats().CheckpointsCommitted - before

		worker, attempt, tick, _, err := decodeCheckpointPost(body)
		live := err == nil && worker == w && attempt == l.Attempt
		want := http.StatusBadRequest
		switch {
		case live:
			want = http.StatusNoContent
		case err == nil:
			want = http.StatusConflict
		}
		if status != want {
			t.Fatalf("status %d, want %d (decode err %v)", status, want, err)
		}
		wantCommits := uint64(0)
		if live && (!have || tick > last) {
			wantCommits = 1
			have, last = true, tick
		}
		if committed != wantCommits {
			t.Fatalf("committed %d checkpoints, want %d (live %v, tick %d, last %d)", committed, wantCommits, live, tick, last)
		}
	})
}
