package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/experiments"
)

// runLeased runs one leased payload through the worker executor, outside any
// coordinator: commits (when the cadence asks for any) go to commit.
func runLeased(ctx context.Context, everyMs int, payload, checkpoint []byte, commit func(tick int64, data []byte)) ([]byte, string) {
	return DispatchExecuteResumable(everyMs)(ctx, dispatch.ResumableJob{
		Payload:    payload,
		Checkpoint: checkpoint,
		Commit: func(_ context.Context, tick int64, data []byte) error {
			commit(tick, append([]byte(nil), data...))
			return nil
		},
	})
}

// envelopeOf wraps a canonical spec the way NewDispatchExecutor ships it.
func envelopeOf(t testing.TB, spec RunSpec) []byte {
	t.Helper()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(dispatchEnvelope{Spec: specJSON})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestDispatchEnvelopeIsTheOnlyPayload pins the leased-job wire format: the
// coordinator ships {"spec": ..., "warm_prefix": ...} envelopes and workers
// accept nothing else — a bare-spec payload (and anything that is not JSON)
// is an error, not a second decode path. An enveloped job executes to the
// same encoded result as the local engine path.
func TestDispatchEnvelopeIsTheOnlyPayload(t *testing.T) {
	ctx := context.Background()
	spec, err := ParseSpec([]byte(fastSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, bad := range [][]byte{specJSON, []byte("not json"), []byte(`{"warm_prefix":"deadbeef"}`)} {
		if res, errMsg := runLeased(ctx, 0, bad, nil, nil); errMsg == "" || res != nil {
			t.Fatalf("non-envelope payload %q was accepted (result %d bytes)", bad, len(res))
		}
	}
	local, err := Execute(ctx, spec, nil)
	if err != nil {
		t.Fatalf("local execution failed: %v", err)
	}
	want, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}

	key, ok := experiments.WarmPrefixKey(spec.toExperiment(0))
	if !ok || key == "" {
		t.Fatal("expected a warm-prefix key for a plain fault-free spec")
	}
	env, err := json.Marshal(dispatchEnvelope{Spec: specJSON, WarmPrefix: key})
	if err != nil {
		t.Fatal(err)
	}
	skewBefore := WarmPrefixSkew()
	enveloped, errMsg := runLeased(ctx, 0, env, nil, nil)
	if errMsg != "" {
		t.Fatalf("envelope payload failed: %s", errMsg)
	}
	if !bytes.Equal(want, enveloped) {
		t.Fatal("enveloped job and local execution produced different results")
	}
	if got := WarmPrefixSkew(); got != skewBefore {
		t.Fatalf("matching warm-prefix key counted as skew (%d -> %d)", skewBefore, got)
	}

	// A key that disagrees with the worker's own derivation is counted as
	// canonicalization skew but never rejects the job.
	badEnv, err := json.Marshal(dispatchEnvelope{Spec: specJSON, WarmPrefix: "deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	skewed, errMsg := runLeased(ctx, 0, badEnv, nil, nil)
	if errMsg != "" {
		t.Fatalf("skewed envelope failed: %s", errMsg)
	}
	if !bytes.Equal(want, skewed) {
		t.Fatal("skewed envelope changed the result")
	}
	if got := WarmPrefixSkew(); got != skewBefore+1 {
		t.Fatalf("warm-prefix skew counter = %d, want %d", got, skewBefore+1)
	}
}

// TestDispatchExecutorShipsEnvelope runs a leased worker that captures its
// raw payload, submits a job through the real coordinator path, and asserts
// the wire bytes are the envelope: a reparseable canonical spec plus the
// batch's warm-prefix key.
func TestDispatchExecutorShipsEnvelope(t *testing.T) {
	s := New(Options{
		Workers:    2,
		QueueBound: 16,
		CacheSize:  16,
		Dispatch: dispatch.Config{
			LeaseTTL: time.Second,
			PollWait: 50 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	payloads := make(chan []byte, 4)
	capture := func(ctx context.Context, job dispatch.ResumableJob) ([]byte, string) {
		payloads <- append([]byte(nil), job.Payload...)
		return DispatchExecuteResumable(0)(ctx, job)
	}
	defer startTestWorker(t, ts.URL, "capture", nil, capture)()
	waitForWorkers(t, s.Coordinator(), 1)

	if code, js := postRun(t, ts, fastSpecJSON, true); code != 200 || js.State != JobDone {
		t.Fatalf("submit: code %d, state %s (%s)", code, js.State, js.Error)
	}
	var payload []byte
	select {
	case payload = <-payloads:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never leased the job")
	}

	var env dispatchEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatalf("payload is not an envelope: %v", err)
	}
	if len(env.Spec) == 0 {
		t.Fatal("envelope carries no spec")
	}
	spec, err := ParseSpec(env.Spec)
	if err != nil {
		t.Fatalf("enveloped spec does not reparse: %v", err)
	}
	want, ok := experiments.WarmPrefixKey(spec.toExperiment(0))
	if !ok {
		t.Fatal("expected the spec to be warm-startable")
	}
	if env.WarmPrefix != want {
		t.Fatalf("envelope warm-prefix = %q, want %q", env.WarmPrefix, want)
	}
}
