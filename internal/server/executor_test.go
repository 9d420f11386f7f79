package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"centurion/internal/dispatch"
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

// envelopeOf wraps a canonical spec the way the engine ships it.
func envelopeOf(t testing.TB, spec RunSpec) []byte {
	t.Helper()
	env, err := dispatchPayload(spec)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestDispatchEnvelopeIsTheOnlyPayload pins the leased-job wire format: the
// coordinator ships {"spec": ...} envelopes and workers accept nothing else
// — a bare-spec payload (and anything that is not JSON) is an error, not a
// second decode path. An enveloped job executes to the same encoded result
// as the local engine path, and so does an envelope in the older format
// that also carried a "warm_prefix" key: the field is ignored, so journals
// written before it went still replay.
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

	oldFormat := []byte(`{"spec":` + string(specJSON) + `,"warm_prefix":"deadbeef"}`)
	for name, env := range map[string][]byte{"envelope": envelopeOf(t, spec), "old-format envelope": oldFormat} {
		got, errMsg := runLeased(ctx, 0, env, nil, nil)
		if errMsg != "" {
			t.Fatalf("%s failed: %s", name, errMsg)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s and local execution produced different results", name)
		}
	}
}

// TestDispatchExecutorShipsEnvelope runs a leased worker that captures its
// raw payload, submits a job through the real coordinator path, and asserts
// the wire bytes are the envelope: a reparseable canonical spec and nothing
// else.
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
	if !bytes.Equal(payload, envelopeOf(t, spec)) {
		t.Fatalf("payload is not the bare envelope of its spec: %s", payload)
	}
}

// FuzzDispatchEnvelope feeds arbitrary bytes to the worker's payload
// decoder, which reads what a coordinator or a replayed journal hands it.
// It must never panic, and any spec it accepts must be canonical: shipped
// again from its own JSON, it parses to the same spec and cache key.
func FuzzDispatchEnvelope(f *testing.F) {
	for _, spec := range []string{
		fastSpecJSON,
		`{"model":"ni-pb","ni":{"threshold":30},"num_faults":4,"fault_at_ms":500}`,
		`{"model":"ffw","ffw":{"timeout_ms":12.5},"thermal_dvfs":true,"topology":"torus"}`,
		`{"duration_ms":200,"fault_profile":{"kind":"cascade","at_ms":45,"nodes":6}}`,
	} {
		f.Add([]byte(`{"spec":` + spec + `}`))
		f.Add([]byte(`{"spec":` + spec + `,"warm_prefix":"deadbeef"}`))
	}
	f.Add([]byte(fastSpecJSON))
	// A null spec is refused, not read as the all-defaults run.
	null := []byte(`{"spec":null}`)
	if _, err := parseDispatchPayload(null); err == nil {
		f.Fatalf("%s accepted", null)
	}
	f.Add(null)
	f.Fuzz(func(t *testing.T, payload []byte) {
		spec, err := parseDispatchPayload(payload)
		if err != nil {
			return
		}
		again, err := parseDispatchPayload(envelopeOf(t, spec))
		if err != nil {
			t.Fatalf("accepted spec %+v does not re-parse: %v", spec, err)
		}
		if again.CanonicalKey() != spec.CanonicalKey() {
			t.Fatalf("re-parsed spec changed its key:\n%+v\n%+v", spec, again)
		}
	})
}
