package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"centurion/internal/centurion"
	"centurion/internal/dispatch"
	"centurion/internal/experiments"
	"centurion/internal/wire"
)

// dispatchEnvelope is the leased-job payload: the canonical spec. The
// worker derives everything else, its warm-start key included, from the
// spec itself. Fields an older coordinator added beside the spec are ignored.
type dispatchEnvelope struct {
	Spec json.RawMessage `json:"spec"`
}

// dispatchPayload renders spec as the leased-job envelope.
func dispatchPayload(spec RunSpec) ([]byte, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("server: encoding spec for dispatch: %w", err)
	}
	return json.Marshal(dispatchEnvelope{Spec: specJSON})
}

// progressFlushAt is how many samples a worker batches per progress post: a
// 1000-window run becomes ~16 round trips instead of 1000.
const progressFlushAt = 64

// jobCheckpoint is a dispatch job's mid-batch checkpoint: which run of the
// batch is in flight, the summaries of the runs already completed, run 0's
// series, and the in-run resume state with the platform encoded as
// CENCKPT1. The checkpoint's progress stamp (the tick the coordinator fences
// forward motion with) is run*windows + win. It travels as the binary frame
// of encodeJobCheckpoint.
type jobCheckpoint struct {
	Run       int                   `json:"run"`
	Runs      []RunSummary          `json:"runs,omitempty"`
	Series    *Series               `json:"series,omitempty"`
	Win       int                   `json:"win"`
	Thr       []float64             `json:"thr,omitempty"`
	Act       []float64             `json:"act,omitempty"`
	Sw        []float64             `json:"sw,omitempty"`
	WaveSnaps []experiments.NetSnap `json:"wave_snaps,omitempty"`
	Platform  []byte                `json:"-"` // CENCKPT1, raw after the head
}

// encodeJobCheckpoint renders jc as a checkpoint frame:
//
//	str head | platform…
//
// head is jc's JSON without the platform, written as a wire string; the
// CENCKPT1 bytes follow raw to the end of the frame. A non-nil snap is
// encoded straight into the frame in place of jc.Platform, so a worker's
// commit never copies the platform it just encoded.
func encodeJobCheckpoint(jc *jobCheckpoint, snap *centurion.Checkpoint) ([]byte, error) {
	head, err := json.Marshal(jc)
	if err != nil {
		return nil, err
	}
	n := 4 + len(head) + len(jc.Platform)
	if snap != nil {
		n += snap.EncodedLen()
	}
	b := wire.AppendU32(make([]byte, 0, n), uint32(len(head)))
	b = append(b, head...)
	if snap != nil {
		return centurion.AppendCheckpoint(b, snap), nil
	}
	return append(b, jc.Platform...), nil
}

// decodeJobCheckpoint is encodeJobCheckpoint's inverse; Platform aliases
// data. Anything that is not a frame, such as the JSON form older workers
// committed, is an error.
func decodeJobCheckpoint(data []byte) (*jobCheckpoint, error) {
	r := wire.NewReader(data)
	head := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	jc := &jobCheckpoint{}
	if err := json.Unmarshal([]byte(head), jc); err != nil {
		return nil, err
	}
	jc.Platform = r.Rest()
	return jc, nil
}

// parseDispatchPayload decodes a leased payload, which is always an
// envelope.
func parseDispatchPayload(payload []byte) (RunSpec, error) {
	var env dispatchEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return RunSpec{}, fmt.Errorf("server: decoding dispatch envelope: %w", err)
	}
	if len(env.Spec) == 0 {
		return RunSpec{}, errors.New("server: dispatch payload is not an envelope (no spec)")
	}
	return ParseSpec(env.Spec)
}

// sampleLen is one sample's size in a progress frame.
const sampleLen = 4 + 4*8

// appendSamples renders a progress batch as a frame:
//
//	u32 n | n × (u32 run | f64 time_ms | f64 throughput | f64 nodes_active | f64 switches)
func appendSamples(b []byte, samples []Sample) []byte {
	b = wire.AppendU32(b, uint32(len(samples)))
	for _, s := range samples {
		b = wire.AppendU32(b, uint32(s.Run))
		b = wire.AppendF64(b, s.TimeMs)
		b = wire.AppendF64(b, s.Throughput)
		b = wire.AppendF64(b, s.NodesActive)
		b = wire.AppendF64(b, s.Switches)
	}
	return b
}

// decodeSamples is appendSamples' inverse. Anything that is not exactly one
// frame, such as the JSON array older workers posted, is an error.
func decodeSamples(frame []byte) ([]Sample, error) {
	r := wire.NewReader(frame)
	out := make([]Sample, r.Count(sampleLen))
	for i := range out {
		out[i] = Sample{Run: r.Int(), TimeMs: r.F64(), Throughput: r.F64(), NodesActive: r.F64(), Switches: r.F64()}
	}
	if r.Err() == nil && r.Remaining() != 0 {
		return nil, fmt.Errorf("server: %d bytes after the progress samples", r.Remaining())
	}
	return out, r.Err()
}

// sampleBatcher groups per-window samples into progress posts.
type sampleBatcher struct {
	buf  []Sample
	post func(samples []byte)
}

func (b *sampleBatcher) add(s Sample) {
	b.buf = append(b.buf, s)
	if len(b.buf) >= progressFlushAt {
		b.flush()
	}
}

func (b *sampleBatcher) flush() {
	if len(b.buf) == 0 || b.post == nil {
		return
	}
	b.post(appendSamples(make([]byte, 0, 4+sampleLen*len(b.buf)), b.buf))
	b.buf = b.buf[:0]
}

// DispatchExecuteResumable is the one executor of leased jobs, for worker
// daemons and the coordinator's in-process slots alike: decode a leased
// envelope, run the batch through the one batch loop (runBatch), stream
// sample batches back as progress frames, and return the JSON-encoded
// result. A
// lease that carries a prior attempt's checkpoint picks the batch up there —
// completed runs' summaries are reused and the interrupted run resumes
// mid-flight; a checkpoint that does not decode or does not fit is discarded.
// With checkpointEveryMs > 0 the in-flight state is committed to the
// coordinator every checkpointEveryMs of simulated time (at least every
// window) and at run boundaries, so a kill costs at most one interval of
// re-execution; commit delivery failures are tolerated — only a fencing
// rejection stops the attempt, via the job ctx. With checkpointEveryMs <= 0
// the executor never commits.
func DispatchExecuteResumable(checkpointEveryMs int) dispatch.ExecuteResumableFunc {
	return func(ctx context.Context, job dispatch.ResumableJob) (result []byte, errMsg string) {
		spec, err := parseDispatchPayload(job.Payload)
		if err != nil {
			return nil, err.Error()
		}
		everyWins := 0
		if checkpointEveryMs > 0 {
			everyWins = max(1, checkpointEveryMs/spec.WindowMs)
		}
		var from *jobCheckpoint
		if len(job.Checkpoint) > 0 {
			// A checkpoint that does not decode is no checkpoint.
			from, _ = decodeJobCheckpoint(job.Checkpoint)
		}
		commit := func(tick int64, jc *jobCheckpoint, snap *centurion.Checkpoint) {
			if b, merr := encodeJobCheckpoint(jc, snap); merr == nil {
				// Best-effort: a failed delivery only widens the re-execution
				// window of a later attempt.
				_ = job.Commit(ctx, tick, b)
			}
		}
		batch := sampleBatcher{post: job.Progress}
		res, err := runBatch(ctx, spec, batch.add, from, everyWins, commit)
		batch.flush()
		if err != nil {
			return nil, err.Error()
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err.Error()
		}
		return b, ""
	}
}
