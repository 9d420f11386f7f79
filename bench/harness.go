package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"time"

	"centurion/internal/metrics"
)

// sizing scales every workload's fixed operation list. Work is a pure
// function of (-seconds, -quick): nothing in the benchmark stops on a timer,
// so two runs with the same arguments execute the same operations.
type sizing struct {
	// scale is -seconds divided by the run length the base counts below were
	// calibrated for (BENCHMARK.json's run_seconds).
	scale float64
	// quick shrinks every workload to a smoke test (one rep, a twentieth of
	// the operations or fewer); used by the test and by traced runs for the
	// three workloads that were not named.
	quick bool
}

// calibratedSeconds is the run length the base operation counts were sized
// for on the 2-core reference box; -seconds scales them linearly.
const calibratedSeconds = 16

// n scales a base count, never below floor.
func (z sizing) n(base, quick, floor int) int {
	if z.quick {
		return quick
	}
	v := int(math.Round(float64(base) * z.scale))
	if v < floor {
		v = floor
	}
	return v
}

// outcome is what one workload run hands back to main.
type outcome struct {
	workload string
	// setup holds the wall time of each set-up pass, seconds.
	setup []float64
	// opLat holds the wall time of every successful operation of the timed
	// phase, seconds, reps pooled.
	opLat []float64
	// attempted and failed count timed operations.
	attempted, failed int
	// wall is the wall time of the timed phase; opsInWall and nodeTicksInWall
	// are the operations and simulated node-ticks executed within it.
	wall            float64
	opsInWall       int
	nodeTicksInWall float64
	heapMB          float64
	// digest folds every simulated result of the timed phase in schedule
	// order.
	digest   string
	problems []string
	// layers are the per-layer metrics this run could measure (traced only).
	layers map[string]float64
}

// fail records a problem; any problem makes the run incorrect. Only the
// first few are kept: they are for a person to read.
func (o *outcome) fail(msg string) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, msg)
	}
}

// liveHeapMB reports HeapAlloc after two forced collections (the second
// empties the sync.Pool victim caches, whose contents vary from run to run);
// callers keep the platform or server reachable until it returns.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile is metrics.Percentile (R-7), 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// folder accumulates simulated results into a SHA-256 in a fixed binary
// form, so digests compare bit-for-bit across runs, reps and commits.
type folder struct {
	h   hash.Hash
	buf [8]byte
}

func newFolder() *folder { return &folder{h: sha256.New()} }

func (f *folder) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *folder) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *folder) flag(v bool) {
	if v {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *folder) str(s string) {
	f.u64(uint64(len(s)))
	f.h.Write([]byte(s))
}

func (f *folder) f64s(vs []float64) {
	f.u64(uint64(len(vs)))
	for _, v := range vs {
		f.f64(v)
	}
}

func (f *folder) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }
