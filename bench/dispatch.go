package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/experiments"
	"centurion/internal/sim"
)

// dispatch_sweep: the sweep fabric end to end. The same server plus a
// coordinator journal and the durable store, two in-process leased workers
// (one slot each, checkpointing every 50 simulated ms), and one client
// posting sweeps of fresh seeds: lease → run → checkpoint ship → complete →
// journal + store fsync, with worker-side warm-start forking.

const (
	dispatchCellMs  = 200
	dispatchWorkers = 2
)

func dispatchSweepOp(seed uint64, i int) serveOp {
	return sweepOp(seed*10_000_000+uint64(i)+1, dispatchCellMs, []string{"none", "ni", "ffw"}, []int{8, 32})
}

// postSweep sends one sweep and verifies its shape.
func postSweep(r *rig, tr *tracer, op serveOp, opID string) opResult {
	q := request{method: "POST", path: "/v1/sweep", body: op.body, op: opID, class: "sweep"}
	q.span = tr.begin("client.sweep", opID, 0)
	for _, key := range op.cellKeys {
		tr.own(key, opID, q.span)
	}
	status, body, lat, err := r.do(q)
	tr.end(q.span)
	res := opResult{lat: lat, bytes: len(body)}
	switch {
	case err != nil:
		res.err = err.Error()
	case status != http.StatusOK:
		res.err = fmt.Sprintf("status %d", status)
	default:
		res.digest, res.err = checkSweep(body, len(op.cells))
	}
	return res
}

func runDispatch(seed uint64, z sizing, tr *tracer, tmp string) (o *outcome) {
	o = &outcome{workload: "dispatch_sweep"}
	experiments.SetWarmStart(true)
	experiments.ResetWarmStart()

	sweeps := z.n(100, 3, 20)
	warmups := z.n(4, 1, 4)
	next := 0 // sweep counter: every sweep of the run uses fresh seeds

	// Set-up: open the fabric, register the workers and push a few untimed
	// sweeps through it.
	var r *rig
	for p := 0; p < z.n(3, 1, 3); p++ {
		if r != nil {
			r.close()
			os.RemoveAll(r.cfg.dir)
		}
		t := time.Now()
		dir, err := os.MkdirTemp(tmp, "dispatch-*")
		if err == nil {
			r, err = openRig(rigConfig{dir: dir, workers: dispatchWorkers, journal: true, tr: tr})
		}
		if err != nil {
			o.fail("set-up: " + err.Error())
			return o
		}
		for i := 0; i < warmups; i++ {
			if res := postSweep(r, nil, dispatchSweepOp(seed, next), ""); res.err != "" {
				o.fail("set-up sweep: " + res.err)
			}
			next++
		}
		o.setup = append(o.setup, since(t))
	}
	defer func() {
		r.close()
		os.RemoveAll(r.cfg.dir)
	}()

	ops := make([]serveOp, sweeps)
	for i := range ops {
		ops[i] = dispatchSweepOp(seed, next+i)
	}
	coord0 := r.srv.Coordinator().Stats()
	warm0 := experiments.WarmStats()
	results := make([]opResult, sweeps)
	tr.enable(true)
	t := time.Now()
	for i, op := range ops {
		results[i] = postSweep(r, tr, op, fmt.Sprintf("op%d", i))
	}
	o.wall = since(t)
	tr.enable(false)
	o.heapMB = liveHeapMB()
	coord1 := r.srv.Coordinator().Stats()
	warm1 := experiments.WarmStats()

	all := newFolder()
	var okIdx []int
	for i, res := range results {
		o.attempted++
		if res.err != "" {
			o.failed++
			o.fail(fmt.Sprintf("sweep %d: %s", i, res.err))
			continue
		}
		all.str(res.digest)
		o.opLat = append(o.opLat, res.lat)
		okIdx = append(okIdx, i)
	}
	o.digest = all.sum()
	o.opsInWall = sweeps
	cells := sweeps * len(ops[0].cells)
	o.nodeTicksInWall = float64(cells) * nodes16x8 * dispatchCellMs * sim.TicksPerMs

	// Every cell must have gone through a leased worker, none twice.
	if got := int(coord1.Completed - coord0.Completed); got != cells {
		o.failed++
		o.fail(fmt.Sprintf("%d cells completed through dispatch, want %d", got, cells))
	}
	if n := coord1.Requeued - coord0.Requeued; n != 0 {
		o.failed++
		o.fail(fmt.Sprintf("%d leases were requeued", n))
	}
	for _, i := range spread(okIdx, sampleSweeps) {
		if d, err := localSweepDigest(ops[i]); err != nil || d != results[i].digest {
			o.failed++
			o.fail(fmt.Sprintf("sweep %d: response differs from in-process execution", i))
		}
	}

	if tr != nil {
		exec := tr.durations("dispatch.execute")
		busy := 0.0
		for _, d := range exec {
			busy += d
		}
		ckpts := float64(r.ts.ckpts.Load())
		warmLookups := float64(warm1.Hits + warm1.Misses - warm0.Hits - warm0.Misses)
		o.layers = map[string]float64{
			"dispatch.execute_ms_p50":        median(exec) * 1e3,
			"dispatch.worker_busy_share":     busy / (o.wall * dispatchWorkers),
			"dispatch.complete_rtt_us_p50":   median(tr.durations("dispatch.rpc.complete")) * 1e6,
			"dispatch.checkpoint_rtt_us_p50": median(tr.durations("dispatch.rpc.checkpoint")) * 1e6,
			"dispatch.checkpoint_bytes":      float64(r.ts.ckptBytes.Load()) / ckpts,
			"dispatch.checkpoints_per_cell":  float64(coord1.CheckpointsCommitted-coord0.CheckpointsCommitted) / float64(cells),
			"dispatch.requeues":              float64(coord1.Requeued - coord0.Requeued),
			"experiments.warm_hit_ratio":     float64(warm1.Hits-warm0.Hits) / warmLookups,
		}
		if us, err := journalCycleUs(r.cfg.dir); err == nil {
			o.layers["dispatch.journal_cycle_us_p50"] = us
		}
		storeLayers(o.layers, r, o.wall)
	}
	return o
}

// journalCycleUs times Enqueue+Lease+Complete on a scratch journal beside
// the live one: what the coordinator pays in fsyncs per job.
func journalCycleUs(dir string) (float64, error) {
	path := filepath.Join(dir, "probe.journal")
	j, err := dispatch.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer j.Close()
	payload := make([]byte, 512)
	var us []float64
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("dj-%d", i+1)
		t := time.Now()
		if err := j.Enqueue(id, "probe-key", payload); err != nil {
			return 0, err
		}
		if err := j.Lease(id, "w-1", 1); err != nil {
			return 0, err
		}
		if err := j.Complete(id); err != nil {
			return 0, err
		}
		us = append(us, since(t)*1e6)
	}
	return median(us), nil
}
