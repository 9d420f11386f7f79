// Package node models the Centurion processing elements (the MicroBlaze
// nodes of the real platform): task execution with per-task latencies,
// bounded receive queues, source-task generation timers, fork/join instance
// bookkeeping, and the task directory that maps task classes to the nodes
// currently running them.
package node

import (
	"slices"

	"centurion/internal/noc"
	"centurion/internal/taskgraph"
)

// Directory tracks which task every node currently runs and answers
// nearest-owner queries. It is the simulator's stand-in for the task-ID
// addressing of the real platform, where packets are steered toward nodes
// advertising a task (router settings updated through RCAP when a node's
// AIM switches its task).
//
// A query searches outward from the asking node, ring by ring of topology
// distance, and stops at the first rings that answer it (DESIGN.md §5), so
// its cost depends on how near the owners are, not on how large the fabric
// is. Nothing is memoized: a lookup always reads the current assignment.
type Directory struct {
	topo   noc.Topology
	taskOf []taskgraph.TaskID
	alive  []bool
	// owners[task] lists the live nodes running task, in no particular
	// order; slot[id] is a live node's index in its task's list, so every
	// mutation is a swap-remove and an append. len(owners[task]) is the live
	// count that tells a search when it has found everyone.
	owners [][]noc.NodeID
	slot   []int32
	// Version counts mutations. No lookup consults it; it stays because it
	// travels in checkpoints (the CENCKPT1 bytes are pinned).
	Version uint64

	// ringBuf holds one ring of candidates, candBuf the scanned owner list
	// with distances, and kBuf backs NearestK's result.
	ringBuf []noc.NodeID
	candBuf []ownerCand
	kBuf    []noc.NodeID
}

// ownerCand is NearestK's owner-scan scratch entry.
type ownerCand struct {
	id   noc.NodeID
	dist int
}

// NewDirectory builds a directory from an initial mapping.
func NewDirectory(topo noc.Topology, m taskgraph.Mapping) *Directory {
	if len(m) != topo.Nodes() {
		panic("node: mapping size does not match topology")
	}
	d := &Directory{
		topo:   topo,
		taskOf: make([]taskgraph.TaskID, len(m)),
		alive:  make([]bool, len(m)),
		slot:   make([]int32, len(m)),
	}
	d.remap(m)
	return d
}

// remap installs a mapping with every node alive.
func (d *Directory) remap(m taskgraph.Mapping) {
	copy(d.taskOf, m)
	for i := range d.alive {
		d.alive[i] = true
	}
	d.reindex()
}

// reindex rebuilds the owner lists from taskOf and alive (the lists keep
// their capacity).
func (d *Directory) reindex() {
	for task := range d.owners {
		d.owners[task] = d.owners[task][:0]
	}
	for i, alive := range d.alive {
		if alive {
			d.enlist(noc.NodeID(i))
		}
	}
}

// enlist adds a live node to its task's owner list.
func (d *Directory) enlist(id noc.NodeID) {
	task := d.taskOf[id]
	for int(task) >= len(d.owners) {
		d.owners = append(d.owners, nil)
	}
	d.slot[id] = int32(len(d.owners[task]))
	d.owners[task] = append(d.owners[task], id)
}

// delist removes a live node from its task's owner list.
func (d *Directory) delist(id noc.NodeID) {
	list := d.owners[d.taskOf[id]]
	last := list[len(list)-1]
	list[d.slot[id]] = last
	d.slot[last] = d.slot[id]
	d.owners[d.taskOf[id]] = list[:len(list)-1]
}

// live returns the live owners of task.
func (d *Directory) live(task taskgraph.TaskID) []noc.NodeID {
	if uint(task) < uint(len(d.owners)) {
		return d.owners[task]
	}
	return nil
}

// Reset rebuilds the directory in place from a fresh mapping: every node
// comes back alive running its mapped task.
func (d *Directory) Reset(m taskgraph.Mapping) {
	if len(m) != len(d.taskOf) {
		panic("node: reset mapping size does not match directory")
	}
	d.remap(m)
	d.Version++
}

// TaskOf returns the task the node currently runs.
func (d *Directory) TaskOf(id noc.NodeID) taskgraph.TaskID { return d.taskOf[id] }

// Alive reports whether the node is alive.
func (d *Directory) Alive(id noc.NodeID) bool { return d.alive[id] }

// Set changes the node's task and reindexes.
func (d *Directory) Set(id noc.NodeID, task taskgraph.TaskID) {
	if d.taskOf[id] == task {
		return
	}
	if d.alive[id] {
		d.delist(id)
	}
	d.taskOf[id] = task
	if d.alive[id] {
		d.enlist(id)
	}
	d.Version++
}

// SetAlive marks a node alive or dead; dead nodes are excluded from
// nearest-owner queries.
func (d *Directory) SetAlive(id noc.NodeID, alive bool) {
	if d.alive[id] == alive {
		return
	}
	d.alive[id] = alive
	if alive {
		d.enlist(id)
	} else {
		d.delist(id)
	}
	d.Version++
}

// Count returns how many alive nodes run the task.
func (d *Directory) Count(task taskgraph.TaskID) int { return len(d.live(task)) }

// Counts returns alive node counts indexed by task ID (0..maxID).
func (d *Directory) Counts(maxID taskgraph.TaskID) []int {
	out := make([]int, int(maxID)+1)
	for i, task := range d.taskOf {
		if d.alive[i] && int(task) < len(out) {
			out[task]++
		}
	}
	return out
}

// scanList reports whether a k-nearest query over the given live owners
// should scan their list rather than search rings. Scanning costs len(live)
// distance evaluations; with owners spread evenly, rings reach k of them
// after about k·nodes/len(live) candidates. The two cross where
// len(live)² = k·nodes, so either way a query touches O(√(k·nodes)) nodes.
// (An empty list always scans, and finds nothing.)
func (d *Directory) scanList(live []noc.NodeID, k int) bool {
	return len(live)*len(live) <= k*len(d.taskOf)
}

// Nearest returns the alive node running task that is closest (by topology
// distance) to from, breaking ties toward the smaller node ID. The tie-break
// is what keeps results deterministic across topologies: wrap-around links
// (torus) and shared routers (cmesh) make exact-distance ties common. ok is
// false when no alive node runs the task.
func (d *Directory) Nearest(task taskgraph.TaskID, from noc.NodeID) (noc.NodeID, bool) {
	live := d.live(task)
	best := noc.Invalid
	if d.scanList(live, 1) {
		bestDist := 1 << 30
		for _, id := range live {
			dist := d.topo.Distance(from, id)
			if dist < bestDist || (dist == bestDist && id < best) {
				best, bestDist = id, dist
			}
		}
		return best, best != noc.Invalid
	}
	// Off the scan rule there is at least one live owner, so some ring holds
	// one and the loop ends; the first that does holds the nearest ones.
	for dist := 0; best == noc.Invalid; dist++ {
		d.ringBuf = d.topo.Ring(from, dist, d.ringBuf[:0])
		for _, id := range d.ringBuf {
			if d.taskOf[id] == task && d.alive[id] && (best == noc.Invalid || id < best) {
				best = id
			}
		}
	}
	return best, true
}

// NearestK returns up to k distinct alive owners of task ordered by
// topology distance from from (ties toward smaller IDs — the same stable
// order Nearest guarantees, so both lookups agree on every topology). Used
// by fork nodes to spread parallel branches over nearby workers. The result
// is the directory's scratch: it is valid until the next NearestK call and
// callers must not mutate it.
func (d *Directory) NearestK(task taskgraph.TaskID, from noc.NodeID, k int) []noc.NodeID {
	live := d.live(task)
	k = max(min(k, len(live)), 0)
	out := d.kBuf[:0]
	if d.scanList(live, k) {
		cands := d.candBuf[:0]
		for _, id := range live {
			cands = append(cands, ownerCand{id, d.topo.Distance(from, id)})
		}
		d.candBuf = cands // keep the grown scratch
		// Selection sort of the first k: k is tiny (the fork fan-out).
		for i := 0; i < k; i++ {
			best := i
			for j := i + 1; j < len(cands); j++ {
				if cands[j].dist < cands[best].dist ||
					(cands[j].dist == cands[best].dist && cands[j].id < cands[best].id) {
					best = j
				}
			}
			cands[i], cands[best] = cands[best], cands[i]
			out = append(out, cands[i].id)
		}
	} else {
		// Rings come in distance order; inside one, sort what it contributed
		// by ID. The k live owners exist, so the loop ends.
		for dist := 0; len(out) < k; dist++ {
			d.ringBuf = d.topo.Ring(from, dist, d.ringBuf[:0])
			ringStart := len(out)
			for _, id := range d.ringBuf {
				if d.taskOf[id] != task || !d.alive[id] {
					continue
				}
				i := len(out)
				out = append(out, id)
				for ; i > ringStart && out[i-1] > id; i-- {
					out[i] = out[i-1]
				}
				out[i] = id
			}
		}
		if len(out) > k {
			out = out[:k]
		}
	}
	d.kBuf = out[:0]
	return out
}

// Owners returns the alive owners of a task (ascending IDs). The slice is
// freshly allocated.
func (d *Directory) Owners(task taskgraph.TaskID) []noc.NodeID {
	out := slices.Clone(d.live(task))
	slices.Sort(out)
	return out
}

// Mapping snapshots the current node→task assignment.
func (d *Directory) Mapping() taskgraph.Mapping {
	m := make(taskgraph.Mapping, len(d.taskOf))
	copy(m, d.taskOf)
	return m
}
