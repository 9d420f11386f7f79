package dispatch

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

	"centurion/internal/store"
	"centurion/internal/wire"
)

// Journal is the coordinator's durable set of open jobs, keyed by job ID, so
// a restart replays pending and in-flight work instead of forgetting a sweep.
// It is a keyed view over one store.LogStore file: record framing, CRC,
// torn-tail recovery, dead-byte accounting and space reclamation are the
// log's, and the journal has no file format or replay loop of its own.
//
// Every lifecycle transition of an open job is one synced log record, written
// before the transition is acknowledged: enqueue, lease and requeue Put the
// job's whole new state under its ID, complete and fail Delete the ID. A
// transition naming a job that is not open writes nothing.
//
// Value layout (internal/wire; str is a u32 length then the bytes, worker is
// empty for a pending job):
//
//	u8 version=1 | str key | str payload | str worker | u32 attempt
//
// A value that does not decode exactly — unknown version, short field,
// trailing bytes — fails OpenJournal rather than being guessed at.
type Journal struct {
	mu       sync.Mutex
	path     string
	log      *store.LogStore
	open     map[string]*JournalJob // never mutated in place: Pending hands the pointers out
	replayed int
}

// JournalJob is one open job: pending when WorkerID is empty, else leased.
type JournalJob struct {
	ID       string
	Key      string
	Payload  []byte
	WorkerID string
	Attempt  int
}

const (
	journalValueVersion = 1
	// oldJournalMagic stamps the event-log journal format this one replaced.
	oldJournalMagic = "CENJRNL1"
)

// encodeJournalJob renders jj's state as a log value.
func encodeJournalJob(jj *JournalJob) []byte {
	b := make([]byte, 0, 1+3*4+len(jj.Key)+len(jj.Payload)+len(jj.WorkerID)+4)
	b = wire.AppendU8(b, journalValueVersion)
	b = wire.AppendString(b, jj.Key)
	b = wire.AppendString(b, string(jj.Payload))
	b = wire.AppendString(b, jj.WorkerID)
	return wire.AppendU32(b, uint32(jj.Attempt))
}

// decodeJournalJob is encodeJournalJob's strict inverse for the job id.
func decodeJournalJob(id string, val []byte) (*JournalJob, error) {
	r := wire.NewReader(val)
	version := r.U8()
	jj := &JournalJob{ID: id, Key: r.String(), Payload: []byte(r.String()), WorkerID: r.String(), Attempt: r.Int()}
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("journal value: %w", r.Err())
	case version != journalValueVersion:
		return nil, fmt.Errorf("journal value version %d, want %d", version, journalValueVersion)
	case r.Remaining() != 0:
		return nil, fmt.Errorf("journal value has %d trailing bytes", r.Remaining())
	}
	return jj, nil
}

// OpenJournal opens (or creates) the journal at path and replays its open
// jobs. A file written by the old CENJRNL1 event-log journal is refused
// (OpenLog rejects a foreign magic before writing anything) and left untouched.
func OpenJournal(path string) (*Journal, error) {
	log, err := store.OpenLog(path)
	if err != nil {
		if head, _ := os.ReadFile(path); bytes.HasPrefix(head, []byte(oldJournalMagic)) {
			return nil, fmt.Errorf("dispatch: %s is a pre-PR-14 %s journal, which this version cannot replay; it only holds "+
				"the in-flight jobs of one crashed coordinator: remove it once no sweep is in flight", path, oldJournalMagic)
		}
		return nil, fmt.Errorf("dispatch: opening journal: %w", err)
	}
	j := &Journal{path: path, log: log, open: make(map[string]*JournalJob)}
	for _, id := range log.Keys() {
		val, _, err := log.Get(id)
		if err == nil {
			j.open[id], err = decodeJournalJob(id, val)
		}
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("dispatch: journal %s: job %q: %w", path, id, err)
		}
	}
	j.replayed = len(j.open)
	return j, nil
}

// Pending returns the open jobs sorted by numeric job ID — the enqueue
// order, which is the best queue-order reconstruction the journal affords (a
// requeued-to-front position is not journaled).
func (j *Journal) Pending() []*JournalJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*JournalJob, 0, len(j.open))
	for _, jj := range j.open {
		out = append(out, jj)
	}
	slices.SortFunc(out, func(a, b *JournalJob) int {
		return cmp.Or(cmp.Compare(jobIDNum(a.ID), jobIDNum(b.ID)), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// jobIDNum extracts N from "dj-N"; a foreign id counts as 0.
func jobIDNum(id string) uint64 {
	rest, ok := strings.CutPrefix(id, "dj-")
	if n, err := strconv.ParseUint(rest, 10, 64); ok && err == nil {
		return n
	}
	return 0
}

// MaxJobID returns the highest numeric "dj-N" suffix in the open set, so a
// restarted coordinator resumes IDs beyond it.
func (j *Journal) MaxJobID() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	var top uint64
	for id := range j.open {
		top = max(top, jobIDNum(id))
	}
	return top
}

// put makes jj the durable state of its job, then the in-memory one. Callers
// hold j.mu.
func (j *Journal) put(jj *JournalJob) error {
	if err := j.log.Put(jj.ID, encodeJournalJob(jj)); err != nil {
		return err
	}
	j.open[jj.ID] = jj
	return nil
}

// update journals a changed copy of open job id; a job that is not open has
// no state to change.
func (j *Journal) update(id string, change func(*JournalJob)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	old, ok := j.open[id]
	if !ok {
		return nil
	}
	next := *old
	change(&next)
	return j.put(&next)
}

// Enqueue journals a job's admission.
func (j *Journal) Enqueue(id, key string, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.put(&JournalJob{ID: id, Key: key, Payload: append([]byte(nil), payload...)})
}

// Lease journals a lease grant: the holder and attempt are what fence a
// replayed lease after a restart.
func (j *Journal) Lease(id, workerID string, attempt int) error {
	return j.update(id, func(jj *JournalJob) { jj.WorkerID, jj.Attempt = workerID, attempt })
}

// Requeue journals an expired lease returning the job to the queue.
func (j *Journal) Requeue(id string) error {
	return j.update(id, func(jj *JournalJob) { jj.WorkerID = "" })
}

// Complete journals a successful completion, closing the job.
func (j *Journal) Complete(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Delete(id); err != nil {
		return err
	}
	delete(j.open, id)
	return nil
}

// Fail journals a terminal failure, closing the job: durably the same Delete.
func (j *Journal) Fail(id string) error { return j.Complete(id) }

// Compact rewrites the log to exactly the open set.
func (j *Journal) Compact() error { return j.log.Compact() }

// JournalStats is the journal section of the coordinator's health surface.
type JournalStats struct {
	Path           string `json:"path"`
	OpenJobs       int    `json:"open_jobs"`
	LogBytes       int64  `json:"log_bytes"`
	DeadBytes      int64  `json:"dead_bytes"`
	Appends        uint64 `json:"appends"`
	Compactions    uint64 `json:"compactions"`
	Replayed       int    `json:"replayed"`
	TruncatedTail  bool   `json:"truncated_tail,omitempty"`
	TruncatedBytes int64  `json:"truncated_bytes,omitempty"`
}

// Stats snapshots the journal: the log's own numbers under the journal's
// field names, Appends being its synced records (puts + deletes).
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.log.Stats()
	return JournalStats{
		Path:           j.path,
		OpenJobs:       len(j.open),
		LogBytes:       st.LogBytes,
		DeadBytes:      st.DeadBytes,
		Appends:        st.Puts + st.Deletes,
		Compactions:    st.Compactions,
		Replayed:       j.replayed,
		TruncatedTail:  st.TruncatedTail,
		TruncatedBytes: st.TruncatedBytes,
	}
}

// Close flushes and releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }
