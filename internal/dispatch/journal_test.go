package dispatch

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"centurion/internal/store"
)

// journalModel is the whole specification of the journal: a map of open
// jobs. Each method reports whether the transition names an open job, i.e.
// whether the journal must have written exactly one record for it.
type journalModel map[string]JournalJob

func (m journalModel) enqueue(id, key string, payload []byte) bool {
	m[id] = JournalJob{ID: id, Key: key, Payload: payload}
	return true
}

func (m journalModel) lease(id, worker string, attempt int) bool {
	jj, ok := m[id]
	if ok {
		jj.WorkerID, jj.Attempt = worker, attempt
		m[id] = jj
	}
	return ok
}

func (m journalModel) requeue(id string) bool {
	jj, ok := m[id]
	if ok {
		jj.WorkerID = ""
		m[id] = jj
	}
	return ok
}

func (m journalModel) remove(id string) bool {
	_, ok := m[id]
	delete(m, id)
	return ok
}

func (m journalModel) clone() journalModel {
	c := make(journalModel, len(m))
	for id, jj := range m {
		c[id] = jj
	}
	return c
}

// checkJournalMatches asserts Pending (contents and numeric-ID order) and
// MaxJobID against the model.
func checkJournalMatches(t *testing.T, when string, j *Journal, m journalModel) {
	t.Helper()
	got := j.Pending()
	if len(got) != len(m) {
		t.Fatalf("%s: journal holds %d open jobs, model %d", when, len(got), len(m))
	}
	var maxID, prev uint64
	for i, jj := range got {
		want, ok := m[jj.ID]
		if !ok || jj.Key != want.Key || !bytes.Equal(jj.Payload, want.Payload) ||
			jj.WorkerID != want.WorkerID || jj.Attempt != want.Attempt {
			t.Fatalf("%s: open job %d is %+v, model has %+v (open=%v)", when, i, *jj, want, ok)
		}
		n := jobIDNum(jj.ID)
		if i > 0 && n <= prev {
			t.Fatalf("%s: Pending out of numeric-ID order at %d: %s after dj-%d", when, i, jj.ID, prev)
		}
		prev, maxID = n, max(maxID, n)
	}
	if got := j.MaxJobID(); got != maxID {
		t.Fatalf("%s: MaxJobID = %d, model %d", when, got, maxID)
	}
	if st := j.Stats(); st.OpenJobs != len(m) {
		t.Fatalf("%s: Stats.OpenJobs = %d, model %d", when, st.OpenJobs, len(m))
	}
}

// tornRecord returns a strict prefix of one valid log record: what a crash
// mid-append leaves at the tail.
func tornRecord(t *testing.T, rng *rand.Rand) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scratch.log")
	s, err := store.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("dj-999999", encodeJournalJob(&JournalJob{Key: "torn", Payload: make([]byte, 40), WorkerID: "w-torn", Attempt: 2})); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := raw[len("CENSTOR1"):]
	return rec[:1+rng.Intn(len(rec)-1)]
}

// TestJournalMatchesModel drives seeded random lifecycle sequences through a
// Journal and the map model side by side, reopening at random points —
// cleanly, after a torn partial record landed at the tail, and after a byte
// of the last committed record rotted (which must cost exactly that record).
// After every reopen the journal equals the model; every transition of an
// open job costs exactly one synced record and any other transition none.
func TestJournalMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "queue.jrnl")
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { j.Close() }()

			m := journalModel{}
			// beforeLast is the model as it stood before the transition that
			// wrote the file's final record; nil when that is unknown (right
			// after an open or a compaction, which reorder the file).
			var beforeLast journalModel
			nextID := 0
			someID := func() string { return fmt.Sprintf("dj-%d", 1+rng.Intn(nextID+2)) }

			reopen := func(how string) {
				t.Helper()
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				wantTorn := false
				switch how {
				case "torn":
					f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(tornRecord(t, rng)); err != nil {
						t.Fatal(err)
					}
					f.Close()
					wantTorn = true
				case "rot":
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					raw[len(raw)-1-rng.Intn(4)] ^= 1 << uint(rng.Intn(8))
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
					m, wantTorn = beforeLast, true
				}
				beforeLast = nil
				if j, err = OpenJournal(path); err != nil {
					t.Fatalf("reopen (%s): %v", how, err)
				}
				if st := j.Stats(); st.TruncatedTail != wantTorn || st.Replayed != len(m) || st.Appends != 0 {
					t.Fatalf("reopen (%s): stats %+v, want truncated=%v replayed=%d", how, st, wantTorn, len(m))
				}
				checkJournalMatches(t, "after "+how+" reopen", j, m)
			}

			for step := 0; step < 400; step++ {
				before := j.Stats()
				snapshot := m.clone()
				var wrote bool
				var err error
				switch op := rng.Intn(20); {
				case op < 6:
					nextID++
					id, key := fmt.Sprintf("dj-%d", nextID), fmt.Sprintf("key-%d", rng.Intn(50))
					payload := make([]byte, rng.Intn(80))
					rng.Read(payload)
					wrote, err = m.enqueue(id, key, payload), j.Enqueue(id, key, payload)
				case op < 10:
					id, w, a := someID(), fmt.Sprintf("w-%x-%d", rng.Int63(), rng.Intn(4)), 1+rng.Intn(5)
					wrote, err = m.lease(id, w, a), j.Lease(id, w, a)
				case op < 12:
					id := someID()
					wrote, err = m.requeue(id), j.Requeue(id)
				case op < 15:
					id := someID()
					wrote, err = m.remove(id), j.Complete(id)
				case op < 16:
					id := someID()
					wrote, err = m.remove(id), j.Fail(id)
				case op < 17:
					if err := j.Compact(); err != nil {
						t.Fatal(err)
					}
					beforeLast = nil
					checkJournalMatches(t, "after compaction", j, m)
					continue
				case op < 18:
					reopen("clean")
					continue
				case op < 19:
					reopen("torn")
					continue
				default:
					if beforeLast != nil {
						reopen("rot")
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				after, ls := j.Stats(), j.log.Stats()
				if after.Appends != ls.Puts+ls.Deletes {
					t.Fatalf("step %d: Appends %d != log puts %d + deletes %d", step, after.Appends, ls.Puts, ls.Deletes)
				}
				if grew := after.Appends - before.Appends; wrote && grew != 1 || !wrote && (grew != 0 || after.LogBytes != before.LogBytes) {
					t.Fatalf("step %d: transition of an open job=%v wrote %d records (%d → %d bytes)",
						step, wrote, grew, before.LogBytes, after.LogBytes)
				}
				if wrote {
					beforeLast = snapshot
				}
			}
			reopen("clean")
		})
	}
}

// TestJournalRejectsForeignFiles: a journal of the old CENJRNL1 event-log
// format is refused loudly and left byte-for-byte alone, and a CENSTOR1 log
// whose values are not journal values is refused rather than misread.
func TestJournalRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "queue.jrnl")
	// A CENJRNL1 enqueue record header, as the parent commit framed it.
	old := append([]byte("CENJRNL1"), 1, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'd', 'j', '-', '1', 'k', 'a', 'p', 'a')
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(oldPath)
	if err == nil || !strings.Contains(err.Error(), oldPath) || !strings.Contains(err.Error(), "CENJRNL1") {
		t.Fatalf("OpenJournal on a CENJRNL1 file: %v", err)
	}
	if now, rerr := os.ReadFile(oldPath); rerr != nil || !bytes.Equal(now, old) {
		t.Fatalf("rejected CENJRNL1 file was modified (read err %v)", rerr)
	}

	resultsPath := filepath.Join(dir, "results.log")
	s, err := store.OpenLog(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("dj-1", []byte(`{"not":"a journal value"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(resultsPath); err == nil || !strings.Contains(err.Error(), "dj-1") {
		t.Fatalf("OpenJournal on a log of foreign values: %v", err)
	}
}

// TestChaosCrossLifeFencing: job IDs and attempts restart with every
// coordinator life, so the fencing triple is only as unique as the worker
// ID. A worker that outlived a restart presents its old (job, worker,
// attempt) while the new life has leased an unrelated job under the same job
// ID and attempt: every such message must be rejected, and the new job's
// waiter must get the new job's result.
func TestChaosCrossLifeFencing(t *testing.T) {
	c1 := NewCoordinator(fastConfig())
	w1 := registerWorker(t, c1, "survivor")
	_, err1 := startExecute(c1, "k-old", []byte("p-old"))
	l1 := leaseOne(t, c1, w1)
	c1.CrashForTest()
	<-err1

	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			ckstore := newMapCkptStore()
			cfg := fastConfig()
			cfg.LeaseTTL = 30 * time.Second // the life-2 lease must not lapse mid-test
			cfg.CheckpointStore = ckstore
			if journaled {
				// A journal with nothing open: MaxJobID is 0, IDs restart.
				jr, err := OpenJournal(filepath.Join(t.TempDir(), "queue.jrnl"))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Journal = jr
			}
			c2 := NewCoordinator(cfg)
			defer c2.Close()
			w2 := registerWorker(t, c2, "newcomer")
			res2, err2 := startExecute(c2, "k-new", []byte("p-new"))
			l2 := leaseOne(t, c2, w2)
			if l2.JobID != l1.JobID || l2.Attempt != l1.Attempt || l2.Key != "k-new" {
				t.Fatalf("premise: life 2 leased %+v, want the same job ID and attempt as life 1's %+v", l2, l1)
			}

			if err := c2.Heartbeat(l1.JobID, w1, l1.Attempt); err == nil {
				t.Error("life-1 heartbeat extended a life-2 lease")
			}
			if err := c2.Checkpoint(l1.JobID, w1, l1.Attempt, 5, []byte("old-ckpt")); err == nil {
				t.Error("life-1 checkpoint committed against a life-2 job")
			}
			if err := c2.Complete(l1.JobID, w1, l1.Attempt, []byte("old-result"), ""); err == nil {
				t.Error("life-1 completion accepted for a life-2 job")
			}
			if ckstore.has("ckpt/k-new") {
				t.Error("life-1 checkpoint reached the store under the life-2 key")
			}
			if got := c2.Stats().StaleRejected; got != 3 {
				t.Errorf("StaleRejected = %d, want 3", got)
			}

			if err := c2.Complete(l2.JobID, w2, l2.Attempt, []byte("new-result"), ""); err != nil {
				t.Fatalf("life-2 completion: %v", err)
			}
			if got := <-res2; string(got) != "new-result" {
				t.Fatalf("life-2 waiter received %q, want its own job's result", got)
			}
			if err := <-err2; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJournalReplayedLeaseKeepsOldLifeWorker is the other half of the
// per-life worker-ID rule: a lease replayed from the journal keeps the
// old-life worker ID it was journaled with, so the worker that survived the
// restart completes its job under its old identity.
func TestJournalReplayedLeaseKeepsOldLifeWorker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jrnl")
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Journal = jr
	c1 := NewCoordinator(cfg)
	w1 := registerWorker(t, c1, "survivor")
	_, err1 := startExecute(c1, "ka", []byte("pa"))
	l1 := leaseOne(t, c1, w1)
	c1.CrashForTest()
	<-err1

	jr2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sunk := make(chan string, 1)
	cfg2 := fastConfig()
	cfg2.LeaseTTL = 30 * time.Second
	cfg2.Journal = jr2
	cfg2.OrphanResult = func(key string, result []byte) { sunk <- key + "=" + string(result) }
	c2 := NewCoordinator(cfg2)
	defer c2.Close()
	if w2 := registerWorker(t, c2, "newcomer"); w2 == w1 {
		t.Fatalf("life 2 re-issued worker ID %s", w1)
	}
	if err := c2.Complete(l1.JobID, w1, l1.Attempt, []byte("ra"), ""); err != nil {
		t.Fatalf("surviving worker's completion of its replayed lease: %v", err)
	}
	if got := <-sunk; got != "ka=ra" {
		t.Fatalf("orphan sink received %q", got)
	}
}

// FuzzJournalValue: the journal's value decoder on arbitrary bytes returns an
// error or a job whose encoding is exactly those bytes — nothing is guessed,
// padded or ignored.
func FuzzJournalValue(f *testing.F) {
	leased := encodeJournalJob(&JournalJob{Key: "ka", Payload: []byte("payload"), WorkerID: "w-17f-3", Attempt: 2})
	f.Add(leased)
	f.Add(encodeJournalJob(&JournalJob{}))
	f.Add(encodeJournalJob(&JournalJob{Key: strings.Repeat("k", 64), Payload: make([]byte, 300)}))
	f.Add([]byte{})
	f.Add(leased[:len(leased)-1])               // short attempt
	f.Add(append(bytes.Clone(leased), 0))       // trailing byte
	f.Add(append([]byte{2}, leased[1:]...))     // unknown version
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0}) // length field beyond the value
	f.Fuzz(func(t *testing.T, val []byte) {
		jj, err := decodeJournalJob("dj-1", val)
		if err != nil {
			return
		}
		if again := encodeJournalJob(jj); !bytes.Equal(again, val) {
			t.Fatalf("decoded %+v from %x but it re-encodes to %x", *jj, val, again)
		}
	})
}
