package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLogStoreBytesPinned pins the CENSTOR1 on-disk bytes: a scripted
// Put / re-Put / Delete sequence and its compaction must produce exactly the
// file lengths and SHA-256 digests measured at the commit before log.go's
// record encoders were folded into one, so a refactor of the writer cannot
// move the format.
func TestLogStoreBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pinned.log")
	s := openTestLog(t, path)
	defer s.Close()

	for i := 0; i < 12; i++ {
		if err := s.Put(testKey(i), bytes.Repeat([]byte{byte(0x30 + i)}, 5+i*11)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{2, 7, 2} { // supersede, one key twice
		if err := s.Put(testKey(i), bytes.Repeat([]byte{byte(0xa0 + i)}, 40-i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 7, 99} { // 99 is absent: writes nothing
		if err := s.Delete(testKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("short", []byte{1}); err != nil {
		t.Fatal(err)
	}
	checkPinned(t, path, "appended", 2213,
		"53a99cdad8700d808779f100d6528f9ab548f1fa8625bc9f1f66f241a9108a35")

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkPinned(t, path, "compacted", 1496,
		"e588b6ab53ddbde5a72042c2dc9758a1928def77ddd471da6b889fa4366a256f")
}

func checkPinned(t *testing.T, path, stage string, wantLen int, wantSum string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); len(raw) != wantLen || got != wantSum {
		t.Errorf("%s log = %d bytes, sha256 %s; pinned %d bytes, %s", stage, len(raw), got, wantLen, wantSum)
	}
}

// FuzzLogReplay: OpenLog on arbitrary bytes never panics, never allocates
// beyond a bound derived from the file length (a length field is a claim,
// not an allocation size), and a log it accepts is self-consistent: every
// indexed key reads back, and a second open finds nothing left to truncate.
func FuzzLogReplay(f *testing.F) {
	valid := func() []byte {
		path := filepath.Join(f.TempDir(), "seed.log")
		s, err := OpenLog(path)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := s.Put(testKey(i%3), bytes.Repeat([]byte{byte(i + 1)}, 9+i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := s.Delete(testKey(1)); err != nil {
			f.Fatal(err)
		}
		if err := s.Close(); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}()
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	withMagic := func(rec []byte) []byte { return append([]byte(logMagic), rec...) }
	oversized := bytes.Repeat([]byte{0xff}, recHeaderLen+4)

	f.Add([]byte{})                                 // empty file
	f.Add([]byte(logMagic))                         // magic only
	f.Add([]byte("CENJRNL1"))                       // another format's magic
	f.Add(valid)                                    // valid log
	f.Add(valid[:len(valid)-70])                    // torn header or payload, wherever the cut lands
	f.Add(valid[:len(logMagic)+recHeaderLen-3])     // torn first header
	f.Add(valid[:len(logMagic)+recHeaderLen+10])    // torn first payload
	f.Add(flipped)                                  // CRC flip mid-log
	f.Add(withMagic(oversized))                     // oversized length fields
	f.Add(withMagic(encodeRecord("ghost", nil)))    // tombstone of an absent key
	f.Add(withMagic(encodeRecord("", []byte{1})))   // zero-length key
	f.Add(append(bytes.Clone(valid), valid[8:]...)) // every record twice

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := OpenLog(path)
		runtime.ReadMemStats(&after)
		// The index costs a few hundred bytes per live record and a live
		// record is at least 14 bytes of file; the constant covers the
		// runtime's own background allocation.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); grew > bound {
			t.Fatalf("OpenLog of %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return // not a log: rejected, which is the other allowed outcome
		}
		keys := s.Keys()
		for _, k := range keys {
			if v, ok, err := s.Get(k); err != nil || !ok || len(v) == 0 {
				t.Fatalf("indexed key %q: ok=%v err=%v len=%d", k, ok, err, len(v))
			}
		}
		st := s.Stats()
		if st.Entries != len(keys) || (len(data) > 0 && st.LogBytes+st.TruncatedBytes != int64(len(data))) {
			t.Fatalf("inconsistent replay of %d bytes: %+v", len(data), st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenLog(path)
		if err != nil {
			t.Fatalf("reopening an accepted log: %v", err)
		}
		defer s2.Close()
		if st2 := s2.Stats(); st2.TruncatedTail || st2.LogBytes != st.LogBytes || st2.Entries != st.Entries ||
			st2.LiveBytes != st.LiveBytes || st2.DeadBytes != st.DeadBytes {
			t.Fatalf("second open disagrees: first %+v, second %+v", st, st2)
		}
	})
}
