package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// LogStore is the embedded durable backend: a single append-only log file
// plus an in-memory key→offset index rebuilt by replaying the log on open.
//
// Record layout (all integers little-endian):
//
//	u32 keyLen | u32 valLen | u32 crc32(key‖val) | key | val
//
// preceded once by an 8-byte file magic. Appends are synced before Put
// returns, so a record is either fully committed or — if the process died
// mid-append — recognisably torn: replay stops at the first short or
// checksum-failing record and truncates the file there, recovering every
// committed record bit-identically.
//
// Re-putting an existing key appends a superseding record (last one wins on
// replay), and deleting one appends a tombstone — a record with valLen==0,
// which is why Put rejects empty values. The space held by superseded and
// tombstoned records is reclaimed by compaction, which rewrites live records
// into a temp file and atomically renames it over the log. Compaction
// triggers automatically once dead bytes exceed both compactMinDead and the
// live payload size.
type LogStore struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64 // current log length (append offset)

	index map[string]recLoc
	live  int64 // sum of live value payload sizes
	dead  int64 // bytes held by superseded records (reclaimable)

	puts, deletes, hits, misses uint64
	compactions                 uint64
	lastCompaction              time.Time
	truncatedTail               bool
	truncatedBytes              int64 // bytes discarded by the last replay's truncation
}

// recLoc locates one live record in the log.
type recLoc struct {
	off    int64 // record start (keyLen field)
	valOff int64 // value payload start
	keyLen int32
	valLen int32
}

// recLen is the total on-disk length of the record at l.
func (l recLoc) recLen() int64 { return recHeaderLen + int64(l.keyLen) + int64(l.valLen) }

const (
	logMagic     = "CENSTOR1"
	recHeaderLen = 12 // keyLen + valLen + crc
	// maxKeyLen/maxValLen are replay sanity bounds: a length field beyond
	// them means a torn or corrupt record, not a huge value.
	maxKeyLen = 1 << 10
	maxValLen = 1 << 30
	// compactMinDead is the floor below which auto-compaction never runs —
	// rewriting a tiny log to save a few KB is churn, not reclamation.
	compactMinDead = 1 << 20
)

var errClosed = errors.New("store: log is closed")

// OpenLog opens (or creates) the log at path and replays it into memory.
func OpenLog(path string) (*LogStore, error) {
	// A crash between writing a compaction temp file and the atomic rename
	// leaves an orphaned .compact beside the log. The log itself is still
	// the authoritative, fully-committed copy — discard the orphan rather
	// than leave it to confuse (or collide with) the next compaction.
	_ = os.Remove(path + ".compact")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening log: %w", err)
	}
	s := &LogStore{path: path, f: f, index: make(map[string]recLoc)}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the log from the top, rebuilding the index and truncating a
// torn tail. Called with the store fresh or under s.mu.
func (s *LogStore) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat log: %w", err)
	}
	end := info.Size()

	if end == 0 {
		// Fresh log: stamp the magic.
		if _, err := s.f.WriteAt([]byte(logMagic), 0); err != nil {
			return fmt.Errorf("store: writing log magic: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing log magic: %w", err)
		}
		s.size = int64(len(logMagic))
		return nil
	}
	magic := make([]byte, len(logMagic))
	if _, err := s.f.ReadAt(magic, 0); err != nil || string(magic) != logMagic {
		return fmt.Errorf("store: %s is not a centurion result log", s.path)
	}

	off := int64(len(logMagic))
	hdr := make([]byte, recHeaderLen)
	var buf []byte
	for off < end {
		if off+recHeaderLen > end {
			break // torn: header ran off the end
		}
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("store: reading record header at %d: %w", off, err)
		}
		keyLen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		valLen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		sum := binary.LittleEndian.Uint32(hdr[8:12])
		if keyLen == 0 || keyLen > maxKeyLen || valLen > maxValLen ||
			off+recHeaderLen+keyLen+valLen > end {
			break // torn or corrupt lengths
		}
		n := keyLen + valLen
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := s.f.ReadAt(buf, off+recHeaderLen); err != nil {
			return fmt.Errorf("store: reading record at %d: %w", off, err)
		}
		if crc32.ChecksumIEEE(buf) != sum {
			break // torn mid-payload (the sync boundary is the whole record)
		}
		s.indexRecord(string(buf[:keyLen]), off, valLen)
		off += recHeaderLen + n
	}
	if off < end {
		s.truncatedTail = true
		s.truncatedBytes = end - off
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating torn tail at %d: %w", off, err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing truncation: %w", err)
		}
	}
	s.size = off
	return nil
}

// Get implements Store.
func (s *LogStore) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.index[key]
	if !ok {
		s.misses++
		return nil, false, nil
	}
	val := make([]byte, loc.valLen)
	if _, err := s.f.ReadAt(val, loc.valOff); err != nil {
		return nil, false, fmt.Errorf("store: reading value for %s: %w", key, err)
	}
	s.hits++
	return val, true, nil
}

// encodeRecord frames key→val as one log record; an empty val is a tombstone.
func encodeRecord(key string, val []byte) []byte {
	rec := make([]byte, recHeaderLen+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[recHeaderLen:], key)
	copy(rec[recHeaderLen+len(key):], val)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(rec[recHeaderLen:]))
	return rec
}

// indexRecord folds the record for key at off (valLen 0: a tombstone) into
// the index and the live/dead accounting, on replay and on append alike.
func (s *LogStore) indexRecord(key string, off, valLen int64) {
	if old, ok := s.index[key]; ok {
		s.dead += old.recLen()
		s.live -= int64(old.valLen)
		delete(s.index, key)
	}
	keyLen := int64(len(key))
	if valLen == 0 {
		// The key is gone, and the tombstone record itself is immediately
		// reclaimable.
		s.dead += recHeaderLen + keyLen
		return
	}
	s.index[key] = recLoc{off: off, valOff: off + recHeaderLen + keyLen, keyLen: int32(keyLen), valLen: int32(valLen)}
	s.live += valLen
}

// appendLocked is the one write path: append key's encoded record, sync it,
// index it, count it, and compact if the log is now mostly dead weight.
// Callers hold s.mu on an open store and have validated the key.
func (s *LogStore) appendLocked(key string, rec []byte, count *uint64) error {
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing record: %w", err)
	}
	s.indexRecord(key, s.size, int64(len(rec)-len(key))-recHeaderLen)
	s.size += int64(len(rec))
	*count++
	if s.dead > compactMinDead && s.dead > s.live {
		return s.compactLocked()
	}
	return nil
}

// Put implements Store: one synced append, then an index update. A key
// already present is superseded in place (its old record becomes dead
// weight for the next compaction).
func (s *LogStore) Put(key string, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range [1, %d]", len(key), maxKeyLen)
	}
	if len(val) == 0 {
		return fmt.Errorf("store: empty values are reserved as delete tombstones")
	}
	if len(val) > maxValLen {
		return fmt.Errorf("store: value length %d exceeds %d", len(val), maxValLen)
	}
	rec := encodeRecord(key, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	return s.appendLocked(key, rec, &s.puts)
}

// Delete implements Store: a synced tombstone append (valLen==0), then the
// key drops out of the index. Deleting an absent key writes nothing.
func (s *LogStore) Delete(key string) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range [1, %d]", len(key), maxKeyLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	return s.appendLocked(key, encodeRecord(key, nil), &s.deletes)
}

// Keys returns every live key in sorted order: the iteration a client that
// keeps structured state in the log (the dispatch journal) replays from.
func (s *LogStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keysLocked()
}

// keysLocked is Keys for callers holding s.mu.
func (s *LogStore) keysLocked() []string {
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Compact implements Store: rewrite live records (in sorted key order, so
// the compacted log is deterministic) into a temp file and rename it over
// the log.
func (s *LogStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	return s.compactLocked()
}

// compactLocked does the rewrite. Callers hold s.mu.
func (s *LogStore) compactLocked() error {
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating compaction file: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.WriteAt([]byte(logMagic), 0); err != nil {
		cleanup()
		return fmt.Errorf("store: writing compaction magic: %w", err)
	}
	newIndex := make(map[string]recLoc, len(s.index))
	off := int64(len(logMagic))
	for _, key := range s.keysLocked() {
		loc := s.index[key]
		val := make([]byte, loc.valLen)
		if _, err := s.f.ReadAt(val, loc.valOff); err != nil {
			cleanup()
			return fmt.Errorf("store: compaction read for %s: %w", key, err)
		}
		rec := encodeRecord(key, val)
		if _, err := tmp.WriteAt(rec, off); err != nil {
			cleanup()
			return fmt.Errorf("store: compaction write for %s: %w", key, err)
		}
		newIndex[key] = recLoc{off: off, valOff: off + recHeaderLen + int64(len(key)), keyLen: loc.keyLen, valLen: loc.valLen}
		off += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: syncing compaction file: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		cleanup()
		return fmt.Errorf("store: installing compacted log: %w", err)
	}
	// Sync the directory so the rename itself survives a crash.
	if dir, err := os.Open(filepath.Dir(s.path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	s.f.Close()
	s.f = tmp
	s.index = newIndex
	s.size = off
	s.dead = 0
	s.compactions++
	s.lastCompaction = time.Now()
	return nil
}

// Stats implements Store.
func (s *LogStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Entries:        len(s.index),
		LiveBytes:      s.live,
		LogBytes:       s.size,
		DeadBytes:      s.dead,
		Puts:           s.puts,
		Deletes:        s.deletes,
		Hits:           s.hits,
		Misses:         s.misses,
		Compactions:    s.compactions,
		LastCompaction: s.lastCompaction,
		TruncatedTail:  s.truncatedTail,
		TruncatedBytes: s.truncatedBytes,
	}
	if s.size > 0 {
		st.DeadRatio = float64(s.dead) / float64(s.size)
	}
	return st
}

// Close implements Store.
func (s *LogStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
