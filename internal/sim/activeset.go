package sim

import (
	"math/bits"
	"sync/atomic"
)

// ActiveSet tracks which members of a fixed-size, densely indexed population
// (routers, processing elements, intelligence engines) need attention on the
// current tick. It is the substrate of the platform's activity-tracked
// stepping core: instead of touching all N components every tick, the
// simulator sweeps only the marked ones. Membership is a bitmask, so a sweep
// over a quiet mesh costs a handful of word loads.
//
// Determinism contract: Sweep visits members in ascending index order — the
// same order the dense full scan uses — and a member marked during the sweep
// is visited in the same sweep when its index is above the cursor and in the
// next sweep otherwise. That reproduces exactly what the dense scan does: a
// component stimulated by a lower-indexed component reacts this tick, one
// stimulated by a higher-indexed component reacts next tick.
//
// Marking is idempotent and spurious marks are harmless by design: the
// platform's components treat an extra visit as the no-op tick the dense
// scan would have executed anyway.
type ActiveSet struct {
	// n is int64 (not int) so AddAtomic can maintain it with atomic.AddInt64
	// alongside the plain single-threaded mutators. It is the first field so
	// it is 64-bit aligned on 32-bit platforms too, as atomic.AddInt64
	// requires there.
	n     int64
	words []uint64
}

// NewActiveSet returns a set over indices [0, size).
func NewActiveSet(size int) *ActiveSet {
	return &ActiveSet{words: make([]uint64, (size+63)/64)}
}

// Add marks a member active. Adding an already-active member is a no-op.
func (s *ActiveSet) Add(id int) {
	w, b := id>>6, uint64(1)<<uint(id&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.n++
	}
}

// AddAtomic is Add for concurrent marking: safe against other AddAtomic
// calls on any member (the parallel tick kernel's workers stir PEs and
// engines from different goroutines). It must not race with the plain
// mutators — the platform only uses it while the tick barrier guarantees no
// Sweep/Remove/Clear runs. The fast path is a single atomic load, so marking
// an already-active member (the common case for repeated stirs within one
// tick) costs no contended write.
func (s *ActiveSet) AddAtomic(id int) {
	w, b := id>>6, uint64(1)<<uint(id&63)
	if atomic.LoadUint64(&s.words[w])&b != 0 {
		return
	}
	if atomic.OrUint64(&s.words[w], b)&b == 0 {
		atomic.AddInt64(&s.n, 1)
	}
}

// Remove unmarks a member. Removing an inactive member is a no-op.
func (s *ActiveSet) Remove(id int) {
	w, b := id>>6, uint64(1)<<uint(id&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.n--
	}
}

// Contains reports whether the member is marked active.
func (s *ActiveSet) Contains(id int) bool {
	return s.words[id>>6]&(uint64(1)<<uint(id&63)) != 0
}

// Len returns the number of active members.
func (s *ActiveSet) Len() int { return int(s.n) }

// Clear deactivates every member.
func (s *ActiveSet) Clear() {
	clear(s.words)
	s.n = 0
}

// Empty reports whether no member is active.
func (s *ActiveSet) Empty() bool { return s.n == 0 }

// Sweep visits every active member in ascending index order. visit returns
// whether the member stays active; returning false retires it. Members
// marked during the sweep at indices above the cursor are visited in this
// sweep; marks at or below the cursor (including re-marks of a member the
// sweep just retired) survive into the next sweep.
func (s *ActiveSet) Sweep(visit func(id int) (keep bool)) {
	for w := range s.words {
		// pending is re-read from the live word after every visit so members
		// marked mid-sweep above the cursor are picked up; bits at or below
		// the cursor stay set in the word for the next sweep.
		pending := s.words[w]
		for pending != 0 {
			b := bits.TrailingZeros64(pending)
			if !visit(w<<6 + b) {
				s.Remove(w<<6 + b)
			}
			pending = s.words[w] &^ (uint64(1)<<uint(b+1) - 1)
		}
	}
}
