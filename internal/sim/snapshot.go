package sim

import (
	"fmt"
	"math/bits"

	"centurion/internal/wire"
)

// Checkpoint support (DESIGN.md §15). The sim primitives expose just enough
// of their internals for a platform snapshot to capture and rewind them:
// raw RNG state, absolute clock position, and active-set membership. The
// event queue is deliberately NOT snapshottable — it holds closures — so
// restore paths rebuild pending events from higher-level records instead.

// Resize returns s resized to n elements, reallocating only when its
// capacity is short: repeated snapshots into one checkpoint, and restores
// into one platform, stop allocating once warm.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// State returns the generator's raw internal state. Together with SetState
// it allows a stream to be captured and replayed bit-identically.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds the generator to a state previously returned by State.
func (r *RNG) SetState(s uint64) { r.state = s }

// SetNow moves the clock to an absolute tick. Unlike Advance it may move
// time backwards; it exists only for checkpoint restore.
func (c *Clock) SetNow(t Tick) { c.now = t }

// ActiveSetState is a deep copy of an ActiveSet's membership, suitable for
// storing in a checkpoint and restoring into any same-sized set.
type ActiveSetState struct {
	Words []uint64
	N     int64
}

// SaveState copies the set's membership into st, reusing st's backing
// storage when it is large enough.
func (s *ActiveSet) SaveState(st *ActiveSetState) {
	st.Words = append(st.Words[:0], s.words...)
	st.N = s.n
}

// LoadState overwrites the set's membership from st, which must hold a
// membership of the set's size (see ActiveSetState.Check).
func (s *ActiveSet) LoadState(st *ActiveSetState) {
	copy(s.words, st.Words)
	s.n = st.N
}

// Check reports why st is not the membership of a size-member set, or nil
// when it is: one word per 64 members, no member at or above size (a sweep
// would visit it), and N the number of members.
func (st *ActiveSetState) Check(size int) error {
	if len(st.Words) != (size+63)/64 {
		return fmt.Errorf("sim: active set holds %d words for %d members", len(st.Words), size)
	}
	n := 0
	for i, w := range st.Words {
		if hi := size - 64*i; hi < 64 && w>>uint(hi) != 0 {
			return fmt.Errorf("sim: active set marks a member at or above %d", size)
		}
		n += bits.OnesCount64(w)
	}
	if int64(n) != st.N {
		return fmt.Errorf("sim: active set counts %d members but marks %d", st.N, n)
	}
	return nil
}

// AppendBinary appends the membership: a u32 word count, the words and N.
func (st *ActiveSetState) AppendBinary(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(st.Words)))
	for _, w := range st.Words {
		b = wire.AppendU64(b, w)
	}
	return wire.AppendI64(b, st.N)
}

// DecodeBinary reads a membership written by AppendBinary into st, reusing
// its backing.
func (st *ActiveSetState) DecodeBinary(r *wire.Reader) {
	st.Words = Resize(st.Words, r.Count(8))
	for i := range st.Words {
		st.Words[i] = r.U64()
	}
	st.N = r.I64()
}

// BinaryLen is the exact length of st's encoding.
func (st *ActiveSetState) BinaryLen() int { return 4 + 8*len(st.Words) + 8 }
