package thermal

// Checkpoint support (DESIGN.md §15). Only the temperature field and the
// per-node work counters from the previous sample are mutable run state;
// the scratch buffer Step writes into is fully overwritten before each
// swap, and the neighbour memo is construction-derived.

// State is a deep copy of a thermal model's mutable state.
type State struct {
	Temp []float64
	Last []uint64
}

// SaveState copies the model's mutable state into st, reusing st's backing.
func (m *Model) SaveState(st *State) {
	st.Temp = append(st.Temp[:0], m.temp...)
	st.Last = append(st.Last[:0], m.last...)
}

// LoadState restores the model from st, which must cover the model's node
// count (Platform.Restore checks it).
func (m *Model) LoadState(st *State) {
	copy(m.temp, st.Temp)
	copy(m.last, st.Last)
}
