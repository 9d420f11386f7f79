package sim

// RNG is a small, fast, deterministic random number generator
// (SplitMix64-based) used everywhere the simulator needs randomness.
//
// It is deliberately independent of math/rand so that results are bit-stable
// across Go releases: the experiment tables in EXPERIMENTS.md are
// reproducible from a seed alone.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so that small seeds (0, 1, 2...) still diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Reseed rewinds the generator to the exact state NewRNG(seed) produces, so
// a reused generator replays the same stream a fresh one would.
func (r *RNG) Reseed(seed uint64) {
	r.state = seed
	r.Uint64()
	r.Uint64()
}

// Uint64 returns the next 64 random bits (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire-style rejection-free bound is unnecessary here; modulo bias is
	// negligible for the small n used by the simulator, but we still mask it
	// away with rejection sampling to keep property tests honest.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
