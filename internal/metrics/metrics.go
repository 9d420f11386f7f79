// Package metrics provides the measurement machinery of the experiment
// harness: windowed time series, quartile summaries, and the settling- and
// recovery-time detectors used to reproduce the paper's Tables I and II.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Series is a fixed-window time series: Values[i] is the metric aggregated
// over window i, each WindowMs milliseconds long.
type Series struct {
	WindowMs float64
	Values   []float64
}

// NewSeries allocates a series of n windows.
func NewSeries(windowMs float64, n int) *Series {
	return &Series{WindowMs: windowMs, Values: make([]float64, n)}
}

// SeriesPool recycles Series values between runs: a sweep executing
// thousands of runs reuses a handful of window buffers instead of
// allocating three per run. The zero value is ready to use; it is safe for
// concurrent use (RunMany workers share one pool).
type SeriesPool struct{ pool sync.Pool }

// Get returns a zeroed series of n windows, reusing a recycled one's buffer
// when capacity allows.
func (sp *SeriesPool) Get(windowMs float64, n int) *Series {
	v := sp.pool.Get()
	if v == nil {
		return NewSeries(windowMs, n)
	}
	s := v.(*Series)
	s.WindowMs = windowMs
	if cap(s.Values) < n {
		s.Values = make([]float64, n)
		return s
	}
	s.Values = s.Values[:n]
	for i := range s.Values {
		s.Values[i] = 0
	}
	return s
}

// Put recycles a series whose readers are done with it; the series (and its
// Values slice) must not be used afterwards. nil is ignored.
func (sp *SeriesPool) Put(s *Series) {
	if s == nil {
		return
	}
	sp.pool.Put(s)
}

// Len returns the number of windows.
func (s *Series) Len() int { return len(s.Values) }

// MeanRange returns the mean of Values[from:to) (clamped to valid bounds);
// it returns 0 for an empty range.
func (s *Series) MeanRange(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s.Values) {
		to = len(s.Values)
	}
	if from >= to {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

// MovingAverage returns the centred moving average of xs with half-width k
// (window 2k+1, truncated at the edges).
func MovingAverage(xs []float64, k int) []float64 {
	return MovingAverageInto(nil, xs, k)
}

// MovingAverageInto is MovingAverage writing into dst (grown as needed and
// returned), so callers with a reusable scratch buffer avoid the per-call
// allocation. dst must not alias xs.
func MovingAverageInto(dst, xs []float64, k int) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	out := dst[:len(xs)]
	if k <= 0 {
		copy(out, xs)
		return out
	}
	for i := range xs {
		lo, hi := i-k, i+k+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(xs) {
			hi = len(xs)
		}
		sum := 0.0
		for _, v := range xs[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, v := range xs {
		d := v - m
		sum += float64(d * d) // rounded before the add: no fused multiply-add on arm64
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// MeanCI returns the mean of xs and the half-width of its 95% confidence
// interval under the normal approximation (1.96·s/√n). The half-width is 0
// for fewer than two samples.
func MeanCI(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) >= 2 {
		halfWidth = 1.96 * Stddev(xs) / math.Sqrt(float64(len(xs)))
	}
	return mean, halfWidth
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics (the R-7 method used by most
// statistics packages). It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("metrics: percentile of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	// The float64 conversions round each product before the subtraction or
	// addition that follows, so arm64 computes the amd64 quantile bit for bit.
	h := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + float64(frac*(sorted[lo+1]-sorted[lo]))
}

// Summary holds the quartiles the paper reports (Q1/Q2/Q3 = 25th, 50th,
// 75th percentiles).
type Summary struct {
	Q1, Q2, Q3 float64
}

// Quartiles returns the three quartiles of xs.
func Quartiles(xs []float64) Summary {
	return Summary{
		Q1: Percentile(xs, 0.25),
		Q2: Percentile(xs, 0.50),
		Q3: Percentile(xs, 0.75),
	}
}

// String renders "Q1/Q2/Q3" rounded to integers.
func (s Summary) String() string {
	return fmt.Sprintf("%.0f/%.0f/%.0f", s.Q1, s.Q2, s.Q3)
}
