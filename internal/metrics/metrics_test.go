package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolated case: median of an even-length slice.
	if got := Percentile([]float64{1, 2, 3, 4}, 0.5); !almost(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty input")
		}
	}()
	Percentile(nil, 0.5)
}

func TestQuartilesSummary(t *testing.T) {
	s := Quartiles([]float64{10, 20, 30, 40, 50})
	if !almost(s.Q1, 20) || !almost(s.Q2, 30) || !almost(s.Q3, 40) {
		t.Errorf("Quartiles = %+v", s)
	}
	if got := s.String(); got != "20/30/40" {
		t.Errorf("String = %q", got)
	}
}

// Property: quartiles are ordered and bounded by the sample extremes.
func TestQuartilesProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		q := Quartiles(xs)
		return q.Q1 <= q.Q2 && q.Q2 <= q.Q3 && q.Q1 >= lo && q.Q3 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{0, 0, 9, 0, 0}
	out := MovingAverage(xs, 1)
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if !almost(out[i], want[i]) {
			t.Fatalf("MovingAverage = %v, want %v", out, want)
		}
	}
	// k=0 copies.
	same := MovingAverage(xs, 0)
	same[0] = 99
	if xs[0] == 99 {
		t.Error("k=0 moving average aliases input")
	}
}

func TestSeriesMeanRange(t *testing.T) {
	s := NewSeries(1, 10)
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	if got := s.MeanRange(2, 4); !almost(got, 2.5) {
		t.Errorf("MeanRange(2,4) = %v", got)
	}
	if got := s.MeanRange(-5, 100); !almost(got, 4.5) {
		t.Errorf("clamped MeanRange = %v", got)
	}
	if got := s.MeanRange(5, 5); got != 0 {
		t.Errorf("empty MeanRange = %v", got)
	}
}

func TestSettlingTimeStep(t *testing.T) {
	// Ramp for 20 windows, then steady at 10.
	s := NewSeries(1, 100)
	for i := range s.Values {
		switch {
		case i < 20:
			s.Values[i] = float64(i) / 2
		default:
			s.Values[i] = 10
		}
	}
	ms, ok := SettlingTime(s, 0, 100, DefaultSettleParams())
	if !ok {
		t.Fatal("step series did not settle")
	}
	if ms < 10 || ms > 30 {
		t.Errorf("settling time = %v ms, want ~20 (ramp end)", ms)
	}
}

func TestSettlingTimeImmediate(t *testing.T) {
	s := NewSeries(1, 50)
	for i := range s.Values {
		s.Values[i] = 6.5
	}
	ms, ok := SettlingTime(s, 0, 50, DefaultSettleParams())
	if !ok || ms != 0 {
		t.Errorf("flat series settling = %v,%v, want 0,true", ms, ok)
	}
}

func TestSettlingTimeNoisyButSettled(t *testing.T) {
	s := NewSeries(1, 200)
	for i := range s.Values {
		base := 10.0
		if i < 50 {
			base = float64(i) / 5
		}
		// Deterministic +-0.5 noise.
		noise := 0.5 * float64((i%3)-1)
		s.Values[i] = base + noise
	}
	ms, ok := SettlingTime(s, 0, 200, DefaultSettleParams())
	if !ok {
		t.Fatal("noisy series did not settle")
	}
	if ms < 30 || ms > 70 {
		t.Errorf("settling = %v, want near 50", ms)
	}
}

func TestSettlingSegmentOffset(t *testing.T) {
	// Recovery-style detection: drop at window 100, recovery by 130.
	s := NewSeries(1, 200)
	for i := range s.Values {
		switch {
		case i < 100:
			s.Values[i] = 10
		case i < 130:
			s.Values[i] = 10 - float64(130-i)/6
		default:
			s.Values[i] = 9
		}
	}
	ms, ok := SettlingTime(s, 100, 200, DefaultSettleParams())
	if !ok {
		t.Fatal("recovery segment did not settle")
	}
	if ms < 15 || ms > 45 {
		t.Errorf("recovery time = %v ms, want ~30", ms)
	}
}

func TestSettlingNeverSettles(t *testing.T) {
	// A series that oscillates hugely right to the end.
	s := NewSeries(1, 100)
	for i := range s.Values {
		if i%2 == 0 {
			s.Values[i] = 0
		} else {
			s.Values[i] = 100
		}
	}
	par := DefaultSettleParams()
	par.Smooth = 0
	_, ok := SettlingTime(s, 0, 100, par)
	if ok {
		t.Error("wild oscillation reported as settled")
	}
}

func TestSettlingDegenerateSegment(t *testing.T) {
	s := NewSeries(1, 10)
	if _, ok := SettlingTime(s, 9, 10, DefaultSettleParams()); ok {
		t.Error("single-window segment settled")
	}
	if _, ok := SettlingTime(s, 8, 3, DefaultSettleParams()); ok {
		t.Error("inverted segment settled")
	}
}

// Property: settling time is always within the segment bounds.
func TestSettlingBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		s := NewSeries(1, len(raw))
		for i, r := range raw {
			s.Values[i] = float64(r)
		}
		ms, _ := SettlingTime(s, 0, s.Len(), DefaultSettleParams())
		return ms >= 0 && ms <= float64(s.Len())*s.WindowMs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
