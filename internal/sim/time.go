// Package sim provides the deterministic simulation substrate shared by all
// Centurion subsystems: a tick-based clock with millisecond scaling, a
// seedable random number generator, and an event priority queue.
//
// All higher-level packages (the NoC fabric, processing elements, the AIM
// intelligence engines and the experiment harness) express time exclusively
// in Ticks so that a single constant controls the time resolution of the
// whole platform.
package sim

import "fmt"

// Tick is the unit of simulated time. One tick corresponds to one router
// cycle of the simulated fabric.
type Tick int64

// TicksPerMs is the default time resolution: how many simulation ticks make
// up one simulated millisecond. The paper quotes all experiment parameters in
// milliseconds (4 ms generation period, 20 ms FFW timeout, 500 ms fault
// injection, 1000 ms runs); this constant maps them onto router cycles.
const TicksPerMs = 10

// Ms converts a duration in simulated milliseconds to Ticks using the
// default resolution, rounding to the nearest tick. The explicit float64
// conversion rounds the product before the ±0.5, so arm64 cannot fuse the
// two into one multiply-add and round a client-supplied duration
// differently from amd64.
func Ms(ms float64) Tick {
	if ms < 0 {
		return Tick(float64(ms*TicksPerMs) - 0.5)
	}
	return Tick(float64(ms*TicksPerMs) + 0.5)
}

// Milliseconds reports the tick count as simulated milliseconds.
func (t Tick) Milliseconds() float64 { return float64(t) / TicksPerMs }

// String renders the tick with its millisecond equivalent, which makes
// traces and test failures readable.
func (t Tick) String() string {
	return fmt.Sprintf("%d(%.1fms)", int64(t), t.Milliseconds())
}

// Clock is a monotonically advancing simulation clock.
//
// The zero value is a clock at tick 0, ready to use.
type Clock struct {
	now Tick
}

// Now returns the current tick.
func (c *Clock) Now() Tick { return c.now }

// Advance moves the clock forward by d ticks and returns the new time.
// Advancing by a negative duration panics: simulated time never rewinds.
func (c *Clock) Advance(d Tick) Tick {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %d", d))
	}
	c.now += d
	return c.now
}

// Step advances the clock by exactly one tick and returns the new time.
func (c *Clock) Step() Tick { return c.Advance(1) }

// Reset rewinds the clock to tick zero. Only the experiment harness uses
// this, between independent runs.
func (c *Clock) Reset() { c.now = 0 }
