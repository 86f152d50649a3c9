// Package sim provides a deterministic discrete-event simulation engine
// used by every other subsystem in the repository. Time is measured in
// integer picoseconds so that sub-nanosecond hardware latencies (cache hits,
// controller messages) and multi-second experiment horizons fit in the same
// int64 without floating-point drift.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulation timestamp in picoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// DefaultClockHz is the core clock frequency of the modeled processor
// (Table 1: 36 cores at 3 GHz).
const DefaultClockHz = 3_000_000_000

// Cycles converts a cycle count at the default 3 GHz clock into a Duration.
func Cycles(n int64) Duration {
	return CyclesAt(n, DefaultClockHz)
}

// CyclesAt converts a cycle count at an arbitrary clock frequency into a
// Duration, rounding to the nearest picosecond.
func CyclesAt(n int64, hz int64) Duration {
	if hz <= 0 {
		panic("sim: non-positive clock frequency")
	}
	// picoseconds per cycle = 1e12 / hz, computed without overflow for the
	// cycle counts used in practice (n up to ~1e9).
	return Duration(n * 1_000_000_000_000 / hz)
}

// ToCycles converts a Duration to whole cycles at the default clock,
// rounding down.
func (d Duration) ToCycles() int64 {
	return int64(d) * DefaultClockHz / 1_000_000_000_000
}

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds reports the duration as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Std converts a simulated Duration to a time.Duration (nanosecond
// resolution; sub-nanosecond information is truncated).
func (d Duration) Std() time.Duration { return time.Duration(int64(d) / int64(Nanosecond)) }

// maxSpan bounds the spans FromMilliseconds accepts: 2^62 ps, about 53
// simulated days. Every horizon a run can reach lies below it too (it is
// Engine.RunAll's "forever"), so adding an accepted span to a reachable
// time stays inside int64 and can never wrap into a negative delay.
const maxSpan = Duration(1 << 62)

// FromMilliseconds converts a user-supplied span in milliseconds to a
// Duration. It reports false when the value is NaN or its picosecond count
// reaches maxSpan in either direction, where a plain conversion would wrap
// (1e10 ms is 1e22 ps, past int64).
func FromMilliseconds(ms float64) (Duration, bool) {
	ps := ms * float64(Millisecond)
	if !(ps > -float64(maxSpan) && ps < float64(maxSpan)) {
		return 0, false
	}
	return Duration(ps), true
}

// Span converts a non-negative picosecond count to a Duration, saturating
// at maxSpan where a plain conversion would wrap negative (NaN saturates
// too). Model code that scales a duration by a factor or a rate uses it,
// so an extreme product delays an event past every horizon instead of
// wrapping into a negative delay.
func Span(ps float64) Duration {
	if !(ps < float64(maxSpan)) {
		return maxSpan
	}
	return Duration(ps)
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Seconds reports the timestamp as floating-point seconds since simulation
// start.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }

func (t Time) String() string {
	return fmt.Sprintf("t=%.3fus", Duration(t).Microseconds())
}

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}
