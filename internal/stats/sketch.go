package stats

import (
	"fmt"
	"math"
)

// sketchSubBits is the log-linear precision of Sketch: every power of two is
// split into 2^sketchSubBits sub-buckets, bounding the relative quantile
// error at 2^-sketchSubBits (~1.6%).
const sketchSubBits = 6

// SketchRelativeError is the worst-case relative error of an interior
// Sketch quantile: a bucket's upper edge overstates a value inside it by at
// most this fraction.
const SketchRelativeError = 1.0 / (1 << sketchSubBits)

// Sketch is a bounded-memory mergeable quantile sketch over non-negative
// float64 samples: an HDR-style log-linear histogram whose buckets come
// straight from the IEEE-754 bit pattern. For positive floats the bit
// pattern is monotone, so `bits >> (52-subBits)` keeps the exponent and the
// top sub-bucket bits of the mantissa — a monotone O(1) bucketing with
// bounded relative width and no branches or logarithms.
//
// Memory is proportional to the spanned value range (2^sketchSubBits
// buckets per power of two, allocated lazily as a dense window over the
// populated range), not to the sample count: a fleet of thousands of
// servers records forever in flat memory, where the exact Recorder grows
// per sample. Count, sum, min, and max are tracked exactly outside the
// buckets, so Mean and the q=0 / q=1 endpoints carry no quantization error.
//
// Merging is bucket-wise counter addition — exactly associative and
// commutative — which is what lets per-shard sketches fold into fleet-level
// aggregates in any grouping without changing any quantile.
type Sketch struct {
	counts []uint64 // dense window; counts[i] covers global bucket base+i
	base   int      // global index of counts[0]
	// buf backs counts with headroom on both sides: counts is
	// buf[lo:lo+len(counts)], and every slot of buf outside it is zero.
	buf   []uint64
	lo    int
	count uint64
	sum   float64
	min   float64
	max   float64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{min: math.Inf(1), max: math.Inf(-1)}
}

// sketchBucket maps a sample to its global bucket index. Negative and NaN
// samples clamp to bucket zero (latencies are non-negative; the clamp
// mirrors the exact recorders' treatment of degenerate input).
func sketchBucket(v float64) int {
	if !(v > 0) {
		return 0
	}
	return int(math.Float64bits(v) >> (52 - sketchSubBits))
}

// sketchUpper reports the largest float64 mapping into global bucket i (the
// conservative quantile estimate).
func sketchUpper(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Float64frombits(uint64(i+1)<<(52-sketchSubBits) - 1)
}

// Add records one sample in O(1); the bucket window grows only when a
// sample lands outside the populated value range.
func (s *Sketch) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := sketchBucket(v)
	s.bump(i, 1)
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// bump adds n to global bucket i, growing the dense window to reach it.
func (s *Sketch) bump(i int, n uint64) {
	switch {
	case len(s.counts) == 0:
		if len(s.buf) == 0 {
			s.buf = make([]uint64, 1<<sketchSubBits)
		}
		s.base, s.lo = i, len(s.buf)/2
		s.counts = s.buf[s.lo : s.lo+1]
	case i < s.base:
		s.widen(i, s.base+len(s.counts))
	case i >= s.base+len(s.counts):
		s.widen(s.base, i+1)
	}
	s.counts[i-s.base] += n
}

// widen grows the window to cover global buckets [first, end), a superset
// of the current window. It takes the headroom buf has on either side;
// without enough, it moves the window to the middle of a fresh buf twice
// the new window's length, so samples walking outward in either direction
// reallocate O(log n) times for a window of n buckets.
func (s *Sketch) widen(first, end int) {
	lo := s.lo - (s.base - first)
	if lo < 0 || lo+end-first > len(s.buf) {
		n := end - first
		buf := make([]uint64, 2*n)
		lo = n / 2
		copy(buf[lo+s.base-first:], s.counts)
		s.buf = buf
	}
	s.base, s.lo = first, lo
	s.counts = s.buf[lo : lo+end-first]
}

// Count reports recorded samples.
func (s *Sketch) Count() int { return int(s.count) }

// Sum reports the exact sum of recorded samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean reports the exact arithmetic mean, or 0 with no samples.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min reports the smallest sample, or 0 with no samples.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest sample, or 0 with no samples.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile reports the q-quantile as the upper edge of the bucket holding
// the target rank, clamped to the recorded extremes. Edge semantics match
// the exact recorders and obs.LatencyHist: q <= 0 reports the exact
// minimum, q >= 1 or NaN reports the exact maximum, and an empty sketch
// reports 0 for every q. Interior quantiles overstate the true value by at
// most SketchRelativeError.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 || math.IsNaN(q) {
		return s.max
	}
	target := uint64(q * float64(s.count))
	if target >= s.count {
		return s.max
	}
	var seen uint64
	for i, c := range s.counts {
		seen += c
		if seen > target {
			u := sketchUpper(s.base + i)
			if u > s.max {
				u = s.max
			}
			if u < s.min {
				u = s.min
			}
			return u
		}
	}
	return s.max
}

// P50 reports the median estimate.
func (s *Sketch) P50() float64 { return s.Quantile(0.50) }

// P99 reports the 99th-percentile estimate.
func (s *Sketch) P99() float64 { return s.Quantile(0.99) }

// Merge folds other into s: bucket counts add, extremes and sums combine.
// Bucket-wise addition is exactly associative and commutative, so any
// merge tree over the same sketches yields identical bucket contents,
// counts, and quantiles (the floating-point sum — and therefore Mean — is
// reproducible for a fixed merge order).
func (s *Sketch) Merge(other *Sketch) {
	for i, c := range other.counts {
		if c != 0 {
			s.bump(other.base+i, c)
		}
	}
	s.count += other.count
	s.sum += other.sum
	if other.count > 0 {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
}

// Reset discards all samples but keeps the bucket window's capacity.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.counts = s.counts[:0]
	s.count = 0
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Buckets reports the populated window size, for memory accounting in
// tests: it stays flat as the sample count grows.
func (s *Sketch) Buckets() int { return len(s.counts) }

// String renders the standard compact summary.
func (s *Sketch) String() string {
	return fmt.Sprintf("n=%d mean=%g p50=%g p99=%g max=%g",
		s.count, s.Mean(), s.P50(), s.P99(), s.Max())
}
