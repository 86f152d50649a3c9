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
// Memory is proportional to the populated value range, not to the sample
// count: each power of two that holds a sample gets one page of
// 2^sketchSubBits bucket counters, so a fleet of thousands of servers
// records forever in flat memory, where the exact Recorder grows per
// sample. A page never moves once given out: a new extreme adds a page and,
// at most, copies the page table's pointers. Count, sum, min, and max are
// tracked exactly outside the buckets, so Mean and the q=0 / q=1 endpoints
// carry no quantization error.
//
// Merging is bucket-wise counter addition — exactly associative and
// commutative — which is what lets per-shard sketches fold into fleet-level
// aggregates in any grouping without changing any quantile.
type Sketch struct {
	// pages[k] holds the buckets of power of two base+k (global bucket
	// index >> sketchSubBits), or is nil where no sample has landed.
	pages []*sketchPage
	base  int
	// lo and hi are the lowest and highest populated global buckets;
	// lo > hi when the sketch is empty.
	lo, hi int
	// spare is the part of the newest page block not yet given out, and
	// carved the number of pages given out so far.
	spare  []sketchPage
	carved int
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// sketchPage counts the 2^sketchSubBits buckets of one power of two.
type sketchPage [1 << sketchSubBits]uint64

// sketchTable is the length of a sketch's first page table: enough powers
// of two for a latency distribution's body and tails, so most sketches
// never widen it. At 15 pointers, a sketchFirst plus the 8 B header the Go
// runtime puts on a pointer-holding object over 512 B fills the 1152 B size
// class exactly; at 16 it would round up to 1280 B.
const sketchTable = 15

// sketchFirst is a sketch's first allocation: its first page table and its
// first block of pages in one object, so a sketch that never widens its
// table allocates no more often than one holding its table inline. (A
// table allocated on its own cost 13–64 more allocs/op on every
// BenchmarkScenarioRun scenario, policy-ab's 2782 past the dense window's
// 2780, and 1.7% more allocs_per_req on bench/'s fleet-wide workload.)
type sketchFirst struct {
	table [sketchTable]*sketchPage
	pages [2]sketchPage
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{lo: math.MaxInt, hi: -1, min: math.Inf(1), max: math.Inf(-1)}
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

// Add records one sample in O(1); it allocates only when the sample lands
// in a power of two no earlier sample reached.
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

// bump adds n to global bucket i, giving its power of two a page first if
// it has none.
func (s *Sketch) bump(i int, n uint64) {
	pg := s.page(i >> sketchSubBits)
	if pg == nil {
		pg = s.addPage(i >> sketchSubBits)
	}
	pg[i&(1<<sketchSubBits-1)] += n
	if i < s.lo {
		s.lo = i
	}
	if i > s.hi {
		s.hi = i
	}
}

// page returns the page of power of two p, or nil if it has none.
func (s *Sketch) page(p int) *sketchPage {
	if k := p - s.base; uint(k) < uint(len(s.pages)) {
		return s.pages[k]
	}
	return nil
}

// addPage gives power of two p a zeroed page, carved from the newest block.
// The first block comes with the first page table (sketchFirst); each later
// block holds half as many pages as were given out before it (at least
// two), so a sketch of n pages allocates O(log n) blocks and never more
// than twice the pages it uses.
func (s *Sketch) addPage(p int) *sketchPage {
	switch k := p - s.base; {
	case s.pages == nil:
		first := new(sketchFirst)
		s.pages, s.base, s.spare = first.table[:], p-sketchTable/2, first.pages[:]
	case k < 0 || k >= len(s.pages):
		s.widen(p)
	}
	if len(s.spare) == 0 {
		s.spare = make([]sketchPage, max(2, s.carved/2))
	}
	pg := &s.spare[0]
	s.spare = s.spare[1:]
	s.carved++
	s.pages[p-s.base] = pg
	return pg
}

// widen moves the page table to a fresh one twice the length of the span
// it must cover (the old table plus power of two p), with the old entries
// in the middle. Only the pointers are copied, so a sketch walking outward
// in either direction copies O(log n) tables of a few pointers each.
func (s *Sketch) widen(p int) {
	first, end := min(p, s.base), max(p+1, s.base+len(s.pages))
	n := end - first
	pages := make([]*sketchPage, 2*n)
	base := first - n/2
	copy(pages[s.base-base:], s.pages)
	s.pages, s.base = pages, base
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
	for p := s.lo >> sketchSubBits; p <= s.hi>>sketchSubBits; p++ {
		pg := s.page(p)
		if pg == nil {
			continue
		}
		for j, c := range pg {
			seen += c
			if seen > target {
				u := sketchUpper(p<<sketchSubBits + j)
				if u > s.max {
					u = s.max
				}
				if u < s.min {
					u = s.min
				}
				return u
			}
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
	for p := other.lo >> sketchSubBits; p <= other.hi>>sketchSubBits; p++ {
		pg := other.page(p)
		if pg == nil {
			continue
		}
		for j, c := range pg {
			if c != 0 {
				s.bump(p<<sketchSubBits+j, c)
			}
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

// Reset discards all samples but keeps the pages, so recording over the
// same value range again allocates nothing.
func (s *Sketch) Reset() {
	for p := s.lo >> sketchSubBits; p <= s.hi>>sketchSubBits; p++ {
		if pg := s.page(p); pg != nil {
			*pg = sketchPage{}
		}
	}
	s.lo, s.hi = math.MaxInt, -1
	s.count = 0
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Buckets reports the span of populated buckets, lowest to highest, for
// memory accounting in tests: it stays flat as the sample count grows.
func (s *Sketch) Buckets() int {
	if s.lo > s.hi {
		return 0
	}
	return s.hi - s.lo + 1
}

// String renders the standard compact summary.
func (s *Sketch) String() string {
	return fmt.Sprintf("n=%d mean=%g p50=%g p99=%g max=%g",
		s.count, s.Mean(), s.P50(), s.P99(), s.Max())
}
