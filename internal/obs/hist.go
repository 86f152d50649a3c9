package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"hardharvest/internal/sim"
)

// histSubBits is the log-linear sub-bucket precision: 2^histSubBits
// sub-buckets per power of two, bounding the quantile error at ~3%.
const histSubBits = 5

// histFirstCap is the size of a histogram's first bucket array: two
// octaves, so nearby latencies do not regrow it at once.
const histFirstCap = 2 << histSubBits

// LatencyHist is an HDR-style log-bucketed latency histogram over simulated
// durations (integer picoseconds): values below 2^histSubBits are exact;
// above that, each power of two is split into 2^histSubBits sub-buckets.
// Recording is O(1) and allocation-free after the bucket array stops
// growing. The bucket array is dense but starts at the lowest populated
// bucket, so the always-empty buckets below the smallest latency are never
// allocated or copied.
type LatencyHist struct {
	buckets []uint64 // buckets[i] counts bucket off+i
	off     int
	count   uint64
	sum     sim.Duration
	min     sim.Duration
	max     sim.Duration
}

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{min: -1}
}

// bucketOf maps a non-negative value to its bucket index; the mapping is
// monotone so quantiles come from a prefix walk.
func bucketOf(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits
	return exp<<histSubBits + int(v>>uint(exp))
}

// bucketUpper reports the largest value mapping into bucket i (the
// conservative quantile estimate).
func bucketUpper(i int) sim.Duration {
	if i < 1<<histSubBits {
		return sim.Duration(i)
	}
	exp := uint(i>>histSubBits) - 1
	sub := int64(i & (1<<histSubBits - 1))
	base := (int64(1)<<histSubBits + sub) << exp
	return sim.Duration(base + (1 << exp) - 1)
}

// Record adds one latency (negative values clamp to zero).
func (h *LatencyHist) Record(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketOf(int64(d))
	if i < h.off || i >= h.off+len(h.buckets) {
		h.cover(i, i+1)
	}
	h.buckets[i-h.off]++
	h.count++
	h.sum += d
	if h.min < 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// cover extends the bucket array to hold buckets [lo, hi). The backing
// array grows geometrically, so a run of ever-larger maxima (or
// ever-smaller minima) reallocates O(log n) times: growth upward keeps its
// spare capacity past the end, and growth downward places it below the new
// lowest bucket. Buckets past len are never written, so they are still
// zero when a later cover takes them in. The first array holds
// histFirstCap buckets, a quarter of them below the first one covered.
func (h *LatencyHist) cover(lo, hi int) {
	if len(h.buckets) == 0 {
		lo = max(0, lo-histFirstCap/4)
		h.buckets, h.off = make([]uint64, hi-lo, max(hi-lo, histFirstCap)), lo
		return
	}
	end := h.off + len(h.buckets)
	lo, hi = min(lo, h.off), max(hi, end)
	if lo == h.off && hi-lo <= cap(h.buckets) {
		h.buckets = h.buckets[:hi-lo]
		return
	}
	n := max(hi-lo, 2*cap(h.buckets))
	if lo < h.off {
		lo = max(0, hi-n)
	}
	grown := make([]uint64, hi-lo, n)
	copy(grown[h.off-lo:], h.buckets)
	h.buckets, h.off = grown, lo
}

// Count reports recorded samples.
func (h *LatencyHist) Count() uint64 { return h.count }

// Min reports the smallest recorded latency (0 when empty).
func (h *LatencyHist) Min() sim.Duration {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max reports the largest recorded latency.
func (h *LatencyHist) Max() sim.Duration { return h.max }

// Mean reports the exact mean (sums are kept outside the buckets).
func (h *LatencyHist) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.count)
}

// Quantile reports the q-quantile (q in [0,1]) as the upper edge of the
// bucket holding the target rank, clamped to the recorded extremes. Edge
// behavior is explicit, not incidental: q <= 0 (including -Inf) reports the
// exact recorded minimum, q >= 1 (including +Inf) reports the exact
// recorded maximum, NaN is treated as q=1 (the conservative end for a
// latency metric), and an empty histogram reports 0 for every q. Interior
// quantiles carry the histogram's bucket quantization (~3% with the
// default sub-bucket precision); the q=0 and q=1 endpoints are exact
// because min and max are tracked outside the buckets.
func (h *LatencyHist) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 || math.IsNaN(q) {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		return h.max
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			u := bucketUpper(h.off + i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Sum reports the exact sum of recorded latencies (kept outside the
// buckets, so it carries no quantization error).
func (h *LatencyHist) Sum() sim.Duration { return h.sum }

// Clone returns an independent copy of the histogram. Serve-mode exporters
// clone at a simulated-time barrier and publish the copy to concurrent
// HTTP readers while the engine keeps recording into the original.
func (h *LatencyHist) Clone() *LatencyHist {
	c := *h
	c.buckets = append([]uint64(nil), h.buckets...)
	return &c
}

// Merge folds another histogram into this one. Buckets share the same
// log-linear layout, so merging is exact: the result is identical to
// recording both sample streams into one histogram.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil || o.count == 0 {
		return
	}
	h.cover(o.off, o.off+len(o.buckets))
	for i, c := range o.buckets {
		h.buckets[o.off-h.off+i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if h.min < 0 || (o.min >= 0 && o.min < h.min) {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// CumulativeBuckets reports count(sample <= bound) for each bound, for
// exporting the distribution as a native Prometheus histogram. bounds must
// be ascending. A sample is attributed to its bucket's upper edge, so each
// cumulative count is exact with respect to those edges and within one
// sub-bucket (~3%) of the true value-based count — the same quantization
// Quantile carries.
func (h *LatencyHist) CumulativeBuckets(bounds []sim.Duration) []uint64 {
	out := make([]uint64, len(bounds))
	i, cum := 0, uint64(0)
	for bi, bound := range bounds {
		for i < len(h.buckets) && bucketUpper(h.off+i) <= bound {
			cum += h.buckets[i]
			i++
		}
		out[bi] = cum
	}
	return out
}

// Quantiles evaluates several quantiles in one call.
func (h *LatencyHist) Quantiles(qs ...float64) []sim.Duration {
	out := make([]sim.Duration, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// String renders the standard export (count, mean, P50/P90/P99/P99.9, max).
func (h *LatencyHist) String() string {
	qs := h.Quantiles(0.50, 0.90, 0.99, 0.999)
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v",
		h.count, h.Mean(), qs[0], qs[1], qs[2], qs[3], h.max)
}

// Nonzero returns the populated (bucket upper edge, count) pairs in
// ascending order, for exporting the full distribution.
func (h *LatencyHist) Nonzero() ([]sim.Duration, []uint64) {
	var edges []sim.Duration
	var counts []uint64
	for i, c := range h.buckets {
		if c > 0 {
			edges = append(edges, bucketUpper(h.off+i))
			counts = append(counts, c)
		}
	}
	return edges, counts
}

// Ascii renders a coarse textual histogram (one row per populated decade),
// for quick terminal inspection via hhsim -counters.
func (h *LatencyHist) Ascii() string {
	edges, counts := h.Nonzero()
	if len(edges) == 0 {
		return "(empty)\n"
	}
	// Collapse to decades of microseconds.
	decade := map[int]uint64{}
	for i, e := range edges {
		d := 0
		for v := int64(e) / int64(sim.Microsecond); v >= 10; v /= 10 {
			d++
		}
		decade[d] += counts[i]
	}
	keys := make([]int, 0, len(decade))
	for k := range decade {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var peak uint64
	for _, c := range decade {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for _, k := range keys {
		lo := int64(1)
		for i := 0; i < k; i++ {
			lo *= 10
		}
		bar := int(40 * decade[k] / peak)
		fmt.Fprintf(&b, "%8dus..%-8dus %8d %s\n", lo, lo*10, decade[k], strings.Repeat("#", bar))
	}
	return b.String()
}
