package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hardharvest/internal/sim"
)

func TestBucketMappingMonotone(t *testing.T) {
	// Every bucket boundary must be monotone and bucketUpper must be the
	// largest value that still maps into its bucket.
	prev := -1
	for v := int64(0); v < 1<<14; v++ {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < bucketOf(%d) = %d", v, b, v-1, prev)
		}
		prev = b
		u := int64(bucketUpper(b))
		if u < v {
			t.Fatalf("bucketUpper(%d) = %d < member value %d", b, u, v)
		}
		if bucketOf(u) != b {
			t.Fatalf("bucketUpper(%d) = %d maps to bucket %d", b, u, bucketOf(u))
		}
		if bucketOf(u+1) == b {
			t.Fatalf("bucketUpper(%d) = %d is not the bucket's top: %d also maps there", b, u, u+1)
		}
	}
}

func TestHistSmallValuesExact(t *testing.T) {
	h := NewLatencyHist()
	for v := sim.Duration(0); v < 1<<histSubBits; v++ {
		h.Record(v)
	}
	edges, counts := h.Nonzero()
	if len(edges) != 1<<histSubBits {
		t.Fatalf("edges = %d, want %d", len(edges), 1<<histSubBits)
	}
	for i, e := range edges {
		if e != sim.Duration(i) || counts[i] != 1 {
			t.Fatalf("bucket %d: edge %v count %d", i, e, counts[i])
		}
	}
}

func TestHistQuantileError(t *testing.T) {
	// Against a sorted sample, each quantile must land within one bucket
	// (<= 1/2^histSubBits relative error above the exact order statistic).
	rng := rand.New(rand.NewSource(7))
	h := NewLatencyHist()
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 2e9) // ~2ms mean in ps
		vals = append(vals, v)
		h.Record(sim.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		got := int64(h.Quantile(q))
		if got < exact {
			t.Fatalf("q=%v: estimate %d below exact %d", q, got, exact)
		}
		if float64(got-exact) > float64(exact)/float64(int64(1)<<histSubBits)+1 {
			t.Fatalf("q=%v: estimate %d too far above exact %d", q, got, exact)
		}
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if h.Mean() != sim.Duration(sum/int64(len(vals))) {
		t.Fatalf("mean = %v, want exact %v", h.Mean(), sim.Duration(sum/int64(len(vals))))
	}
	if h.Min() != sim.Duration(vals[0]) || h.Max() != sim.Duration(vals[len(vals)-1]) {
		t.Fatalf("min/max = %v/%v, want %d/%d", h.Min(), h.Max(), vals[0], vals[len(vals)-1])
	}
}

func TestHistEmptyAndClamping(t *testing.T) {
	h := NewLatencyHist()
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram must report zeros: %s", h)
	}
	if h.Ascii() != "(empty)\n" {
		t.Fatalf("empty ascii = %q", h.Ascii())
	}
	h.Record(-5) // clamps to zero
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatalf("negative record: count=%d min=%v", h.Count(), h.Min())
	}
	// Quantile upper edges clamp to the recorded max.
	h2 := NewLatencyHist()
	h2.Record(1000003)
	if q := h2.Quantile(0.99); q != 1000003 {
		t.Fatalf("single-sample p99 = %v, want the sample itself", q)
	}
}

func TestHistQuantileEdges(t *testing.T) {
	h := NewLatencyHist()
	for _, v := range []sim.Duration{100, 2000, 30000, 400001} {
		h.Record(v)
	}
	// q=0 and q=1 are exact: min and max are tracked outside the buckets.
	if got := h.Quantile(0); got != 100 {
		t.Fatalf("q=0 = %v, want exact min 100", got)
	}
	if got := h.Quantile(1); got != 400001 {
		t.Fatalf("q=1 = %v, want exact max 400001", got)
	}
	// Out-of-range and non-finite inputs clamp rather than misbehave.
	if got := h.Quantile(-0.5); got != 100 {
		t.Fatalf("q<0 = %v, want min", got)
	}
	if got := h.Quantile(1.5); got != 400001 {
		t.Fatalf("q>1 = %v, want max", got)
	}
	if got := h.Quantile(math.Inf(-1)); got != 100 {
		t.Fatalf("q=-Inf = %v, want min", got)
	}
	if got := h.Quantile(math.Inf(1)); got != 400001 {
		t.Fatalf("q=+Inf = %v, want max", got)
	}
	if got := h.Quantile(math.NaN()); got != 400001 {
		t.Fatalf("q=NaN = %v, want max (treated as q=1)", got)
	}
	// Quantiles passes each q through Quantile unchanged.
	qs := h.Quantiles(0, 1, math.NaN())
	if qs[0] != 100 || qs[1] != 400001 || qs[2] != 400001 {
		t.Fatalf("Quantiles edge values = %v", qs)
	}
	// Empty histogram: every edge input reports 0.
	e := NewLatencyHist()
	for _, q := range []float64{0, 1, -1, 2, math.NaN()} {
		if got := e.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistCumulativeBuckets(t *testing.T) {
	h := NewLatencyHist()
	for _, v := range []sim.Duration{10, 20, 20, 5000, 70000} {
		h.Record(v)
	}
	bounds := []sim.Duration{0, 15, 25, 1 << 20, 1 << 30}
	cum := h.CumulativeBuckets(bounds)
	want := []uint64{0, 1, 3, 5, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] (le %v) = %d, want %d (all: %v)", i, bounds[i], cum[i], want[i], cum)
		}
	}
	// Cumulative counts are monotone and end at the total.
	if cum[len(cum)-1] != h.Count() {
		t.Fatalf("last cumulative %d != count %d", cum[len(cum)-1], h.Count())
	}
	if got := NewLatencyHist().CumulativeBuckets(bounds); got[0] != 0 || got[len(got)-1] != 0 {
		t.Fatalf("empty histogram cumulative = %v", got)
	}
}

func TestHistClone(t *testing.T) {
	h := NewLatencyHist()
	h.Record(100)
	h.Record(90000)
	c := h.Clone()
	h.Record(5) // must not show up in the clone
	if c.Count() != 2 || c.Min() != 100 || c.Max() != 90000 {
		t.Fatalf("clone diverged: n=%d min=%v max=%v", c.Count(), c.Min(), c.Max())
	}
	if h.Count() != 3 || h.Min() != 5 {
		t.Fatalf("original lost a record: n=%d min=%v", h.Count(), h.Min())
	}
}

func TestHistAsciiShape(t *testing.T) {
	h := NewLatencyHist()
	for i := 0; i < 100; i++ {
		h.Record(3 * sim.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(500 * sim.Microsecond)
	}
	a := h.Ascii()
	if strings.Count(a, "\n") != 2 {
		t.Fatalf("want two decade rows, got:\n%s", a)
	}
	if !strings.Contains(a, "#") {
		t.Fatalf("no bars rendered:\n%s", a)
	}
}

// TestHistMergeEqualsCombinedRecording: merging two histograms must be
// indistinguishable from recording both streams into one — counts, sum,
// exact min/max, and every quantile.
func TestHistMergeEqualsCombinedRecording(t *testing.T) {
	a, b, both := NewLatencyHist(), NewLatencyHist(), NewLatencyHist()
	for i := 1; i <= 500; i++ {
		d := sim.Duration(i) * 17 * sim.Microsecond
		a.Record(d)
		both.Record(d)
	}
	for i := 1; i <= 300; i++ {
		d := sim.Duration(i) * 113 * sim.Microsecond
		b.Record(d)
		both.Record(d)
	}
	a.Merge(b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() ||
		a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merged summary diverged: count=%d/%d sum=%v/%v min=%v/%v max=%v/%v",
			a.Count(), both.Count(), a.Sum(), both.Sum(), a.Min(), both.Min(), a.Max(), both.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("q=%v: merged %v, combined %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op.
	before := a.String()
	a.Merge(NewLatencyHist())
	a.Merge(nil)
	if a.String() != before {
		t.Errorf("empty merge changed the histogram: %s -> %s", before, a.String())
	}
	// Merging into an empty histogram copies the source exactly.
	c := NewLatencyHist()
	c.Merge(both)
	if c.String() != both.String() {
		t.Errorf("merge into empty diverged: %s vs %s", c.String(), both.String())
	}
}

// TestRecordGrowthAmortised: recording ever-larger values, then ever-
// smaller ones, reallocates the bucket slice O(log n) times, not once per
// new maximum, and the slice ends at the largest bucket recorded and
// starts no lower than a quarter of the first array below the smallest.
func TestRecordGrowthAmortised(t *testing.T) {
	const n = 10000
	var buckets, off int
	var minV sim.Duration
	allocs := testing.AllocsPerRun(1, func() {
		h := NewLatencyHist()
		v := 1000.0
		for i := 0; i < n; i++ {
			h.Record(sim.Duration(v))
			v *= 1.001
		}
		for i := 0; i < n; i++ {
			v /= 1.001
			h.Record(sim.Duration(v))
		}
		buckets, off, minV = len(h.buckets), h.off, h.Min()
	})
	if want := bucketOf(int64(1000 * math.Pow(1.001, n-1))); off+buckets != want+1 {
		t.Fatalf("buckets end at %d, want %d", off+buckets, want+1)
	}
	if low := bucketOf(int64(minV)); off > low || off < low-histFirstCap/4 {
		t.Fatalf("buckets start at %d, want within %d below %d", off, histFirstCap/4, low)
	}
	// One for the histogram, one per doubling of the bucket slice.
	if limit := 2 + math.Log2(float64(buckets)); allocs > limit {
		t.Fatalf("%v allocations for %d buckets, want at most %.0f", allocs, buckets, limit)
	}
}

// TestHistLayoutIndependent: where the bucket array starts is invisible.
// The same samples recorded ascending, descending or shuffled, or split by
// range over histograms merged in either order, give identical nonzero
// buckets, cumulative buckets, quantiles and rendering.
func TestHistLayoutIndependent(t *testing.T) {
	var vals []sim.Duration
	for i := 0; i < 2000; i++ {
		vals = append(vals, sim.Duration(1+i*i*37%5_000_000)*sim.Nanosecond/7)
	}
	record := func(order []int) *LatencyHist {
		h := NewLatencyHist()
		for _, i := range order {
			h.Record(vals[i])
		}
		return h
	}
	asc, desc, shuf := make([]int, len(vals)), make([]int, len(vals)), make([]int, len(vals))
	for i := range vals {
		asc[i] = i
		desc[i] = len(vals) - 1 - i
		shuf[i] = i * 769 % len(vals)
	}
	sort.Slice(asc, func(i, j int) bool { return vals[asc[i]] < vals[asc[j]] })
	sort.Slice(desc, func(i, j int) bool { return vals[desc[i]] > vals[desc[j]] })
	want := record(shuf)
	lowHigh := func(lowFirst bool) *LatencyHist {
		low, high := NewLatencyHist(), NewLatencyHist()
		for _, v := range vals {
			if v < sim.Microsecond*50 {
				low.Record(v)
			} else {
				high.Record(v)
			}
		}
		if lowFirst {
			low.Merge(high)
			return low
		}
		high.Merge(low)
		return high
	}
	bounds := []sim.Duration{sim.Nanosecond, sim.Microsecond, 10 * sim.Microsecond, sim.Millisecond, 700 * sim.Microsecond * 1000}
	for name, h := range map[string]*LatencyHist{
		"ascending": record(asc), "descending": record(desc),
		"low merged into high": lowHigh(false), "high merged into low": lowHigh(true),
		"clone": want.Clone(),
	} {
		if h.String() != want.String() {
			t.Errorf("%s: %s, want %s", name, h, want)
		}
		e1, c1 := h.Nonzero()
		e2, c2 := want.Nonzero()
		if fmt.Sprint(e1, c1) != fmt.Sprint(e2, c2) {
			t.Errorf("%s: nonzero buckets differ", name)
		}
		if got, w := h.CumulativeBuckets(bounds), want.CumulativeBuckets(bounds); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("%s: cumulative buckets %v, want %v", name, got, w)
		}
	}
}

// TestRecordGrowthDownwardAmortised: ever-smaller values regrow the bucket
// array O(log n) times too.
func TestRecordGrowthDownwardAmortised(t *testing.T) {
	var buckets int
	allocs := testing.AllocsPerRun(1, func() {
		h := NewLatencyHist()
		for v := 1e10; v >= 1; v /= 1.001 {
			h.Record(sim.Duration(v))
		}
		buckets = len(h.buckets)
	})
	if limit := 2 + math.Log2(float64(buckets)); allocs > limit {
		t.Fatalf("%v allocations for %d buckets, want at most %.0f", allocs, buckets, limit)
	}
}
