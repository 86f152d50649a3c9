package stats

import (
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// sketchDists are the error-bound fixtures: shapes chosen to stress the
// log-linear buckets differently (a single bucket, two widely separated
// modes, a smooth body, and a heavy tail spanning many powers of two).
var sketchDists = []struct {
	name string
	gen  func(r *RNG) float64
}{
	{"constant", func(r *RNG) float64 { return 1234.5 }},
	{"bimodal", func(r *RNG) float64 {
		if r.Bool(0.8) {
			return 100 + r.Float64()
		}
		return 90_000 + 1000*r.Float64()
	}},
	{"lognormal", func(r *RNG) float64 { return r.LogNormal(8, 1.5) }},
	{"heavy-tail", func(r *RNG) float64 { return r.Pareto(50, 1.1) }},
}

// TestSketchQuantileErrorBound is the accuracy contract: against an exact
// recorder over the same samples, every interior sketch quantile must land
// within the documented relative error (plus a small slack for the exact
// recorder's rank interpolation, which the bucket-edge estimate does not
// model).
func TestSketchQuantileErrorBound(t *testing.T) {
	const n = 200_000
	bound := 2*SketchRelativeError + 1e-9 // one bucket width each way
	for _, d := range sketchDists {
		r := NewRNG(42)
		sk := NewSketch()
		ex := NewRecorder()
		for i := 0; i < n; i++ {
			v := d.gen(r)
			sk.Add(v)
			ex.Add(v)
		}
		for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.90, 0.99, 0.999} {
			got, want := sk.Quantile(q), ex.Quantile(q)
			if want <= 0 {
				t.Fatalf("%s: degenerate exact quantile %g", d.name, want)
			}
			if rel := math.Abs(got-want) / want; rel > bound {
				t.Errorf("%s q=%g: sketch %g vs exact %g (rel err %.4f > %.4f)",
					d.name, q, got, want, rel, bound)
			}
		}
		if sk.Count() != ex.Count() {
			t.Errorf("%s: counts diverge: %d vs %d", d.name, sk.Count(), ex.Count())
		}
		if math.Abs(sk.Mean()-ex.Mean()) > 1e-9*ex.Mean() {
			t.Errorf("%s: mean diverges: %g vs %g", d.name, sk.Mean(), ex.Mean())
		}
		if sk.Min() != ex.Min() || sk.Max() != ex.Max() {
			t.Errorf("%s: extremes diverge: [%g,%g] vs [%g,%g]",
				d.name, sk.Min(), sk.Max(), ex.Min(), ex.Max())
		}
	}
}

// TestSketchEdgeSemantics pins the PR 6 quantile edge contract shared with
// the exact recorders and obs.LatencyHist: empty reports 0 everywhere,
// q <= 0 is the exact minimum, q >= 1 or NaN is the exact maximum, and
// degenerate samples clamp to 0.
func TestSketchEdgeSemantics(t *testing.T) {
	s := NewSketch()
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %g, want 0", q, got)
		}
	}
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty aggregates nonzero: %s", s)
	}

	s.Add(700)
	s.Add(300)
	s.Add(500)
	if got := s.Quantile(0); got != 300 {
		t.Errorf("Quantile(0) = %g, want exact min 300", got)
	}
	if got := s.Quantile(-0.5); got != 300 {
		t.Errorf("Quantile(-0.5) = %g, want exact min 300", got)
	}
	if got := s.Quantile(1); got != 700 {
		t.Errorf("Quantile(1) = %g, want exact max 700", got)
	}
	if got := s.Quantile(1.5); got != 700 {
		t.Errorf("Quantile(1.5) = %g, want exact max 700", got)
	}
	if got := s.Quantile(math.NaN()); got != 700 {
		t.Errorf("Quantile(NaN) = %g, want exact max 700", got)
	}

	// Degenerate input clamps to 0, mirroring the latency recorders.
	d := NewSketch()
	d.Add(-5)
	d.Add(math.NaN())
	if d.Count() != 2 || d.Min() != 0 || d.Max() != 0 || d.Quantile(0.5) != 0 {
		t.Errorf("degenerate samples not clamped: %s", d)
	}
}

// TestSketchMergeAssociative checks that any merge grouping yields identical
// sketches: same buckets, counts, extremes, and therefore identical
// quantiles (sums compare exactly here because bucket order fixes the
// floating-point fold order).
func TestSketchMergeAssociative(t *testing.T) {
	r := NewRNG(7)
	parts := make([]*Sketch, 3)
	for i := range parts {
		parts[i] = NewSketch()
		for j := 0; j < 10_000; j++ {
			parts[i].Add(r.Pareto(10, 1.3))
		}
	}
	// (A + B) + C
	left := NewSketch()
	left.Merge(parts[0])
	left.Merge(parts[1])
	left.Merge(parts[2])
	// A + (B + C)
	bc := NewSketch()
	bc.Merge(parts[1])
	bc.Merge(parts[2])
	right := NewSketch()
	right.Merge(parts[0])
	right.Merge(bc)

	if left.Count() != right.Count() || left.Min() != right.Min() || left.Max() != right.Max() {
		t.Fatalf("merge groupings diverge: %s vs %s", left, right)
	}
	if math.Abs(left.Sum()-right.Sum()) > 1e-6 {
		t.Fatalf("merge sums diverge: %g vs %g", left.Sum(), right.Sum())
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if a, b := left.Quantile(q), right.Quantile(q); a != b {
			t.Fatalf("q=%g: %g vs %g", q, a, b)
		}
	}
	// Merging an empty sketch is the identity.
	before := left.Quantile(0.99)
	left.Merge(NewSketch())
	if left.Quantile(0.99) != before || left.Count() != right.Count() {
		t.Fatal("merging an empty sketch changed the sketch")
	}
}

// TestSketchFlatMemory: the bucket window is a function of the spanned value
// range, not the sample count — the fleet-scale property the scenario
// runner depends on.
func TestSketchFlatMemory(t *testing.T) {
	r := NewRNG(3)
	s := NewSketch()
	for i := 0; i < 10_000; i++ {
		s.Add(r.LogNormal(10, 1))
	}
	buckets := s.Buckets()
	for i := 0; i < 100_000; i++ {
		s.Add(r.LogNormal(10, 1))
	}
	if s.Buckets() > buckets+2*64 { // at most ~2 more powers of two
		t.Fatalf("bucket window grew with sample count: %d -> %d", buckets, s.Buckets())
	}
	if s.Count() != 110_000 {
		t.Fatalf("count = %d", s.Count())
	}
}

// TestSketchWindowGrowth drives the dense window in both directions and
// across Reset, pinning the base-offset bookkeeping.
func TestSketchWindowGrowth(t *testing.T) {
	s := NewSketch()
	s.Add(1 << 20) // large first: window opens high
	s.Add(1e-3)    // then extend toward zero
	s.Add(1 << 30) // then extend upward
	if s.Count() != 3 || s.Min() != 1e-3 || s.Max() != float64(1<<30) {
		t.Fatalf("window growth lost samples: %s", s)
	}
	if got := s.Quantile(0.5); math.Abs(got-float64(1<<20))/float64(1<<20) > SketchRelativeError {
		t.Fatalf("median after growth = %g, want ~%d", got, 1<<20)
	}

	s.Reset()
	if s.Count() != 0 || s.Buckets() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("Reset left state: %s", s)
	}
	s.Add(42)
	if s.Quantile(1) != 42 || s.Count() != 1 {
		t.Fatalf("sketch unusable after Reset: %s", s)
	}
}

// TestSketchBucketMonotone: the bit-pattern bucketing must be monotone, the
// property the quantile walk relies on.
func TestSketchBucketMonotone(t *testing.T) {
	r := NewRNG(11)
	prevV, prevB := 0.0, sketchBucket(0)
	for i := 0; i < 100_000; i++ {
		v := prevV + r.Float64()*math.Ldexp(1, i%64-32)
		b := sketchBucket(v)
		if b < prevB {
			t.Fatalf("bucket not monotone: %g->%d after %g->%d", v, b, prevV, prevB)
		}
		if u := sketchUpper(b); v > u {
			t.Fatalf("value %g above its bucket upper %g", v, u)
		}
		prevV, prevB = v, b
	}
}

// TestSketchGrowthAmortised: samples walking outward from the first one,
// up and then down, add pages from O(log n) blocks and copy the page table
// O(log n) times, not once per new extreme; the walk allocates at most
// twice the populated pages' bytes plus the page tables; and Buckets stays
// exactly the populated range.
func TestSketchGrowthAmortised(t *testing.T) {
	const n = 10000
	var window int
	walk := func() {
		s := NewSketch()
		for i, v := 0, 1000.0; i < n; i, v = i+1, v*1.001 {
			s.Add(v)
		}
		for i, v := 0, 1000.0; i < n; i, v = i+1, v/1.001 {
			s.Add(v)
		}
		window = s.Buckets()
	}
	allocs := testing.AllocsPerRun(1, walk)
	lo, hi := sketchBucket(1000/math.Pow(1.001, n-1)), sketchBucket(1000*math.Pow(1.001, n-1))
	if window != hi-lo+1 {
		t.Fatalf("window of %d buckets, want %d", window, hi-lo+1)
	}
	// One for the sketch, one for the first window, then one per doubling
	// in each direction.
	if limit := 2 + 2*math.Log2(float64(window)); allocs > limit {
		t.Fatalf("%v allocations for a %d-bucket window, want at most %.0f", allocs, window, limit)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	walk()
	runtime.ReadMemStats(&after)
	octaves := hi>>sketchSubBits - lo>>sketchSubBits + 1
	pages := 2 * octaves * int(unsafe.Sizeof(sketchPage{}))
	// Each page table is at most twice the span it covers, the populated
	// octaves plus the first table's reach, and each is at least twice
	// the last: all of them together hold at most four times that span.
	tables := 4 * (octaves + sketchTable) * int(unsafe.Sizeof((*sketchPage)(nil)))
	sketch := int(unsafe.Sizeof(Sketch{}))
	if got, limit := int(after.TotalAlloc-before.TotalAlloc), pages+tables+sketch; got > limit {
		t.Fatalf("walk over %d octaves allocated %d B, want at most %d (pages %d + tables %d + sketch %d)",
			octaves, got, limit, pages, tables, sketch)
	}
}
