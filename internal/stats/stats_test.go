package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	equal := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split streams overlap: %d equal draws", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("exp mean = %v, want ~100", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(4)
	vs := make([]float64, 100000)
	for i := range vs {
		vs[i] = r.Normal(10, 3)
	}
	var mean, sd float64
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	for _, v := range vs {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(vs)))
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(sd-3) > 0.1 {
		t.Fatalf("normal stddev = %v", sd)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn did not cover range: %v", seen)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(6)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	trues := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	frac := float64(trues) / 100000
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frac = %v", frac)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Pareto(10, 2)
		if v < 10 {
			t.Fatalf("Pareto below xmin: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(9)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Rank 0 should get roughly 1/H(100) ~ 19% of draws.
	frac := float64(counts[0]) / 100000
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("zipf rank-0 frac = %v", frac)
	}
}

func TestRecorderQuantiles(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.P50(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("P50 = %v", got)
	}
	if got := r.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := r.Quantile(1); got != 100 {
		t.Fatalf("Q1 = %v", got)
	}
	if got := r.P99(); got < 99 || got > 100 {
		t.Fatalf("P99 = %v", got)
	}
	if got := r.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if r.Min() != 1 || r.Max() != 100 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestRecorderInterleavedAddQuery(t *testing.T) {
	r := NewRecorder()
	r.Add(10)
	_ = r.P50()
	r.Add(20) // must re-sort after this
	if got := r.Quantile(1); got != 20 {
		t.Fatalf("Q1 = %v after interleaved add", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder()
	if r.P50() != 0 || r.P99() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Min() != 0 {
		t.Fatal("empty recorder should report zeros")
	}
	if r.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.Add(5)
	r.Reset()
	if r.Count() != 0 || r.Mean() != 0 {
		t.Fatal("reset did not clear")
	}
	r.Add(7)
	if r.P50() != 7 {
		t.Fatalf("P50 after reset = %v", r.P50())
	}
}

func TestRecorderCDFMonotone(t *testing.T) {
	rng := NewRNG(11)
	r := NewRecorder()
	for i := 0; i < 5000; i++ {
		r.Add(rng.Exp(250))
	}
	cdf := r.CDF(20)
	if len(cdf) != 20 {
		t.Fatalf("CDF len = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value {
			t.Fatalf("CDF values not monotone at %d", i)
		}
		if cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatalf("CDF fractions not increasing at %d", i)
		}
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Fatalf("last fraction = %v", cdf[len(cdf)-1].Fraction)
	}
}

func TestQuantileProperty(t *testing.T) {
	// Property: for any sample set, quantiles are monotone in q and bounded
	// by min/max.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder()
		for _, v := range raw {
			r.Add(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := r.Quantile(q)
			if v < prev || v < r.Min() || v > r.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for Zipf n<=0")
		}
	}()
	NewZipf(NewRNG(1), 0, 1)
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

// ksStatistic computes the two-sided Kolmogorov-Smirnov statistic between
// the recorder's empirical distribution and a reference CDF.
func ksStatistic(r *Recorder, cdf func(float64) float64) float64 {
	n := r.Count()
	r.Sort()
	maxDev, i := 0.0, 0
	r.Each(func(v float64) {
		f := cdf(v)
		lo := float64(i) / float64(n)
		hi := float64(i+1) / float64(n)
		maxDev = math.Max(maxDev, math.Max(f-lo, hi-f))
		i++
	})
	return maxDev
}

func TestKSStatisticAgainstExponential(t *testing.T) {
	rng := NewRNG(21)
	r := NewRecorder()
	const mean = 200.0
	for i := 0; i < 20000; i++ {
		r.Add(rng.Exp(mean))
	}
	cdf := func(x float64) float64 { return 1 - math.Exp(-x/mean) }
	ks := ksStatistic(r, cdf)
	// Critical value at alpha=0.01 for n=20000 is ~1.63/sqrt(n) = 0.0115.
	if ks > 0.0115 {
		t.Fatalf("exponential sampler fails KS test: D=%v", ks)
	}
	// A wrong reference distribution must be rejected decisively.
	bad := func(x float64) float64 { return 1 - math.Exp(-x/(2*mean)) }
	if ksStatistic(r, bad) < 0.1 {
		t.Fatal("KS statistic failed to separate distinct distributions")
	}
	empty := NewRecorder()
	if ksStatistic(empty, cdf) != 0 {
		t.Fatal("empty recorder KS should be 0")
	}
}
