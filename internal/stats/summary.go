package stats

import (
	"math"
	"sort"
)

// Recorder collects samples and answers exact quantile queries. The paper's
// headline metric is P99 tail latency over ~100K invocations, which fits
// comfortably in memory, so we keep exact samples rather than a sketch.
type Recorder struct {
	samples []float64
	sorted  bool
	sum     float64
	max     float64
	min     float64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample.
func (r *Recorder) Add(v float64) {
	r.samples = append(r.samples, v)
	r.sorted = false
	r.sum += v
	if v > r.max {
		r.max = v
	}
	if v < r.min {
		r.min = v
	}
}

// Count reports the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean reports the arithmetic mean, or 0 with no samples.
func (r *Recorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / float64(len(r.samples))
}

// Max reports the largest sample, or 0 with no samples.
func (r *Recorder) Max() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.max
}

// Min reports the smallest sample, or 0 with no samples.
func (r *Recorder) Min() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.min
}

func (r *Recorder) ensureSorted() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

// Sort pre-sorts the sample buffer so that later quantile queries are pure
// reads. Quantile sorts lazily on first use, which mutates the recorder;
// producers that hand a recorder to concurrent readers (the parallel
// experiment scheduler reads shared ServerResults from several goroutines)
// call Sort once before publishing. Adding more samples re-arms the lazy
// sort as usual.
func (r *Recorder) Sort() { r.ensureSorted() }

// Quantile reports the q-quantile (0 <= q <= 1) using nearest-rank with
// linear interpolation. Returns 0 with no samples.
func (r *Recorder) Quantile(q float64) float64 {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		r.ensureSorted()
		return r.samples[0]
	}
	if q >= 1 {
		r.ensureSorted()
		return r.samples[n-1]
	}
	r.ensureSorted()
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return r.samples[lo]
	}
	frac := pos - float64(lo)
	return r.samples[lo]*(1-frac) + r.samples[hi]*frac
}

// P50 reports the median.
func (r *Recorder) P50() float64 { return r.Quantile(0.50) }

// P99 reports the 99th percentile.
func (r *Recorder) P99() float64 { return r.Quantile(0.99) }

// P999 reports the 99.9th percentile.
func (r *Recorder) P999() float64 { return r.Quantile(0.999) }

// Merge folds all of other's samples into r.
func (r *Recorder) Merge(other *Recorder) {
	for _, v := range other.samples {
		r.Add(v)
	}
}

// Each visits every recorded sample in insertion order (or sorted order if
// the recorder has been sorted). It is how exact recorders fold into
// bounded sketches without exposing the sample buffer.
func (r *Recorder) Each(fn func(v float64)) {
	for _, v := range r.samples {
		fn(v)
	}
}

// Reset discards all samples.
func (r *Recorder) Reset() {
	r.samples = r.samples[:0]
	r.sorted = false
	r.sum = 0
	r.min = math.Inf(1)
	r.max = math.Inf(-1)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // fraction of samples <= Value
}

// CDF returns the empirical CDF evaluated at k evenly spaced fractions
// (1/k, 2/k, ..., 1).
func (r *Recorder) CDF(k int) []CDFPoint {
	if k <= 0 || len(r.samples) == 0 {
		return nil
	}
	r.ensureSorted()
	pts := make([]CDFPoint, 0, k)
	for i := 1; i <= k; i++ {
		f := float64(i) / float64(k)
		pts = append(pts, CDFPoint{Value: r.Quantile(f), Fraction: f})
	}
	return pts
}
