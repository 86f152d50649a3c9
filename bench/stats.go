package main

import "sort"

// summary is one metric over a run's repetitions: the median with its
// quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs, computed exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// exclusive method, which extrapolates for very few samples). A single
// sample is its own quartiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	q := func(p float64) float64 {
		if n == 1 {
			return s[0]
		}
		pos := p * float64(n+1) // 1-based rank
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Q1: q(0.25), Q3: q(0.75), N: n}
}

// quantile is the nearest-rank quantile of xs (0 for no samples); tail
// metrics use it so a percentile is always a measured value.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
