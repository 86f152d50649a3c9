// Package trace synthesizes Alibaba-like microservice utilization traces.
// The paper's motivation (Figures 2-3) relies on two published properties of
// the production traces: half of all instances average below 16.1% core
// utilization, and 90% of instances peak below 40.7%; utilization over time
// is low with occasional bursts at 30-second granularity. The generator is
// calibrated to those quantiles; a test asserts the calibration.
package trace

import (
	"math"

	"hardharvest/internal/stats"
)

// Calibration constants. Average utilization is log-normal with its median
// pinned at the paper's 16.1%; the peak is the average scaled by a
// log-normal burst factor (clamped >= 1) whose parameters place the P90 of
// the peak at the paper's 40.7%.
const (
	medianAvgUtil = 0.161
	sigmaAvg      = 0.40
	burstMedian   = 1.332
	sigmaBurst    = 0.30
)

// Instance is one microservice instance's utilization summary.
type Instance struct {
	// AvgUtil is the instance's average core utilization in [0, 1].
	AvgUtil float64
	// MaxUtil is the instance's maximum observed utilization in [0, 1].
	MaxUtil float64
}

// GenerateInstances draws n instances from the calibrated distribution.
func GenerateInstances(rng *stats.RNG, n int) []Instance {
	out := make([]Instance, n)
	for i := range out {
		out[i] = generateInstance(rng)
	}
	return out
}

func generateInstance(rng *stats.RNG) Instance {
	avg := rng.LogNormal(math.Log(medianAvgUtil), sigmaAvg)
	if avg > 0.95 {
		avg = 0.95
	}
	if avg < 0.005 {
		avg = 0.005
	}
	burst := rng.LogNormal(math.Log(burstMedian), sigmaBurst)
	if burst < 1 {
		burst = 1
	}
	max := avg * burst
	if max > 1 {
		max = 1
	}
	return Instance{AvgUtil: avg, MaxUtil: max}
}

// SeriesParams shape a utilization time series (Figure 3).
type SeriesParams struct {
	// Steps is the number of samples (the traces use 30 s granularity;
	// the paper's Figure 3 spans ~500 s, i.e. ~17 steps, but longer series
	// are useful for load generation).
	Steps int
	// BurstEnter is the per-step probability of entering a burst.
	BurstEnter float64
	// BurstExit is the per-step probability of leaving a burst.
	BurstExit float64
	// Jitter is the relative AR(1) noise on the base utilization.
	Jitter float64
}

// DefaultSeriesParams returns burst dynamics with ~9% stationary burst
// occupancy and visible spikes, matching the bursty pattern of Figure 3.
func DefaultSeriesParams() SeriesParams {
	return SeriesParams{
		Steps:      17, // ~500 s at 30 s per step
		BurstEnter: 0.06,
		BurstExit:  0.60,
		Jitter:     0.15,
	}
}

// burstOccupancy is the stationary fraction of steps spent bursting.
func (p SeriesParams) burstOccupancy() float64 {
	return p.BurstEnter / (p.BurstEnter + p.BurstExit)
}

// Series synthesizes a utilization time series for the instance whose
// long-run average and peak match the instance summary: the base level is
// solved so that base*(1-f) + peak*f = avg for burst occupancy f.
func (inst Instance) Series(rng *stats.RNG, p SeriesParams) []float64 {
	f := p.burstOccupancy()
	base := (inst.AvgUtil - f*inst.MaxUtil) / (1 - f)
	if base < 0.005 {
		base = 0.005
	}
	out := make([]float64, p.Steps)
	bursting := false
	level := base
	for i := range out {
		if bursting {
			if rng.Float64() < p.BurstExit {
				bursting = false
			}
		} else if rng.Float64() < p.BurstEnter {
			bursting = true
		}
		if bursting {
			out[i] = inst.MaxUtil
			continue
		}
		// AR(1) jitter around the base level.
		level = 0.7*level + 0.3*base*(1+p.Jitter*(2*rng.Float64()-1))
		u := level
		if u < 0 {
			u = 0
		}
		if u > inst.MaxUtil {
			u = inst.MaxUtil
		}
		out[i] = u
	}
	return out
}

// SummarizeSeries reports the average and maximum of a series.
func SummarizeSeries(series []float64) (avg, max float64) {
	if len(series) == 0 {
		return 0, 0
	}
	for _, v := range series {
		avg += v
		if v > max {
			max = v
		}
	}
	return avg / float64(len(series)), max
}

// FractionBelowAvg reports the fraction of instances with AvgUtil < u.
func FractionBelowAvg(insts []Instance, u float64) float64 {
	n := 0
	for _, in := range insts {
		if in.AvgUtil < u {
			n++
		}
	}
	return float64(n) / float64(len(insts))
}

// FractionBelowMax reports the fraction of instances with MaxUtil < u.
func FractionBelowMax(insts []Instance, u float64) float64 {
	n := 0
	for _, in := range insts {
		if in.MaxUtil < u {
			n++
		}
	}
	return float64(n) / float64(len(insts))
}
