// Package metrics provides the measurement machinery of the evaluation:
// latency recorders (median/P99 per service), core-utilization integration
// over simulated time, Harvest VM throughput counters, and per-request
// overhead breakdowns (core re-assignment vs flush vs execution, Figure 6).
package metrics

import (
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// LatencyRecorder collects end-to-end request latencies. It runs in one of
// two modes behind the same interface:
//
//   - exact (NewLatencyRecorder): every sample is kept, quantiles are exact.
//     The mode for golden runs and single-server experiments, where
//     byte-stable exact percentiles matter more than memory.
//   - sketch (NewLatencySketch): samples fold into a bounded mergeable
//     log-linear sketch (stats.Sketch); memory stays flat no matter how
//     long the run, at a bounded relative quantile error
//     (stats.SketchRelativeError). The mode for fleet-scale scenario runs.
type LatencyRecorder struct {
	rec *stats.Recorder // exact mode
	sk  *stats.Sketch   // sketch mode
}

// NewLatencyRecorder returns an empty exact recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{rec: stats.NewRecorder()}
}

// NewLatencySketch returns an empty bounded-memory sketch recorder.
func NewLatencySketch() *LatencyRecorder {
	return &LatencyRecorder{sk: stats.NewSketch()}
}

// Sketched reports whether the recorder runs in sketch mode.
func (l *LatencyRecorder) Sketched() bool { return l.sk != nil }

// Add records one latency.
func (l *LatencyRecorder) Add(d sim.Duration) {
	if l.sk != nil {
		l.sk.Add(float64(d))
		return
	}
	l.rec.Add(float64(d))
}

// Merge folds all of other's samples into l. Exact samples fold into a
// sketch target losslessly (each sample is re-bucketed); the reverse —
// reconstructing exact samples from a sketch — is impossible, so merging a
// sketch into an exact recorder panics: construct the aggregate with the
// same mode as its sources.
func (l *LatencyRecorder) Merge(other *LatencyRecorder) {
	switch {
	case l.sk != nil && other.sk != nil:
		l.sk.Merge(other.sk)
	case l.sk != nil:
		other.rec.Each(l.sk.Add)
	case other.sk != nil:
		panic("metrics: cannot merge a sketch recorder into an exact recorder")
	default:
		l.rec.Merge(other.rec)
	}
}

// Freeze pre-sorts an exact recorder so later percentile queries are pure
// reads and therefore safe from concurrent readers. Call after the last
// Add/Merge, before sharing the recorder across goroutines. Sketch queries
// are already pure reads, so Freeze is a no-op in sketch mode.
func (l *LatencyRecorder) Freeze() {
	if l.sk == nil {
		l.rec.Sort()
	}
}

// SampleLatency draws from the measured distribution by inverse-CDF: u in
// [0,1) selects the u-quantile.
func (l *LatencyRecorder) SampleLatency(u float64) sim.Duration {
	if l.sk != nil {
		return sim.Duration(l.sk.Quantile(u))
	}
	return sim.Duration(l.rec.Quantile(u))
}

// Count reports recorded samples.
func (l *LatencyRecorder) Count() int {
	if l.sk != nil {
		return l.sk.Count()
	}
	return l.rec.Count()
}

// P50 reports the median latency.
func (l *LatencyRecorder) P50() sim.Duration {
	if l.sk != nil {
		return sim.Duration(l.sk.P50())
	}
	return sim.Duration(l.rec.P50())
}

// P99 reports the 99th-percentile latency.
func (l *LatencyRecorder) P99() sim.Duration {
	if l.sk != nil {
		return sim.Duration(l.sk.P99())
	}
	return sim.Duration(l.rec.P99())
}

// Mean reports the mean latency.
func (l *LatencyRecorder) Mean() sim.Duration {
	if l.sk != nil {
		return sim.Duration(l.sk.Mean())
	}
	return sim.Duration(l.rec.Mean())
}

// Max reports the maximum latency.
func (l *LatencyRecorder) Max() sim.Duration {
	if l.sk != nil {
		return sim.Duration(l.sk.Max())
	}
	return sim.Duration(l.rec.Max())
}

// Utilization integrates per-core busy time to report average busy cores,
// the §6.7 metric.
type Utilization struct {
	cores     int
	busySince []sim.Time
	busy      []bool
	busyTotal []sim.Duration
	finished  bool
}

// NewUtilization tracks n cores.
func NewUtilization(n int) *Utilization {
	return &Utilization{
		cores:     n,
		busySince: make([]sim.Time, n),
		busy:      make([]bool, n),
		busyTotal: make([]sim.Duration, n),
	}
}

// SetBusy transitions a core's busy state at time now. Redundant transitions
// are ignored, as is any transition after Finish: the accumulator is frozen
// at the end of the measurement window.
func (u *Utilization) SetBusy(core int, now sim.Time, busy bool) {
	if u.finished || u.busy[core] == busy {
		return
	}
	if busy {
		u.busySince[core] = now
	} else {
		u.busyTotal[core] += now.Sub(u.busySince[core])
	}
	u.busy[core] = busy
}

// Finish closes any open busy intervals at the end of the run and freezes
// the accumulator: later SetBusy calls are ignored so post-window activity
// (the engine's grace window) cannot leak into the totals.
func (u *Utilization) Finish(now sim.Time) {
	for c := range u.busy {
		if u.busy[c] {
			u.busyTotal[c] += now.Sub(u.busySince[c])
			u.busySince[c] = now
		}
	}
	u.finished = true
}

// BusyCores reports the time-averaged number of busy cores over a run of
// the given length.
func (u *Utilization) BusyCores(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	var total sim.Duration
	for _, b := range u.busyTotal {
		total += b
	}
	return float64(total) / float64(elapsed)
}

// CoreBusy reports one core's accumulated busy time (closed intervals
// only until Finish is called).
func (u *Utilization) CoreBusy(core int) sim.Duration {
	return u.busyTotal[core]
}

// CoreBusyFraction reports one core's busy fraction.
func (u *Utilization) CoreBusyFraction(core int, elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(u.busyTotal[core]) / float64(elapsed)
}

// Breakdown accumulates the components of request time (Figure 6):
// hypervisor/controller core re-assignment, cache/TLB flush and
// invalidation, and execution (including queueing and cold-start
// stretching).
type Breakdown struct {
	Reassign  sim.Duration
	Flush     sim.Duration
	Execution sim.Duration
	Requests  uint64
}

// AddRequest folds one request's components into the accumulator.
func (b *Breakdown) AddRequest(reassign, flush, execution sim.Duration) {
	b.Reassign += reassign
	b.Flush += flush
	b.Execution += execution
	b.Requests++
}

// Mean reports the per-request mean of each component.
func (b *Breakdown) Mean() (reassign, flush, execution sim.Duration) {
	if b.Requests == 0 {
		return 0, 0, 0
	}
	n := sim.Duration(b.Requests)
	return b.Reassign / n, b.Flush / n, b.Execution / n
}

// MeanTotal reports the mean total request time.
func (b *Breakdown) MeanTotal() sim.Duration {
	r, f, e := b.Mean()
	return r + f + e
}
