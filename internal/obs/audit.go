package obs

import "hardharvest/internal/sim"

// Audit is an Observer that accumulates the analytic quantities the
// validate oracle cross-checks against queueing theory:
//
//   - a step integral of N(t), the number of measured primary requests in
//     flight, so Little's law (∫N dt = Σ sojourn times) can be asserted as
//     an exact identity over the audited span;
//   - flow balance: measured arrivals = completions + deadline misses +
//     still-unresolved at the horizon (exact, not statistical);
//   - per-attempt queue-wait episodes (enqueue/unblock → dispatch gaps)
//     whose mean is bracketed by M/M/c and M/G/c bounds on calibrated
//     configs;
//   - flush-cost extrema, pinning the configured flush constant.
//
// The audit deliberately re-derives everything from the event stream alone
// — it shares no state with the simulator's own accounting, which is what
// makes agreement between the two meaningful. Only measured (arrived
// inside the measurement window) primary requests enter the Little's-law
// and wait statistics; batch jobs and warmup/drain traffic are excluded.
//
// An Audit observes exactly one server run; it is not safe for concurrent
// use. Call Finish once after the run to close the open N(t) interval.
type Audit struct {
	counters Counters

	// Little's law: inflight maps a measured call's first request id to
	// its arrival time; integral advances by n·Δt at every event.
	inflight map[uint64]sim.Time
	lastT    sim.Time
	integral sim.Duration

	latSum    sim.Duration // Σ latency over measured completions
	latCount  uint64
	missSum   sim.Duration // Σ sojourn over measured deadline misses
	missCount uint64

	firstArrival sim.Time
	haveArrival  bool

	// Queue waits: enq holds the last enqueue/unblock time per request id;
	// the next dispatch of that id closes the episode.
	enq       map[uint64]sim.Time
	waitSum   sim.Duration
	waitCount uint64

	flushMin, flushMax sim.Duration
	finished           bool
	end                sim.Time
}

// NewAudit returns an empty audit.
func NewAudit() *Audit {
	return &Audit{
		inflight: make(map[uint64]sim.Time),
		enq:      make(map[uint64]sim.Time),
	}
}

// advance integrates N(t) up to now. Events arrive in nondecreasing time
// order from the discrete-event engine.
func (a *Audit) advance(now sim.Time) {
	a.integral += sim.Duration(len(a.inflight)) * now.Sub(a.lastT)
	a.lastT = now
}

// Observe implements Observer.
func (a *Audit) Observe(ev Event) {
	a.counters.Count(ev)
	if ev.Kind == KindFlushStart {
		// Flush costs are a core-level quantity: batch-job dispatches pay
		// them too, so the extrema must cover job events.
		if a.flushMax == 0 || ev.Dur < a.flushMin {
			a.flushMin = ev.Dur
		}
		if ev.Dur > a.flushMax {
			a.flushMax = ev.Dur
		}
	}
	if ev.IsJob {
		return
	}
	switch ev.Kind {
	case KindEnqueue, KindUnblock:
		if ev.Measured {
			a.enq[ev.Req] = ev.Time
		}
	case KindDispatch:
		if at, ok := a.enq[ev.Req]; ok {
			delete(a.enq, ev.Req)
			a.waitSum += ev.Time.Sub(at)
			a.waitCount++
		}
	}
	if !ev.Measured {
		return
	}
	switch ev.Kind {
	case KindArrival:
		a.advance(ev.Time)
		a.inflight[ev.Req] = ev.Time
		if !a.haveArrival {
			a.firstArrival = ev.Time
			a.haveArrival = true
		}
	case KindComplete:
		if _, ok := a.inflight[ev.Req]; ok {
			a.advance(ev.Time)
			delete(a.inflight, ev.Req)
			a.latSum += ev.Dur
			a.latCount++
		}
	case KindDeadlineMiss:
		if _, ok := a.inflight[ev.Req]; ok {
			a.advance(ev.Time)
			delete(a.inflight, ev.Req)
			a.missSum += ev.Dur
			a.missCount++
		}
	}
}

// Kinds implements Selective: every kind the audit reads is also counted.
func (a *Audit) Kinds() KindSet { return countedKinds }

// Finish closes the audit at the given simulated time (the accounted end
// of the run): the open N(t) interval is integrated up to end and the
// residual sojourn of still-unresolved requests is computed. Accessors
// before Finish see partial values.
func (a *Audit) Finish(end sim.Time) {
	if a.finished {
		return
	}
	a.advance(end)
	a.end = end
	a.finished = true
}

// Counters reports the aggregated event counts (all traffic, measured or
// not — same semantics as SpanTracer.Counters).
func (a *Audit) Counters() Counters { return a.counters }

// Integral reports ∫N(t)dt: measured in-flight requests integrated over
// time up to Finish's end.
func (a *Audit) Integral() sim.Duration { return a.integral }

// LatencySum reports the summed end-to-end latency of measured completed
// requests, and their count.
func (a *Audit) LatencySum() (sim.Duration, uint64) { return a.latSum, a.latCount }

// MissSum reports the summed sojourn of measured deadline-missed calls,
// and their count.
func (a *Audit) MissSum() (sim.Duration, uint64) { return a.missSum, a.missCount }

// Unresolved reports the measured requests still in flight at Finish and
// their total residual sojourn (end − arrival each).
func (a *Audit) Unresolved() (int, sim.Duration) {
	var resid sim.Duration
	for _, at := range a.inflight {
		resid += a.end.Sub(at)
	}
	return len(a.inflight), resid
}

// FirstArrival reports the arrival time of the first measured request
// (zero, false if none arrived).
func (a *Audit) FirstArrival() (sim.Time, bool) { return a.firstArrival, a.haveArrival }

// MeanQueueWait reports the mean enqueue→dispatch gap over measured
// queue-wait episodes, and the episode count.
func (a *Audit) MeanQueueWait() (sim.Duration, uint64) {
	if a.waitCount == 0 {
		return 0, 0
	}
	return a.waitSum / sim.Duration(a.waitCount), a.waitCount
}

// FlushRange reports the smallest and largest critical-path flush cost
// seen (both zero if no flush occurred).
func (a *Audit) FlushRange() (min, max sim.Duration) { return a.flushMin, a.flushMax }
