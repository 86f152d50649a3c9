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
	inflight idTable
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
	enq       idTable
	waitSum   sim.Duration
	waitCount uint64

	flushMin, flushMax sim.Duration
	finished           bool
	end                sim.Time
}

// NewAudit returns an empty audit.
func NewAudit() *Audit { return &Audit{} }

// advance integrates N(t) up to now. Events arrive in nondecreasing time
// order from the discrete-event engine.
func (a *Audit) advance(now sim.Time) {
	a.integral += sim.Duration(a.inflight.len()) * now.Sub(a.lastT)
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
			a.enq.put(ev.Req, ev.Time)
		}
	case KindDispatch:
		if at, ok := a.enq.take(ev.Req); ok {
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
		a.inflight.put(ev.Req, ev.Time)
		if !a.haveArrival {
			a.firstArrival = ev.Time
			a.haveArrival = true
		}
	case KindComplete:
		if a.inflight.has(ev.Req) {
			a.advance(ev.Time)
			a.inflight.take(ev.Req)
			a.latSum += ev.Dur
			a.latCount++
		}
	case KindDeadlineMiss:
		if a.inflight.has(ev.Req) {
			a.advance(ev.Time)
			a.inflight.take(ev.Req)
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
	a.inflight.each(func(at sim.Time) { resid += a.end.Sub(at) })
	return a.inflight.len(), resid
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

// idTable maps request ids to times without hashing. A server issues its
// request ids in increasing order and only a few hundred are live at once,
// so the table keeps a window [lo, hi) of ids, lo the oldest live one, in a
// power-of-two ring indexed by id&mask. An id below the window extends it
// downward. The ring doubles freely up to idRingFree slots and beyond that
// only while at least one slot in eight is live; otherwise the oldest ids
// leave the ring for a small overflow map, so one long-lived id cannot make
// the ring grow with every id issued after it.
type idTable struct {
	slots []sim.Time // absent outside [lo, hi) and for ids not stored
	lo    uint64
	hi    uint64
	live  int                 // ids stored in the ring
	old   map[uint64]sim.Time // ids pushed out of the ring, nil until needed
}

const (
	// absent marks an empty ring slot; event times are never negative.
	absent = sim.Time(-1)
	// idRingMin and idRingFree bound the ring's first size and the size it
	// may double to regardless of how many of its ids are live.
	idRingMin  = 32
	idRingFree = 256
)

func (t *idTable) len() int { return t.live + len(t.old) }

// slot returns the ring slot of an id inside the window.
func (t *idTable) slot(id uint64) *sim.Time { return &t.slots[id&uint64(len(t.slots)-1)] }

// put records at for id, replacing an earlier time for the same id.
func (t *idTable) put(id uint64, at sim.Time) {
	if len(t.old) > 0 {
		delete(t.old, id)
	}
	if t.slots == nil {
		t.resize(idRingMin)
	}
	for {
		if t.live == 0 {
			t.lo, t.hi = id, id
		}
		if max(t.hi, id+1)-min(t.lo, id) <= uint64(len(t.slots)) {
			break
		}
		switch {
		case len(t.slots) < idRingFree || 8*(t.live+1) > len(t.slots):
			t.resize(2 * len(t.slots))
		case id < t.lo:
			t.keepOld(id, at)
			return
		default:
			t.evictOldest()
		}
	}
	t.lo, t.hi = min(t.lo, id), max(t.hi, id+1)
	p := t.slot(id)
	if *p == absent {
		t.live++
	}
	*p = at
}

// take removes id, reporting its time and whether it was present.
func (t *idTable) take(id uint64) (sim.Time, bool) {
	if id >= t.lo && id < t.hi {
		if p := t.slot(id); *p != absent {
			at := *p
			*p = absent
			t.live--
			if id == t.lo {
				t.skipEmpty()
			}
			return at, true
		}
	}
	if len(t.old) > 0 {
		if at, ok := t.old[id]; ok {
			delete(t.old, id)
			return at, true
		}
	}
	return 0, false
}

// has reports whether id is stored.
func (t *idTable) has(id uint64) bool {
	if id >= t.lo && id < t.hi && *t.slot(id) != absent {
		return true
	}
	_, ok := t.old[id]
	return ok
}

// each calls f with every stored time.
func (t *idTable) each(f func(sim.Time)) {
	for _, at := range t.slots {
		if at != absent {
			f(at)
		}
	}
	for _, at := range t.old {
		f(at)
	}
}

// skipEmpty moves lo up to the oldest live id, or to hi when none is.
func (t *idTable) skipEmpty() {
	if t.live == 0 {
		t.lo = t.hi
		return
	}
	for *t.slot(t.lo) == absent {
		t.lo++
	}
}

// keepOld stores id in the overflow map.
func (t *idTable) keepOld(id uint64, at sim.Time) {
	if t.old == nil {
		t.old = make(map[uint64]sim.Time)
	}
	t.old[id] = at
}

// evictOldest moves the oldest id in the ring to the overflow map.
func (t *idTable) evictOldest() {
	p := t.slot(t.lo)
	t.keepOld(t.lo, *p)
	*p = absent
	t.live--
	t.skipEmpty()
}

// resize moves the window into a ring of n slots.
func (t *idTable) resize(n int) {
	prev := t.slots
	t.slots = make([]sim.Time, n)
	for i := range t.slots {
		t.slots[i] = absent
	}
	for id := t.lo; id < t.hi; id++ {
		if at := prev[id&uint64(len(prev)-1)]; at != absent {
			*t.slot(id) = at
		}
	}
}
