package cluster

import (
	"fmt"

	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
	"hardharvest/internal/workload"
)

// Resilience configures the request-level fault-tolerance policies every
// real microservice cluster layers on top of its transport: per-service
// timeouts with a bounded retry budget (exponential backoff + jitter),
// optional hedged requests, and queue-depth load shedding. The zero value
// disables everything, and a disabled policy adds a single branch per
// arrival. Resilience contains only scalars so Options values that embed
// it stay comparable (the experiment memo uses them as map keys).
type Resilience struct {
	// Timeout is the per-attempt deadline; 0 defers to SLOTimeoutFactor.
	Timeout sim.Duration
	// SLOTimeoutFactor derives a per-service timeout as this multiple of
	// the service's mean demand (CPU + I/O); used when Timeout is 0.
	SLOTimeoutFactor float64
	// MaxRetries bounds how many times a timed-out attempt is retried.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry multiplies it by BackoffFactor (0 means no backoff growth).
	RetryBackoff sim.Duration
	// BackoffFactor is the exponential backoff multiplier (>= 1).
	BackoffFactor float64
	// JitterFrac spreads each backoff uniformly by ±JitterFrac (in [0,1]).
	// The jitter stream is seeded from the server seed, so runs stay
	// deterministic.
	JitterFrac float64
	// HedgeDelay launches a duplicate attempt if the call has not resolved
	// after this delay; 0 defers to HedgeSLOFactor.
	HedgeDelay sim.Duration
	// HedgeSLOFactor derives the hedge delay as this multiple of the
	// service's mean demand; used when HedgeDelay is 0.
	HedgeSLOFactor float64
	// MaxQueueDepth sheds an attempt on arrival when its VM's ready queue
	// is at least this deep (0 disables shedding).
	MaxQueueDepth int
}

// Enabled reports whether any resilience policy is active.
func (r Resilience) Enabled() bool {
	return r.Timeout > 0 || r.SLOTimeoutFactor > 0 ||
		r.HedgeDelay > 0 || r.HedgeSLOFactor > 0 || r.MaxQueueDepth > 0
}

// Validate returns the first configuration problem with its field name,
// so a bad policy fails fast at construction instead of corrupting a
// simulation mid-run.
func (r Resilience) Validate() error {
	switch {
	case r.Timeout < 0:
		return fmt.Errorf("resilience.timeout: must be non-negative, got %v", r.Timeout)
	case r.SLOTimeoutFactor < 0:
		return fmt.Errorf("resilience.slo_timeout_factor: must be non-negative, got %g", r.SLOTimeoutFactor)
	case r.MaxRetries < 0:
		return fmt.Errorf("resilience.max_retries: must be non-negative, got %d", r.MaxRetries)
	case r.RetryBackoff < 0:
		return fmt.Errorf("resilience.retry_backoff: must be non-negative, got %v", r.RetryBackoff)
	case r.BackoffFactor < 0:
		return fmt.Errorf("resilience.backoff_factor: must be non-negative, got %g", r.BackoffFactor)
	case r.BackoffFactor > 0 && r.BackoffFactor < 1 && r.MaxRetries > 0:
		return fmt.Errorf("resilience.backoff_factor: must be >= 1 (or 0 for none), got %g", r.BackoffFactor)
	case r.JitterFrac < 0 || r.JitterFrac > 1:
		return fmt.Errorf("resilience.jitter_frac: must be in [0,1], got %g", r.JitterFrac)
	case r.HedgeDelay < 0:
		return fmt.Errorf("resilience.hedge_delay: must be non-negative, got %v", r.HedgeDelay)
	case r.HedgeSLOFactor < 0:
		return fmt.Errorf("resilience.hedge_slo_factor: must be non-negative, got %g", r.HedgeSLOFactor)
	case r.MaxQueueDepth < 0:
		return fmt.Errorf("resilience.max_queue_depth: must be non-negative, got %d", r.MaxQueueDepth)
	case r.MaxRetries > 0 && r.Timeout == 0 && r.SLOTimeoutFactor == 0:
		return fmt.Errorf("resilience.max_retries: needs a timeout source (timeout or slo_timeout_factor)")
	case r.Timeout > 0 && r.HedgeDelay >= r.Timeout:
		return fmt.Errorf("resilience.hedge_delay: must be smaller than the timeout (%v >= %v)", r.HedgeDelay, r.Timeout)
	}
	return nil
}

// DefaultResilience is the policy set used by hhsim -resilience and the
// faultsweep experiment: service-relative timeouts, two retries with
// exponential backoff + jitter, hedging, and queue-depth shedding.
func DefaultResilience() Resilience {
	return Resilience{
		SLOTimeoutFactor: 6,
		MaxRetries:       2,
		RetryBackoff:     200 * sim.Microsecond,
		BackoffFactor:    2,
		JitterFrac:       0.2,
		HedgeSLOFactor:   1.6,
		MaxQueueDepth:    128,
	}
}

// call tracks one logical client request across its attempts (the
// original, retries, and hedges). Attempts are ordinary pooled request
// objects pointing back at their call.
//
// Zombie model: a timed-out or losing attempt is NOT ripped out of the
// server — like a real cluster, the server keeps executing work the
// client gave up on, and that wasted work is exactly what retries/hedges
// trade against. A completion for an already-resolved call is discarded
// (no latency sample, no completion event). The call itself is recycled
// only once it is resolved and its last attempt has left the system;
// every resolve path cancels the call's pending timer events first, so no
// stale event can touch a recycled call.
type call struct {
	id    uint64
	vmIdx int
	// firstReq is the original attempt's request id: completions and
	// misses reference it so observers can close the span that the
	// KindArrival event opened.
	firstReq uint64
	phases   []workload.Phase // pristine copy; each attempt re-copies it
	start    sim.Time
	// measured marks calls arriving inside the measurement window.
	measured bool
	// primaries counts the original attempt plus retries (not hedges).
	primaries int
	// outstanding counts attempts still in the system (incl. zombies).
	outstanding int
	resolved    bool
	hedged      bool

	timeoutEv sim.Event
	hedgeEv   sim.Event
	retryEv   sim.Event
}

func (s *Server) freeCall(c *call) {
	*c = call{phases: c.phases[:0]}
	s.callPool.Put(c)
}

// cancelCallEv cancels a pending call timer and clears the handle. The
// engine's generation-checked handles make cancelling an already-fired or
// zero event a no-op.
func (s *Server) cancelCallEv(ev *sim.Event) {
	if ev.Valid() {
		s.eng.Cancel(*ev)
	}
	*ev = sim.Event{}
}

// onArrivalResilient is the resilient twin of onArrival: it wraps the
// invocation in a call, arms the timeout and hedge timers, and launches
// the first attempt.
func (s *Server) onArrivalResilient(v *vmRT, inv workload.Invocation) {
	s.arrivals++ // counts calls, matching the non-resilient meaning
	s.callSeq++
	c := s.callPool.Get()
	c.id = s.callSeq
	c.vmIdx = v.idx
	c.phases = append(c.phases[:0], inv.Phases...)
	c.start = s.now()
	c.measured = s.measuring()
	if v.timeout > 0 {
		c.timeoutEv = s.eng.ScheduleCall(v.timeout, s, opCallTimeout, nil, c)
	}
	if v.hedgeDelay > 0 {
		c.hedgeEv = s.eng.ScheduleCall(v.hedgeDelay, s, opCallHedge, nil, c)
	}
	s.spawnAttempt(c, obs.KindArrival)
}

// spawnAttempt launches one attempt of a call through the normal arrival
// path (NIC deposit, vCPU landing, queueing). kind is KindArrival for the
// original, KindRetry/KindHedge for later attempts.
func (s *Server) spawnAttempt(c *call, kind obs.Kind) {
	v := s.vms[c.vmIdx]
	_, nicLat, err := s.nicDev.Deposit(v.idx, 256)
	if err != nil {
		panic(err)
	}
	if !s.opts.HWQueue {
		nicLat += s.cfg.SWQueueAccess
	}
	s.reqSeq++
	r := s.newRequest()
	r.id = s.reqSeq
	r.vmIdx = v.idx
	s.setPhases(r, c.phases)
	r.arrival = s.now()
	r.measured = c.measured
	r.call = c
	r.isHedge = kind == obs.KindHedge
	if kind == obs.KindArrival {
		c.firstReq = r.id
	}
	if !r.isHedge {
		c.primaries++
	}
	c.outstanding++
	s.setReqState(r, rsTransit)
	if s.obs != nil {
		s.ev(kind, r, -1, nicLat)
	}
	s.eng.ScheduleCall(nicLat, s, opArrivalReady, nil, r)
}

// shedAttempt drops an attempt at the queue-depth gate. The attempt's
// request returns to the pool; shed work is never recorded in latency
// percentiles (see DESIGN.md's accounting rule), only in the shed counter.
func (s *Server) shedAttempt(r *request) {
	s.sheds++
	if s.obs != nil {
		s.ev(obs.KindShed, r, -1, 0)
	}
	c := r.call
	hedge := r.isHedge
	c.outstanding--
	s.freeRequest(r)
	if c.resolved {
		s.maybeFreeCall(c)
		return
	}
	if hedge {
		return // the primary attempt is still in flight
	}
	s.attemptFailed(c)
}

// attemptFailed reacts to a failed primary attempt (shed, or timed out):
// retry within budget, or give up and record a deadline miss. The pending
// per-attempt timeout is cancelled so it cannot double-fail the call
// during the retry backoff.
func (s *Server) attemptFailed(c *call) {
	s.cancelCallEv(&c.timeoutEv)
	if c.primaries <= s.opts.Resilience.MaxRetries {
		c.retryEv = s.eng.ScheduleCall(s.backoffDelay(c), s, opCallRetry, nil, c)
		return
	}
	s.resolveMiss(c)
}

// backoffDelay computes the deterministic-jitter exponential backoff for
// the call's next retry.
func (s *Server) backoffDelay(c *call) sim.Duration {
	res := s.opts.Resilience
	d := float64(res.RetryBackoff)
	factor := res.BackoffFactor
	if factor <= 0 {
		factor = 1
	}
	for i := 1; i < c.primaries; i++ {
		d *= factor
	}
	if res.JitterFrac > 0 {
		d *= 1 + res.JitterFrac*(2*s.resRNG.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return sim.Duration(d)
}

// callTimeout fires when an attempt exceeded its deadline. The attempt
// keeps running as a zombie; the call moves on.
func (s *Server) callTimeout(c *call) {
	c.timeoutEv = sim.Event{}
	if c.resolved {
		return
	}
	s.attemptFailed(c)
}

// callRetry launches the next primary attempt after the backoff and
// re-arms the per-attempt timeout.
func (s *Server) callRetry(c *call) {
	c.retryEv = sim.Event{}
	if c.resolved {
		return
	}
	s.retries++
	if t := s.vms[c.vmIdx].timeout; t > 0 {
		c.timeoutEv = s.eng.ScheduleCall(t, s, opCallTimeout, nil, c)
	}
	s.spawnAttempt(c, obs.KindRetry)
}

// callHedge launches the duplicate attempt if the call is still unresolved.
func (s *Server) callHedge(c *call) {
	c.hedgeEv = sim.Event{}
	if c.resolved || c.hedged {
		return
	}
	c.hedged = true
	s.hedges++
	s.spawnAttempt(c, obs.KindHedge)
}

// completeAttempt handles the server-side completion of an attempt whose
// call may already be resolved. The first completion resolves the call
// and records its end-to-end latency; later ones are zombies and are
// discarded without touching any metric.
func (s *Server) completeAttempt(r *request, coreID int) {
	c := r.call
	c.outstanding--
	if c.resolved {
		s.maybeFreeCall(c)
		return
	}
	c.resolved = true
	s.cancelCallEv(&c.timeoutEv)
	s.cancelCallEv(&c.hedgeEv)
	s.cancelCallEv(&c.retryEv)
	lat := s.now().Sub(c.start)
	if r.isHedge {
		s.hedgesWon++
	} else if c.hedged {
		s.hedgesLost++
	}
	if s.obs != nil {
		// The completion closes the span the original attempt opened.
		s.obs.Observe(obs.Event{Kind: obs.KindComplete, Time: s.now(),
			Req: c.firstReq, VM: c.vmIdx, Core: coreID, Dur: lat, Measured: c.measured})
		if r.isHedge {
			s.obs.Observe(obs.Event{Kind: obs.KindHedgeWin, Time: s.now(),
				Req: c.firstReq, VM: c.vmIdx, Core: coreID})
		}
	}
	s.requests++
	if c.measured {
		v := s.vms[c.vmIdx]
		v.lat.Add(lat)
		s.breakdown.AddRequest(r.reassign, r.flush, r.exec)
		v.breakdown.AddRequest(r.reassign, r.flush, r.exec)
	}
	s.maybeFreeCall(c)
}

// resolveMiss gives up on a call: its retry budget is exhausted. The miss
// is counted; no latency sample is recorded (the accounting rule keeps
// percentiles to successful responses only).
func (s *Server) resolveMiss(c *call) {
	c.resolved = true
	s.cancelCallEv(&c.timeoutEv)
	s.cancelCallEv(&c.hedgeEv)
	s.cancelCallEv(&c.retryEv)
	s.deadlineMisses++
	if s.obs != nil {
		s.obs.Observe(obs.Event{Kind: obs.KindDeadlineMiss, Time: s.now(),
			Req: c.firstReq, VM: c.vmIdx, Core: -1, Dur: s.now().Sub(c.start),
			Measured: c.measured})
	}
	s.maybeFreeCall(c)
}

// maybeFreeCall recycles a call once it is resolved and its last attempt
// (zombies included) has left the system.
func (s *Server) maybeFreeCall(c *call) {
	if c.resolved && c.outstanding == 0 {
		s.freeCall(c)
	}
}
