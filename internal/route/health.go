package route

import (
	"hardharvest/internal/front"
	"hardharvest/internal/stats"
)

// Health, ejection, and drain state machines.
//
// Health (probe-driven):        healthy --UnhealthyAfter fails--> unhealthy
//                               unhealthy --HealthyAfter oks--> healthy
// Ejection (request-driven):    admitted --EjectAfter consecutive sheds-->
//                               ejected --EjectBackoff*2^(n-1)--> half-open
//                               (one more shed re-ejects immediately)
// Drain (operator-driven):      serving --drain--> draining --deadline-->
//                               drained --crash recovery--> serving
//
// A backend is dispatch-eligible only when every machine is in its good
// state: healthy, not inside a crash window, not ejected, and not in
// either drain state.

// backendRT is the router's per-server runtime state.
type backendRT struct {
	*front.Port
	prober *prober
	weight float64
	wrrCur float64

	// active holds the ids of current (non-superseded, unresolved)
	// attempts dispatched to this backend, in dispatch order — the
	// deterministic failover order when the backend goes away.
	active []uint64

	healthy  bool
	down     bool
	ejected  bool
	draining bool
	drained  bool

	okStreak   int
	failStreak int
	consecFail int
	ejectCount int

	// Counters surfaced in Result.
	dispatches      uint64
	dones           uint64
	sheds           uint64
	zombieDones     uint64
	zombieSheds     uint64
	failoversOut    uint64
	lost            uint64
	probes          uint64
	probeFails      uint64
	unhealthySpells uint64
	ejections       uint64
	drains          uint64
	crashes         uint64

	edgeLat *stats.Sketch
}

// eligible reports whether the router may dispatch new work to b.
func (b *backendRT) eligible() bool {
	return b.healthy && !b.down && !b.ejected && !b.draining && !b.drained
}

// state renders the composite state for summaries and /api/state.
func (b *backendRT) state() string {
	switch {
	case b.down:
		return "down"
	case b.ejected:
		return "ejected"
	case b.draining:
		return "draining"
	case b.drained:
		return "drained"
	case !b.healthy:
		return "unhealthy"
	default:
		return "healthy"
	}
}

// prober is the router's health-check agent on one backend's member: it
// answers each probe with whether the server is inside a crash window.
type prober struct {
	rt *Router
	b  *backendRT
}

// OnEvent answers one health probe (sim.Callback, server engine). The
// probe and its answer carry no payload: the prober's own backend is the
// probed one, and the reply's op code says whether the probe passed.
func (p *prober) OnEvent(int32, any, any) {
	op := rOpProbeOK
	if p.b.Server.Crashed() {
		op = rOpProbeFail
	}
	p.rt.FromBackend(p.b.Port, p.rt, op, p.b)
}

// probeTick sends one health probe to every backend, in index order, and
// schedules the next round.
func (rt *Router) probeTick() {
	for _, b := range rt.backends {
		b.probes++
		rt.probes++
		rt.ToBackend(b.Port, b.prober, 0, nil)
	}
	if rt.Now().Add(rt.cfg.ProbeInterval) <= rt.Horizon() {
		rt.Engine().ScheduleCall(rt.cfg.ProbeInterval, rt, rOpProbeTick, nil, nil)
	}
}

func (rt *Router) onProbeReply(b *backendRT, ok bool) {
	if ok {
		b.okStreak++
		b.failStreak = 0
		if !b.healthy && b.okStreak >= rt.cfg.HealthyAfter {
			b.healthy = true
		}
		return
	}
	b.probeFails++
	rt.probeFails++
	b.failStreak++
	b.okStreak = 0
	if b.healthy && b.failStreak >= rt.cfg.UnhealthyAfter {
		b.healthy = false
		b.unhealthySpells++
		rt.failoverActive(b)
	}
}

// onCrash applies a server's crash/recovery edge. Down strands the
// backend's attempts immediately (faster than probes can notice); recovery
// clears the crash and drain flags but health returns only after
// HealthyAfter clean probes.
func (rt *Router) onCrash(m *crashMsg) {
	b := rt.backends[m.backend]
	if m.down {
		b.down = true
		b.healthy = false
		b.okStreak = 0
		b.crashes++
		rt.failoverActive(b)
		return
	}
	b.down = false
	b.drained = false
}

// noteFailure feeds the outlier circuit breaker: EjectAfter consecutive
// shed replies (no intervening completion) eject the backend.
func (rt *Router) noteFailure(b *backendRT) {
	if rt.cfg.EjectAfter <= 0 || b.ejected {
		return
	}
	b.consecFail++
	if b.consecFail >= rt.cfg.EjectAfter {
		rt.eject(b)
	}
}

func (rt *Router) eject(b *backendRT) {
	b.ejected = true
	b.ejections++
	rt.ejections++
	b.ejectCount++
	rt.failoverActive(b)
	shift := b.ejectCount - 1
	if shift > 10 {
		shift = 10
	}
	rt.Engine().ScheduleCall(rt.cfg.EjectBackoff<<shift, rt, rOpReadmit, b, nil)
}

// readmit re-admits an ejected backend half-open: its failure streak sits
// one short of the threshold, so a single further shed re-ejects it (with
// a doubled backoff) while a completion fully clears the breaker.
func (rt *Router) readmit(b *backendRT) {
	b.ejected = false
	rt.readmits++
	b.consecFail = rt.cfg.EjectAfter - 1
}
