package cluster

import (
	"fmt"

	"hardharvest/internal/sim"
)

// The invariant checker is always on: every request-state and core-state
// transition goes through a checked setter that costs one table lookup and
// two counter updates (O(1), allocation-free). Violations are counted and
// surfaced in ServerResult; under Config.Strict they panic immediately
// with the replay seed and a ring buffer of the most recent engine events
// so a failure is reproducible from the command line.

// reqState is the exclusive lifecycle state of a request object: at any
// instant a request is exactly one of free (pooled), in transit (NIC),
// queued, running, blocked on I/O, or pinned to an unbacked vCPU.
// Completed and shed requests return to rsFree through freeRequest.
type reqState uint8

const (
	rsFree reqState = iota
	rsTransit
	rsQueued
	rsRunning
	rsBlocked
	rsPinned

	numReqStates
)

var reqStateNames = [numReqStates]string{
	"free", "transit", "queued", "running", "blocked", "pinned",
}

func (st reqState) String() string {
	if int(st) < len(reqStateNames) {
		return reqStateNames[st]
	}
	return fmt.Sprintf("reqState(%d)", uint8(st))
}

// reqLegal is the legal request state machine, one bitmask of allowed
// successor states per state.
var reqLegal = [numReqStates]uint8{
	rsFree:    1<<rsTransit | 1<<rsQueued,             // arrival; job refill
	rsTransit: 1<<rsQueued | 1<<rsPinned | 1<<rsFree,  // enqueue; pin; shed
	rsQueued:  1 << rsRunning,                         // dispatch
	rsRunning: 1<<rsBlocked | 1<<rsQueued | 1<<rsFree, // I/O; abort/offline; complete
	rsBlocked: 1<<rsQueued | 1<<rsPinned,              // unblock; resume-pin
	rsPinned:  1 << rsQueued,                          // release/reclaim
}

func (st reqState) canBecome(to reqState) bool {
	return reqLegal[st]&(1<<to) != 0
}

// coreLegal is the legal core state machine (corePhaseKind successors).
var coreLegal = [4]uint8{
	cIdle:      1<<cIdle | 1<<cOverhead,
	cOverhead:  1<<cIdle | 1<<cOverhead | 1<<cRunOwn | 1<<cRunLoaned,
	cRunOwn:    1<<cIdle | 1<<cOverhead,
	cRunLoaned: 1<<cIdle | 1<<cOverhead,
}

var corePhaseNames = [4]string{"idle", "overhead", "run-own", "run-loaned"}

func (k corePhaseKind) String() string {
	if int(k) < len(corePhaseNames) {
		return corePhaseNames[k]
	}
	return fmt.Sprintf("corePhaseKind(%d)", int(k))
}

// invariantState aggregates the checker's counters for one server run.
type invariantState struct {
	violations uint64
	firstMsg   string
	// created/freed count request-pool issues and returns; together with
	// the per-state census they prove request conservation at the end of
	// the run: created - freed == sum of live-state counts.
	created uint64
	freed   uint64
	counts  [numReqStates]int64
}

// setReqState performs a checked request state transition and maintains
// the live-state census.
func (s *Server) setReqState(r *request, to reqState) {
	from := r.state
	if !from.canBecome(to) {
		s.invViolate("request %d (job=%v): illegal transition %v -> %v", r.id, r.isJob, from, to)
	}
	if from != rsFree {
		s.inv.counts[from]--
	}
	if to != rsFree {
		s.inv.counts[to]++
	}
	r.state = to
}

// setCoreKind performs a checked core state transition. On instrumented
// runs (an Observer is attached — always true for the validate oracle) the
// transition also closes the open phase interval into the core's cycle
// account, so busy/idle/harvested/transition time integrates exactly and
// the four buckets sum to wall time per core. Plain runs skip the
// accounting: this is the simulation's hottest edge, and uninstrumented
// callers never read the accounts.
func (s *Server) setCoreKind(c *coreRT, to corePhaseKind) {
	if coreLegal[c.kind]&(1<<to) == 0 {
		s.invViolate("core %d: illegal transition %v -> %v", c.id, c.kind, to)
	}
	if s.acctOn {
		now := s.now()
		c.acct[c.kind] += now.Sub(c.acctSince)
		c.acctSince = now
	}
	c.kind = to
}

// invViolate records an invariant violation. Outside strict mode the
// violation is tolerated and counted (surfaced via ServerResult); under
// Config.Strict it panics with everything needed to replay: the seed, the
// system, the simulated time, and the recent engine-event ring.
func (s *Server) invViolate(format string, args ...any) {
	s.inv.violations++
	msg := fmt.Sprintf(format, args...)
	if s.inv.firstMsg == "" {
		s.inv.firstMsg = msg
	}
	if !s.strict {
		return
	}
	panic(fmt.Sprintf("cluster: invariant violation: %s\nreplay: seed=%d system=%q t=%v\n%s",
		msg, s.cfg.Seed, s.opts.Name, s.now(), s.ring.dump()))
}

// checkConservation runs the end-of-run global invariants: no state census
// went negative, and every request issued from the pool is accounted for
// (still live in exactly one state, or freed).
func (s *Server) checkConservation() {
	var live int64
	for st := rsTransit; st < numReqStates; st++ {
		n := s.inv.counts[st]
		if n < 0 {
			s.invViolate("conservation: state %v census is negative (%d)", st, n)
		}
		live += n
	}
	if created, freed := s.inv.created, s.inv.freed; created-freed != uint64(live) {
		s.invViolate("conservation: created=%d freed=%d but %d requests live", created, freed, live)
	}
	if s.resOn {
		resolved := uint64(s.requests) + s.deadlineMisses
		if resolved > uint64(s.arrivals) {
			s.invViolate("conservation: %d calls resolved but only %d arrived", resolved, s.arrivals)
		}
	}
}

// CheckPools audits the server's free lists and reports the first fault:
// a request or phase buffer waiting twice (two later takers would share
// it), or a waiting request that is not free or still holds a phase
// buffer (its next occupant would share the buffer with the buffer's next
// taker). It allocates, so the end-of-run checks leave it to tests.
func (s *Server) CheckPools() error {
	reqs := make(map[*request]bool, len(s.reqPool.Free()))
	for _, r := range s.reqPool.Free() {
		if reqs[r] {
			return fmt.Errorf("cluster: request object %p is on the free list twice", r)
		}
		reqs[r] = true
		if r.state != rsFree || r.buf != nil {
			return fmt.Errorf("cluster: request object %p on the free list is %v with phase buffer %p", r, r.state, r.buf)
		}
	}
	bufs := make(map[*phaseBuf]bool, len(s.phaseBufs.Free()))
	for _, b := range s.phaseBufs.Free() {
		if bufs[b] {
			return fmt.Errorf("cluster: phase buffer %p is on the free list twice", b)
		}
		bufs[b] = true
	}
	return nil
}

// opRing remembers the most recent typed engine events so a strict-mode
// panic shows what led up to the violation. It is allocated only under
// Config.Strict; recording is two stores and a mask.
type opRing struct {
	recs [64]opRec
	n    uint64
}

type opRec struct {
	t  sim.Time
	op int32
}

func (rg *opRing) record(t sim.Time, op int32) {
	rg.recs[rg.n%uint64(len(rg.recs))] = opRec{t: t, op: op}
	rg.n++
}

var opNames = [...]string{
	"dispatch", "wake", "stall-retry", "stall-retry-loan", "arrival",
	"arrival-ready", "run-burst", "burst-end", "io-complete", "io-ready",
	"preempt", "agent-sample", "agent-tick", "lend-end", "reclaim-end",
	"fault-begin", "fault-end", "call-timeout", "call-retry", "call-hedge",
	"pin-release",
}

func opName(op int32) string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// dump renders the ring oldest-first.
func (rg *opRing) dump() string {
	if rg == nil || rg.n == 0 {
		return "recent events: (none recorded)"
	}
	out := "recent events (oldest first):"
	size := uint64(len(rg.recs))
	start := uint64(0)
	if rg.n > size {
		start = rg.n - size
	}
	for i := start; i < rg.n; i++ {
		rec := rg.recs[i%size]
		out += fmt.Sprintf("\n  t=%v %s", rec.t, opName(rec.op))
	}
	return out
}
