// Package route is the fleet front door: a deterministic router that
// admits the scenario workload at its own ShardGroup member and dispatches
// requests to fleet servers over Link/Send edges with a fixed per-edge
// network delay, instead of each server generating arrivals in isolation.
//
// The router carries the fleet's robustness machinery: pluggable balancing
// policies (round-robin, least-outstanding, weighted by hardware
// generation), simulated-time health checks, outlier ejection (a
// consecutive-failure circuit breaker with exponential half-open
// re-admission), failover retries for requests stranded on crashed or
// ejected servers, and graceful drain. Every decision is a pure function
// of the scenario seed and the deterministic ShardGroup delivery order, so
// routed runs are byte-identical at any worker count.
//
// Request timeline: a front-door generator replicates the per-VM workload
// model of the servers it feeds (profiles, load scale, trace modulation,
// flash batches) on independent RNG streams. Each generated request is
// dispatched to one backend; the server admits it (cluster.AdmitRemote),
// runs it through its full NIC/queue/execute pipeline, and reports
// completion or shed back over the reverse edge. When a backend crashes,
// turns unhealthy, is ejected, or is drained past its deadline, the
// attempts stranded on it are re-dispatched elsewhere — bounded by the
// failover budget — while the stranded attempts keep running server-side
// (fail-stop with durable queues): their late replies are counted as
// zombies, never double-resolving a request.
package route

import (
	"fmt"

	"hardharvest/internal/front"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// genSeedSalt derives the front-door generator streams from each source
// server's seed, independent from every stream the server itself draws.
const genSeedSalt = 0x6c62272e07bb0142

// Config selects the router's policies. DefaultConfig returns the values
// the scenario layer uses when a routing block leaves a field unset.
type Config struct {
	// Policy picks the balancing policy (see Policy).
	Policy Policy
	// NetDelay is the fixed per-edge network delay and ShardGroup
	// lookahead between the router and every server, each direction.
	NetDelay sim.Duration
	// ProbeInterval is the simulated-time health-check cadence; a probe
	// round-trips one NetDelay each way and reports whether the server is
	// inside a crash window.
	ProbeInterval sim.Duration
	// UnhealthyAfter / HealthyAfter are the consecutive probe-failure and
	// probe-success streaks that flip a backend's health state.
	UnhealthyAfter int
	HealthyAfter   int
	// EjectAfter is the consecutive request-failure (shed) count that
	// trips the outlier circuit breaker; 0 disables ejection.
	EjectAfter int
	// EjectBackoff is the first re-admission delay after an ejection;
	// repeat ejections back off exponentially (x2 each, capped at 2^10).
	// Re-admission is half-open: one more failure re-ejects immediately.
	EjectBackoff sim.Duration
	// MaxFailovers bounds how many times one request may be re-dispatched
	// after its attempt was stranded on a crashed/unhealthy/ejected/
	// drained backend (the fleet-level retry budget).
	MaxFailovers int
}

// DefaultConfig returns the router defaults.
func DefaultConfig() Config {
	return Config{
		Policy:         RoundRobin,
		NetDelay:       20 * sim.Microsecond,
		ProbeInterval:  5 * sim.Millisecond,
		UnhealthyAfter: 2,
		HealthyAfter:   2,
		EjectAfter:     5,
		EjectBackoff:   20 * sim.Millisecond,
		MaxFailovers:   2,
	}
}

// Validate returns the first configuration problem with its field name.
func (c Config) Validate() error {
	switch {
	case c.Policy < RoundRobin || c.Policy > Weighted:
		return fmt.Errorf("routing.policy: unknown policy %d", int(c.Policy))
	case c.NetDelay <= 0:
		return fmt.Errorf("routing.network_delay_us: must be positive, got %v", c.NetDelay)
	case c.ProbeInterval <= 0:
		return fmt.Errorf("routing.probe_interval_ms: must be positive, got %v", c.ProbeInterval)
	case c.UnhealthyAfter <= 0:
		return fmt.Errorf("routing.unhealthy_after: must be positive, got %d", c.UnhealthyAfter)
	case c.HealthyAfter <= 0:
		return fmt.Errorf("routing.healthy_after: must be positive, got %d", c.HealthyAfter)
	case c.EjectAfter < 0:
		return fmt.Errorf("routing.eject_after: must be non-negative, got %d", c.EjectAfter)
	case c.EjectAfter > 0 && c.EjectBackoff <= 0:
		return fmt.Errorf("routing.eject_backoff_ms: must be positive with ejection on, got %v", c.EjectBackoff)
	case c.MaxFailovers < 0:
		return fmt.Errorf("routing.max_failovers: must be non-negative, got %d", c.MaxFailovers)
	}
	return nil
}

// Backend describes one fleet server the router feeds (see front.Backend).
type Backend = front.Backend

// Router event opcodes (sim.Callback). Generation and replies are the
// embedded core's events.
const (
	rOpProbeTick     int32 = iota // periodic health-check round
	rOpReadmit                    // a: *backendRT — ejection backoff elapsed
	rOpDrainDeadline              // a: *backendRT — drain deadline reached
	rOpProbeOK                    // a: *backendRT — health probe passed
	rOpProbeFail                  // a: *backendRT — health probe failed
	rOpCrash                      // a: *crashMsg — crash/recovery notification
)

type crashMsg struct {
	backend int
	down    bool
}

// pendingReq is the router's view of one logical request from generation
// to resolution (completed, shed, or lost). The router recycles it through
// a free list once it is resolved and no attempt of it is outstanding (see
// release): an attempt stranded by failover keeps pointing at its request
// until its zombie reply arrives.
type pendingReq struct {
	vm       int
	born     sim.Time
	measured bool
	// nAttempts counts dispatches; cur is the current attempt's id. An
	// attempt superseded by failover stays outstanding on its old backend
	// until its zombie reply arrives.
	nAttempts   int
	cur         uint64
	outstanding int
	resolved    bool
}

// attemptRec tracks one dispatched attempt until its reply arrives.
type attemptRec struct {
	req     *pendingReq
	backend int
	sentAt  sim.Time
}

// Router is the fleet front door. It owns its own sim.Engine and joins the
// scenario's ShardGroup as a regular member; all interaction with servers
// flows over declared Link/Send edges. The embedded core carries the
// generators, the run window, the dispatch/reply plumbing and the attempt
// ledger; the router adds policies, health, ejection, failover and drain.
type Router struct {
	front.Core[*Router, attemptRec]
	cfg      Config
	backends []*backendRT

	rr       uint64
	eligible []int

	// reqs recycles released requests.
	reqs sim.Pool[pendingReq]

	// Fleet counters (see Result for meanings).
	generated         uint64
	initialDispatches uint64
	dispatches        uint64
	failovers         uint64
	completions       uint64
	sheds             uint64
	lost              uint64
	lostAtAdmit       uint64
	doneRecv          uint64
	shedRecv          uint64
	zombieDones       uint64
	zombieSheds       uint64
	probes            uint64
	probeFails        uint64
	ejections         uint64
	readmits          uint64
	drains            uint64

	fleetLat *stats.Sketch
}

// New builds a router over the given backends. Every backend must share
// the same run window and primary-VM count (the scenario layer validates
// this before construction; New panics otherwise).
func New(cfg Config, specs []Backend) *Router {
	if err := cfg.Validate(); err != nil {
		panic("route: " + err.Error())
	}
	rt := &Router{cfg: cfg, fleetLat: stats.NewSketch()}
	rt.Init("route", rt, cfg.NetDelay, specs, front.Handlers[attemptRec]{
		Admit: rt.admit, Reply: rt.onReply, Crash: rt.sendCrash,
	})
	vms := make([]int, specs[0].Cfg.PrimaryVMs)
	for i := range vms {
		vms[i] = i
	}
	for si, spec := range specs {
		if spec.Cfg.PrimaryVMs != len(vms) {
			panic("route: backends disagree on primary-VM count")
		}
		w := spec.Weight
		if w <= 0 {
			w = 1
		}
		rt.backends = append(rt.backends, &backendRT{
			Port: rt.Port(si), weight: w, healthy: true, edgeLat: stats.NewSketch(),
		})
		rt.AddSource(si, spec.Cfg, genSeedSalt, vms)
	}
	return rt
}

// Bind wires the router into its ShardGroup after membership and links are
// declared (see front.Core.Bind), then schedules the first health-check
// round after the generators.
func (rt *Router) Bind(g *sim.ShardGroup, self int, members []int) {
	rt.Core.Bind(g, self, members)
	for _, b := range rt.backends {
		b.prober = &prober{rt: rt, b: b}
	}
	rt.Engine().ScheduleCall(rt.cfg.ProbeInterval, rt, rOpProbeTick, nil, nil)
}

// sendCrash forwards a server's crash/recovery edge to the router (runs on
// the server's member).
func (rt *Router) sendCrash(p *front.Port, down bool) {
	rt.FromBackend(p, rt, rOpCrash, &crashMsg{backend: p.Idx, down: down})
}

// OnEvent dispatches the router's typed engine events (sim.Callback).
func (rt *Router) OnEvent(op int32, a, b any) {
	switch op {
	case rOpProbeTick:
		rt.probeTick()
	case rOpReadmit:
		rt.readmit(a.(*backendRT))
	case rOpDrainDeadline:
		rt.drainDeadline(a.(*backendRT))
	case rOpProbeOK, rOpProbeFail:
		rt.onProbeReply(a.(*backendRT), op == rOpProbeOK)
	case rOpCrash:
		rt.onCrash(a.(*crashMsg))
	default:
		panic(fmt.Sprintf("route: unknown event op %d", op))
	}
}

// ---- Generation and dispatch ----

// admit creates the logical request and dispatches its first attempt; with
// no eligible backend the request is lost at the door.
func (rt *Router) admit(g *front.Gen) {
	rt.generated++
	req := rt.reqs.Get()
	*req = pendingReq{vm: g.VM, born: rt.Now(), measured: rt.Measuring()}
	if rt.dispatch(req) {
		rt.initialDispatches++
	} else {
		req.resolved = true
		rt.lostAtAdmit++
		rt.lost++
		rt.release(req)
	}
}

// release returns req to the pool once it is resolved and no attempt of
// it is outstanding. A request resolved while a stranded attempt is still
// out stays live until that attempt's zombie reply releases it.
func (rt *Router) release(req *pendingReq) {
	if req.resolved && req.outstanding == 0 {
		rt.reqs.Put(req)
	}
}

// dispatch sends one attempt of req to a policy-chosen eligible backend.
func (rt *Router) dispatch(req *pendingReq) bool {
	b := rt.pick()
	if b == nil {
		return false
	}
	id := rt.Dispatch(b.Port, req.vm, attemptRec{req: req, backend: b.Idx, sentAt: rt.Now()})
	req.cur = id
	req.nAttempts++
	req.outstanding++
	b.active = append(b.active, id)
	b.dispatches++
	rt.dispatches++
	return true
}

// onReply resolves one attempt's fate. A reply for a superseded or already
// resolved request is a zombie: the stranded attempt kept running on its
// server and its outcome is counted but never re-resolves the request.
func (rt *Router) onReply(id uint64, rec attemptRec, shed bool) {
	req := rec.req
	req.outstanding--
	defer rt.release(req)
	b := rt.backends[rec.backend]
	live := !req.resolved && req.cur == id
	if shed {
		rt.shedRecv++
		if live {
			rt.removeActive(b, id)
			req.resolved = true
			rt.sheds++
			b.sheds++
		} else {
			rt.zombieSheds++
			b.zombieSheds++
		}
		rt.noteFailure(b)
		return
	}
	rt.doneRecv++
	b.consecFail = 0
	if live {
		rt.removeActive(b, id)
		req.resolved = true
		rt.completions++
		b.dones++
		if req.measured {
			rt.fleetLat.Add(rt.Now().Sub(req.born).Milliseconds())
			b.edgeLat.Add(rt.Now().Sub(rec.sentAt).Milliseconds())
		}
	} else {
		rt.zombieDones++
		b.zombieDones++
	}
}

func (rt *Router) removeActive(b *backendRT, id uint64) {
	for i, v := range b.active {
		if v == id {
			b.active = append(b.active[:i], b.active[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("route: attempt %d not active on %s", id, b.Name))
}

// failoverActive re-dispatches every attempt stranded on b (crash,
// unhealthy, ejection, or drain deadline — b must already be ineligible).
// The stranded attempts stay outstanding server-side: their eventual
// replies are zombies. Requests out of failover budget, or with no
// eligible backend left, are lost.
func (rt *Router) failoverActive(b *backendRT) {
	if len(b.active) == 0 {
		return
	}
	stranded := append([]uint64(nil), b.active...)
	b.active = b.active[:0]
	for _, id := range stranded {
		req := rt.Attempt(id).req
		if req.nAttempts <= rt.cfg.MaxFailovers && rt.dispatch(req) {
			rt.failovers++
			b.failoversOut++
		} else {
			// Lost, but not released: the stranded attempt is still
			// outstanding, and its zombie reply releases the request.
			req.resolved = true
			rt.lost++
			b.lost++
		}
	}
}

// ---- Scenario-facing reconfiguration ----

// StartDrain begins a graceful drain of backend idx: new dispatch stops
// now, in-flight attempts may finish until the deadline, and whatever
// remains then fails over. Idempotent while a drain is in progress.
func (rt *Router) StartDrain(idx int, deadline sim.Duration) {
	b := rt.backends[idx]
	if b.draining || b.drained {
		return
	}
	b.draining = true
	b.drains++
	rt.drains++
	rt.Engine().ScheduleCall(deadline, rt, rOpDrainDeadline, b, nil)
}

func (rt *Router) drainDeadline(b *backendRT) {
	if !b.draining {
		return // a crash emptied the backend first
	}
	b.draining = false
	b.drained = true
	rt.failoverActive(b)
}
