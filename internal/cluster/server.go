package cluster

import (
	"fmt"

	"hardharvest/internal/batch"
	"hardharvest/internal/core"
	"hardharvest/internal/faults"
	"hardharvest/internal/hypervisor"
	"hardharvest/internal/metrics"
	"hardharvest/internal/nic"
	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
	"hardharvest/internal/trace"
	"hardharvest/internal/workload"
)

// graceWindow lets requests that arrived near the end of the measurement
// window complete before the engine stops.
const graceWindow = 50 * sim.Millisecond

// jobStock is the number of ready batch jobs kept queued per server core so
// Harvest VMs always have available work (§4.1.4).
const jobStock = 2

type corePhaseKind int

const (
	cIdle corePhaseKind = iota
	cOverhead
	cRunOwn
	cRunLoaned
)

type coreRT struct {
	id    int
	owner int // VM index the core is bound to

	kind        corePhaseKind
	cur         *request
	burstEv     sim.Event
	burstStart  sim.Time
	burstEnd    sim.Time
	burstScaled sim.Duration
	burstRaw    sim.Duration

	lastVM     int // VM whose state is in the private caches; -1 when none
	warmLeft   sim.Duration
	coldFactor float64

	idleEligible bool // current idle episode may be harvested
	lentTo       int  // software lending: harvest VM index, -1 otherwise
	pendingWake  bool
	preemptPend  bool

	// Fault-injection state: offlineDepth nests overlapping offline faults
	// (the core serves work only at depth 0); degradeFactor multiplies the
	// core's execution time (1 when healthy).
	offlineDepth  int
	degradeDepth  int
	degradeFactor float64

	// Overheads paid before the next dispatched request starts, attributed
	// to that request's breakdown (Figure 6).
	pendingReassign sim.Duration
	pendingFlush    sim.Duration

	// Cycle accounting for the validate oracle: acct integrates the time
	// spent in each corePhaseKind, folded in at every checked transition
	// (setCoreKind); acctSince is the start of the open phase interval.
	acctSince sim.Time
	acct      [4]sim.Duration
}

type vmRT struct {
	idx       int
	isPrimary bool
	profile   *workload.Profile
	gen       *workload.Generator

	running int // requests currently executing on cores
	blocked int // requests blocked on I/O

	lentOut         int // software lending: cores currently lent
	pendingReclaims int
	lastLendAt      sim.Time
	// blockEWMA tracks typical I/O block durations for AdaptiveBlock.
	blockEWMA sim.Duration
	// stallUntil freezes the VM's dispatching while a hypervisor move
	// disrupts it (guest-side unplug synchronization).
	stallUntil sim.Time
	// pinned holds arrivals that landed on a vCPU whose core is lent out:
	// the guest cannot run them until a reclaim completes (software path
	// only; HardHarvest multiplexes vCPUs in hardware, §4.1.5).
	pinned []*request

	// nextInv carries the VM's next generated invocation between
	// scheduleNextArrival and the opArrival event that delivers it; at most
	// one arrival is in flight per VM, so one slot suffices and the event
	// needs no closure.
	nextInv workload.Invocation

	lat       *metrics.LatencyRecorder
	breakdown metrics.Breakdown

	// Derived resilience deadlines (zero when the policy is off).
	timeout    sim.Duration
	hedgeDelay sim.Duration
}

// Typed event opcodes: the server schedules its hot-path events through
// Engine.ScheduleCall with itself as the sim.Callback, binding the op code
// plus *coreRT / *vmRT / *request payloads in the event record instead of
// allocating a closure per event.
const (
	opDispatch       int32 = iota // a: *coreRT — dispatch(c, false)
	opWake                        // a: *coreRT — pending wake delivered
	opStallRetry                  // a: *coreRT — retry dispatch after a VM stall (no loan)
	opStallRetryLoan              // a: *coreRT — retry dispatch after a VM stall (loan ok)
	opArrival                     // a: *vmRT — deliver the VM's next generated arrival
	opArrivalReady                // b: *request — NIC deposit done, request lands on a vCPU
	opRunBurst                    // a: *coreRT, b: *request — dispatch overheads paid
	opBurstEnd                    // a: *coreRT, b: *request — CPU burst finished
	opIOComplete                  // b: *request — network response arrived at the NIC
	opIOReady                     // b: *request — queue/notify delay after I/O completion
	opPreempt                     // a: *coreRT — hardware reclamation interrupt delivered
	opAgentSample                 // software harvesting agent usage sample
	opAgentTick                   // software harvesting agent prediction window
	opLendEnd                     // a: *coreRT — hypervisor lend move finished
	opReclaimEnd                  // a: *coreRT — hypervisor reclaim move finished
	opFaultBegin                  // b: *faults.Event — injected fault begins
	opFaultEnd                    // b: *faults.Event — injected fault lifts
	opCallTimeout                 // b: *call — attempt deadline expired
	opCallRetry                   // b: *call — retry backoff elapsed
	opCallHedge                   // b: *call — hedge delay elapsed
	opPinRelease                  // b: *pinRelease — a pinned request's wait bound elapsed
)

// OnEvent dispatches typed engine events (sim.Callback).
func (s *Server) OnEvent(op int32, a, b any) {
	if s.ring != nil {
		s.ring.record(s.now(), op)
	}
	switch op {
	case opDispatch:
		s.dispatch(a.(*coreRT), false)
	case opWake:
		c := a.(*coreRT)
		c.pendingWake = false
		if c.kind == cIdle {
			s.dispatch(c, c.idleEligible)
		}
	case opStallRetry, opStallRetryLoan:
		c := a.(*coreRT)
		if c.kind == cIdle || c.kind == cOverhead {
			s.dispatch(c, op == opStallRetryLoan)
		}
	case opArrival:
		s.arrivalFired(a.(*vmRT))
	case opArrivalReady:
		s.arrivalReady(b.(*request))
	case opRunBurst:
		s.runBurst(a.(*coreRT), b.(*request))
	case opBurstEnd:
		s.onBurstEnd(a.(*coreRT), b.(*request))
	case opIOComplete:
		s.onIOComplete(b.(*request))
	case opIOReady:
		s.ioReady(b.(*request))
	case opPreempt:
		s.preemptFired(a.(*coreRT))
	case opAgentSample:
		s.agentSample()
	case opAgentTick:
		s.agentTick()
	case opLendEnd:
		s.lendEnd(a.(*coreRT))
	case opReclaimEnd:
		s.reclaimEnd(a.(*coreRT))
	case opFaultBegin:
		s.faultBegin(b.(*faults.Event))
	case opFaultEnd:
		s.faultEnd(b.(*faults.Event))
	case opCallTimeout:
		s.callTimeout(b.(*call))
	case opCallRetry:
		s.callRetry(b.(*call))
	case opCallHedge:
		s.callHedge(b.(*call))
	case opPinRelease:
		s.pinReleaseFired(b.(*pinRelease))
	default:
		panic(fmt.Sprintf("cluster: unknown event op %d", op))
	}
}

// Server simulates one 36-core server under a given system configuration.
type Server struct {
	cfg  Config
	opts Options

	eng    *sim.Engine
	be     backend
	hw     *hwBackend
	sw     *swBackend
	nicDev *nic.NIC
	agent  *hypervisor.Harvester

	// obs receives lifecycle events; nil disables instrumentation and every
	// hook site reduces to one nil check (see internal/obs).
	obs obs.Observer
	// kinds caches the event kinds obs reads (obs.KindsOf): ev, evCore and
	// emitDispatch neither build nor deliver the others.
	kinds obs.KindSet
	// acctOn enables per-core cycle accounting in setCoreKind. It follows
	// obs != nil: the accounts exist for the validate oracle's conservation
	// checks, which always observe the run, and the hottest transition edge
	// should not pay for them otherwise.
	acctOn bool

	flushRNG *stats.RNG
	pollRNG  *stats.RNG
	jobRNG   *stats.RNG
	jobs     batch.JobSampler // hwork's job demands, drawn from jobRNG
	batchRNG *stats.RNG
	// batchScratch backs flash-batch sampling; onArrival copies the phases
	// into the pooled request before the next sample reuses it.
	batchScratch workload.SampleScratch

	vms        []*vmRT // 0..PrimaryVMs-1 primary, last is the Harvest VM
	harvestIdx int
	hwork      *batch.Workload
	cores      []coreRT

	util       *metrics.Utilization
	activeJobs int
	pins       uint64
	pinWaitSum sim.Duration
	arrivals   int
	breakdown  metrics.Breakdown
	jobsDone   uint64
	reassigns  uint64
	requests   int

	measureStart sim.Time
	measureEnd   sim.Time
	stopArrivals sim.Time
	horizon      sim.Time
	reqSeq       uint64

	// Per-core cycle accounts snapshotted at the measurement-window edges
	// (validate oracle: busy + idle + harvested + transition must sum to
	// the window per core).
	coreWinStart []CoreCycles
	coreWinEnd   []CoreCycles

	// reqPool recycles request objects: a server simulates hundreds of
	// thousands of requests but only a few hundred are ever in flight, so
	// the pool caps steady-state allocation. phaseBufs recycles the phase
	// buffers of multi-phase invocations the same way.
	reqPool   sim.Pool[request]
	phaseBufs sim.Pool[phaseBuf]
	// pinPool recycles pin-release event payloads; each returns to the
	// pool when its event fires. pinLane queues the GuestMigrateDelay
	// releases, which all fire one fixed delay after they are scheduled; it
	// is made at the first pin.
	pinPool sim.Pool[pinRelease]
	pinLane *sim.Lane

	// moveBusyUntil serializes software core moves: hypervisor detach and
	// attach operations take a global lock (§4.1.1), so moves queue behind
	// each other — unlike HardHarvest's decentralized per-QM hardware.
	moveBusyUntil sim.Time

	// Fault injection (Config.FaultPlan): the expanded schedule plus the
	// active I/O-straggler window.
	faultEvs       []faults.Event
	faultIOUntil   sim.Time
	faultIOFactor  float64
	faultsInjected uint64
	// crashDepth nests overlapping whole-server crash windows: the cores go
	// offline on the 0->1 edge and come back only on the 1->0 edge, so a
	// second crash landing inside the first's window extends the outage
	// instead of double-restarting the server.
	crashDepth int

	// Remote admission (Options.RemoteAdmission): remoteRNG samples the
	// phases of front-door-dispatched invocations on an independent stream
	// so routed and local admission never perturb each other's randomness.
	// Nil unless remote admission is on, keeping routerless runs stream-
	// and alloc-identical to builds without routing support.
	remoteRNG     *stats.RNG
	remoteScratch workload.SampleScratch

	// Resilience (Options.Resilience): resOn gates the per-arrival branch;
	// calls are pooled like requests; resRNG drives backoff jitter.
	resOn          bool
	resRNG         *stats.RNG
	callPool       sim.Pool[call]
	callSeq        uint64
	sheds          uint64
	retries        uint64
	hedges         uint64
	hedgesWon      uint64
	hedgesLost     uint64
	deadlineMisses uint64

	// Invariant checker (always on; strict panics on violation).
	inv    invariantState
	strict bool
	ring   *opRing
}

// NewServer builds one server running the eight service profiles in its
// Primary VMs and the given batch workload in its Harvest VM.
func NewServer(cfg Config, opts Options, work *batch.Workload) *Server {
	cfg.validate()
	if opts.Harvesting && !opts.SoftwareHarvest && !opts.HWSched {
		panic("cluster: hardware harvesting requires the hardware scheduler (+Sched)")
	}
	s := &Server{
		cfg:        cfg,
		opts:       opts,
		eng:        sim.NewEngine(),
		nicDev:     nic.New(cfg.NICLat),
		harvestIdx: cfg.PrimaryVMs,
		hwork:      work,
		obs:        opts.Observer,
		kinds:      obs.KindsOf(opts.Observer),
		acctOn:     opts.Observer != nil,
	}
	root := stats.NewRNG(cfg.Seed)
	s.flushRNG = root.Split(1)
	s.pollRNG = root.Split(2)
	s.jobRNG = root.Split(3)
	if work != nil {
		s.jobs = work.Sampler()
	}
	s.batchRNG = root.Split(6)
	seriesRNG := root.Split(4)
	instRNG := root.Split(5)

	profiles := cfg.Profiles
	if profiles == nil {
		profiles = workload.Profiles()
	}
	if len(profiles) < cfg.PrimaryVMs {
		panic("cluster: not enough service profiles for the primary VMs")
	}
	seriesParams := trace.DefaultSeriesParams()
	seriesParams.Steps = cfg.TraceSteps
	newLat := metrics.NewLatencyRecorder
	if opts.SketchLatency {
		newLat = metrics.NewLatencySketch
	}
	for i := 0; i < cfg.PrimaryVMs; i++ {
		p := *profiles[i]
		p.BaseRPSPerCore *= cfg.LoadScale
		var series []float64
		if cfg.TraceSteps > 0 {
			inst := trace.GenerateInstances(instRNG, 1)[0]
			series = inst.Series(seriesRNG.Split(uint64(i)), seriesParams)
		} else {
			_ = instRNG
		}
		v := &vmRT{
			idx:       i,
			isPrimary: true,
			profile:   &p,
			gen:       workload.NewGenerator(&p, cfg.CoresPerPrimary, series, cfg.TraceStep, root.Split(uint64(100+i))),
			lat:       newLat(),
		}
		s.vms = append(s.vms, v)
		s.nicDev.RegisterVM(i)
	}
	s.vms = append(s.vms, &vmRT{idx: s.harvestIdx, lat: newLat()})
	s.nicDev.RegisterVM(s.harvestIdx)

	// Backend.
	numVMs := cfg.PrimaryVMs + 1
	if opts.SoftwareHarvest {
		s.sw = newSWBackend(numVMs, cfg.CoresPerServer)
		s.be = s.sw
	} else {
		s.hw = newHWBackend(cfg)
		s.be = s.hw
		mask := core.DefaultHarvestMask([core.NumMaskedStructs]int{12, 8, 8, 4, 8})
		for i := 0; i < cfg.PrimaryVMs; i++ {
			s.hw.addVM(i, true, mask)
		}
		s.hw.addVM(s.harvestIdx, false, mask)
	}

	// Cores: primary VMs first, then the Harvest VM's own cores; any
	// remaining server cores stay unassigned (unallocated cores are out of
	// scope: the paper's server is fully allocated).
	// The cores live in one contiguous value slice (struct-of-arrays for
	// the scheduler's hottest scans); capacity is fixed up front so the
	// *coreRT pointers captured in event payloads stay stable for the
	// server's lifetime.
	s.cores = make([]coreRT, 0, cfg.PrimaryVMs*cfg.CoresPerPrimary+cfg.HarvestOwnCores)
	coreID := 0
	bind := func(vmIdx int) {
		s.cores = append(s.cores, coreRT{id: coreID, owner: vmIdx, lastVM: -1, lentTo: -1,
			coldFactor: 1, degradeFactor: 1, idleEligible: true})
		if s.hw != nil {
			s.hw.bindCore(coreID, vmIdx)
		} else {
			s.sw.bindCore(coreID, vmIdx)
		}
		coreID++
	}
	for i := 0; i < cfg.PrimaryVMs; i++ {
		for k := 0; k < cfg.CoresPerPrimary; k++ {
			bind(i)
		}
	}
	for k := 0; k < cfg.HarvestOwnCores; k++ {
		bind(s.harvestIdx)
	}

	s.util = metrics.NewUtilization(len(s.cores))
	if opts.SoftwareHarvest && !opts.EventDrivenLend {
		s.agent = hypervisor.NewHarvester(cfg.Costs)
		s.agent.Interval = cfg.AgentInterval
		s.agent.BufferCores = cfg.AgentBufferCores
	}

	// Robustness wiring. Resilience misconfigurations fail fast here, at
	// construction, with field-level errors — never mid-simulation.
	if err := opts.Resilience.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	if opts.Resilience.Enabled() {
		s.resOn = true
		s.deriveResilienceDeadlines()
	}
	if cfg.FaultPlan != nil {
		if err := cfg.FaultPlan.Validate(); err != nil {
			panic("cluster: fault plan: " + err.Error())
		}
	}
	s.strict = cfg.Strict
	if cfg.Strict {
		s.ring = &opRing{}
	}
	// resRNG splits last, and only when resilience is on: stats.RNG.Split
	// advances the root stream and allocates, so skipping it keeps a
	// policies-off run alloc- and stream-identical to builds without
	// resilience support.
	if s.resOn {
		s.resRNG = root.Split(7)
	}
	// The remote-admission sampling stream derives from a fresh root, not a
	// Split of the shared one, for the same reason: a routerless run must
	// not see its streams shift because routing support exists.
	if opts.RemoteAdmission {
		s.remoteRNG = stats.NewRNG(cfg.Seed ^ remoteSeedSalt)
	}
	return s
}

// deriveResilienceDeadlines computes each Primary VM's effective timeout and
// hedge delay from the current Options.Resilience policy. Called at
// construction when the policy starts enabled, and again from
// SetResilienceEnabled when a live run turns the policy on.
func (s *Server) deriveResilienceDeadlines() {
	res := s.opts.Resilience
	for _, v := range s.vms {
		if !v.isPrimary {
			continue
		}
		v.timeout = res.Timeout
		if v.timeout == 0 && res.SLOTimeoutFactor > 0 {
			v.timeout = sim.Duration(res.SLOTimeoutFactor * float64(v.profile.MeanDemand()))
		}
		v.hedgeDelay = res.HedgeDelay
		if v.hedgeDelay == 0 && res.HedgeSLOFactor > 0 {
			v.hedgeDelay = sim.Duration(res.HedgeSLOFactor * float64(v.profile.MeanDemand()))
		}
		if v.timeout > 0 && v.hedgeDelay >= v.timeout {
			// A derived hedge delay past the timeout would never fire.
			v.hedgeDelay = v.timeout / 2
		}
	}
}

func (s *Server) now() sim.Time { return s.eng.Now() }

// newRequest takes a request object from the pool. The caller fills every
// field it needs and sets the phases with setPhases; pooled objects arrive
// zeroed except for gen and a kept heap phase slice.
func (s *Server) newRequest() *request {
	s.inv.created++
	return s.reqPool.Get()
}

// freeRequest recycles a completed request. Only call it when no queue, core,
// or pin list references the request; events that may still hold the pointer
// (pin releases) are generation-guarded, and the bump here expires them.
func (s *Server) freeRequest(r *request) {
	if r.state == rsFree {
		// Double free: tolerated-and-counted (the object is NOT pooled
		// again, so the first owner keeps it); strict mode panics inside
		// invViolate.
		s.invViolate("request %d: double free", r.id)
		return
	}
	s.setReqState(r, rsFree)
	s.inv.freed++
	var phases []workload.Phase
	if cap(r.phases) > inlinePhases {
		phases = r.phases[:0] // a heap slice: the object keeps it
	}
	if r.buf != nil {
		s.phaseBufs.Put(r.buf)
	}
	gen := r.gen + 1
	*r = request{phases: phases, gen: gen}
	s.reqPool.Put(r)
}

func (s *Server) harvestVM() *vmRT { return s.vms[s.harvestIdx] }

func (s *Server) coresOf(vmIdx int) []*coreRT {
	var out []*coreRT
	for i := range s.cores {
		if c := &s.cores[i]; c.owner == vmIdx {
			out = append(out, c)
		}
	}
	return out
}

// Run executes the simulation and returns the server's results.
func (s *Server) Run() *ServerResult {
	s.Start()
	s.eng.Run(s.horizon)
	return s.Finish()
}

// Start schedules the run's initial events (arrivals, agent ticks, fault
// plan, measurement-window hooks) without executing any of them. It is the
// setup half of Run, split out so long-lived callers (internal/serve) can
// advance the simulation in simulated-time slices with StepTo and apply
// runtime reconfiguration at the slice barriers. Stepping executes exactly
// the same events in exactly the same order as a monolithic Run: the engine
// orders events by (time, seq) regardless of how the horizon is reached.
func (s *Server) Start() {
	s.measureStart, s.measureEnd, s.stopArrivals, s.horizon = s.cfg.RunWindow()
	horizon := s.horizon

	// Observability: hand the topology to interested observers and drive
	// snapshot sinks at their requested simulated-time cadence.
	if s.obs != nil {
		if to, ok := s.obs.(obs.TopologyObserver); ok {
			to.SetTopology(s.topology())
		}
		if sink, ok := s.obs.(obs.SnapshotSink); ok {
			if iv := sink.SampleInterval(); iv > 0 {
				var tick func()
				tick = func() {
					sink.OnSnapshot(s.snapshot())
					if s.now().Add(iv) <= horizon {
						s.eng.Schedule(iv, tick)
					}
				}
				s.eng.Schedule(iv, tick)
			}
		}
	}

	// Initial work: stock the Harvest VM's job queue and kick its cores.
	if s.opts.HarvestVMActive {
		// Set-up carves exactly the request objects the stock uses.
		stock := jobStock * s.cfg.CoresPerServer
		s.reqPool.Reserve(stock)
		if s.hw != nil {
			s.hw.pool.Reserve(stock)
		}
		s.refillJobs()
		for _, c := range s.coresOf(s.harvestIdx) {
			s.eng.ScheduleCall(0, s, opDispatch, c, nil)
		}
	}
	// Remote admission: the front door drives primary arrivals through
	// AdmitRemote; only the Harvest VM's local job stream starts here.
	if !s.opts.RemoteAdmission {
		for _, v := range s.vms {
			if v.isPrimary {
				s.scheduleNextArrival(v)
			}
		}
	}
	if s.agent != nil {
		s.eng.ScheduleCall(s.cfg.AgentSample, s, opAgentSample, nil, nil)
		s.eng.ScheduleCall(s.cfg.AgentInterval, s, opAgentTick, nil, nil)
	}
	if s.cfg.FaultPlan != nil {
		s.scheduleFaults(horizon)
	}
	// Reset utilization accounting at the start of the measurement window,
	// and snapshot the per-core cycle accounts at both window edges.
	s.eng.At(s.measureStart, func() {
		s.util = metrics.NewUtilization(len(s.cores))
		for i := range s.cores {
			c := &s.cores[i]
			if c.kind == cRunOwn || c.kind == cRunLoaned {
				s.util.SetBusy(c.id, s.now(), true)
			}
		}
		s.coreWinStart = s.acctSnapshot()
	})
	s.eng.At(s.measureEnd, func() {
		// Finish freezes the accumulator: post-window SetBusy calls are
		// ignored inside metrics.Utilization.
		s.util.Finish(s.measureEnd)
		s.coreWinEnd = s.acctSnapshot()
	})
}

// StepTo advances the simulation to simulated time t (clamped to the run
// horizon) and reports whether the run has reached the horizon. Calling
// StepTo with increasing times executes the identical event sequence as a
// single Run over the full horizon. Must be preceded by Start.
func (s *Server) StepTo(t sim.Time) (done bool) {
	if t > s.horizon {
		t = s.horizon
	}
	s.eng.Run(t)
	return t >= s.horizon
}

// Finish computes and returns the run's results. Call it exactly once, after
// the simulation has reached the horizon (Run does this internally; stepped
// callers call it after StepTo reports done).
func (s *Server) Finish() *ServerResult {
	return s.result()
}

func (s *Server) setBusy(c *coreRT, busy bool) {
	s.util.SetBusy(c.id, s.now(), busy)
}

// ---- Observability hooks ----

// ev delivers one observer event carrying a request context. Call sites on
// hot paths guard with `if s.obs != nil` so the disabled path is a single
// nil check with no argument evaluation beyond locals.
func (s *Server) ev(kind obs.Kind, r *request, core int, dur sim.Duration) {
	if !s.kinds.Has(kind) {
		return
	}
	e := obs.Event{Kind: kind, Time: s.now(), VM: -1, Core: core, Dur: dur}
	if r != nil {
		e.Req = r.id
		e.VM = r.vmIdx
		e.IsJob = r.isJob
		e.Measured = r.measured
	}
	s.obs.Observe(e)
}

// evCore delivers a core-state event attributed to the core's owner VM.
func (s *Server) evCore(kind obs.Kind, c *coreRT, dur sim.Duration) {
	if !s.kinds.Has(kind) {
		return
	}
	s.obs.Observe(obs.Event{Kind: kind, Time: s.now(), VM: c.owner, Core: c.id, Dur: dur})
}

// emitDispatch reports a dispatch with its overhead spans: the whole
// dispatch-path occupation, the cross-VM re-assignment portion, and any
// critical-path flush wait (which follows the re-assignment in time).
func (s *Server) emitDispatch(c *coreRT, r *request, reassign, flushWait sim.Duration, crossVM bool) {
	now := s.now()
	e := obs.Event{Kind: obs.KindDispatch, Time: now, Req: r.id, VM: r.vmIdx,
		Core: c.id, Dur: reassign + flushWait, IsJob: r.isJob, Measured: r.measured,
		CrossVM: crossVM}
	s.observe(e)
	if s.kinds.Has(obs.KindCoreBusy) {
		s.obs.Observe(obs.Event{Kind: obs.KindCoreBusy, Time: now, VM: c.owner, Core: c.id})
	}
	if crossVM {
		e.Kind, e.Dur = obs.KindReassignStart, reassign
		s.observe(e)
		e.Kind, e.Time, e.Dur = obs.KindReassignEnd, now.Add(reassign), 0
		s.observe(e)
	}
	if flushWait > 0 {
		e.Kind, e.Time, e.Dur = obs.KindFlushStart, now.Add(reassign), flushWait
		s.observe(e)
		e.Kind, e.Time, e.Dur = obs.KindFlushEnd, now.Add(reassign+flushWait), 0
		s.observe(e)
	}
}

// observe delivers e if the observer reads its kind.
func (s *Server) observe(e obs.Event) {
	if s.kinds.Has(e.Kind) {
		s.obs.Observe(e)
	}
}

// topology describes the server's VM/core shape for observers.
func (s *Server) topology() obs.Topology {
	t := obs.Topology{Run: s.opts.Name, VMs: make([]obs.VMInfo, 0, len(s.vms))}
	for _, v := range s.vms {
		vi := obs.VMInfo{Idx: v.idx, Primary: v.isPrimary}
		if v.isPrimary {
			vi.Name = v.profile.Name
		} else {
			vi.Name = "Harvest:" + s.hwork.Name
		}
		for i := range s.cores {
			c := &s.cores[i]
			if c.owner == v.idx {
				vi.Cores = append(vi.Cores, c.id)
			}
		}
		t.VMs = append(t.VMs, vi)
	}
	return t
}

// snapshot captures current per-VM occupancy for snapshot sinks.
func (s *Server) snapshot() obs.Snapshot {
	sn := obs.Snapshot{Time: s.now(), VMs: make([]obs.VMSample, 0, len(s.vms))}
	busy := make([]int, len(s.vms))
	for i := range s.cores {
		c := &s.cores[i]
		if c.kind != cIdle {
			busy[c.owner]++
		}
	}
	for _, v := range s.vms {
		sn.VMs = append(sn.VMs, obs.VMSample{
			VM: v.idx, Running: v.running, Blocked: v.blocked,
			Queued: s.be.readyLen(v.idx), LentOut: v.lentOut,
			Pinned: len(v.pinned), BusyCores: busy[v.idx],
		})
	}
	return sn
}

func (s *Server) measuring() bool {
	t := s.now()
	return t >= s.measureStart && t < s.measureEnd
}

// ---- Arrivals and notification ----

func (s *Server) scheduleNextArrival(v *vmRT) {
	a := v.gen.Next()
	if a.At >= s.stopArrivals {
		return
	}
	v.nextInv = a.Inv
	s.eng.CallAt(a.At, s, opArrival, v, nil)
}

// arrivalFired delivers the VM's generated arrival (plus any correlated
// flash batch) and schedules the next one.
func (s *Server) arrivalFired(v *vmRT) {
	inv := v.nextInv
	v.nextInv = workload.Invocation{}
	s.onArrival(v, inv)
	// Flash batches: microservice fan-outs deliver correlated groups
	// of requests in near-lockstep.
	if s.cfg.BurstBatchProb > 0 && s.batchRNG.Float64() < s.cfg.BurstBatchProb {
		extra := 0
		for s.batchRNG.Float64() < 1-1/s.cfg.BurstBatchMean && extra < 16 {
			extra++
		}
		for i := 0; i < extra; i++ {
			s.onArrival(v, v.gen.Profile().SampleInto(s.batchRNG, &s.batchScratch))
		}
	}
	s.scheduleNextArrival(v)
}

func (s *Server) onArrival(v *vmRT, inv workload.Invocation) {
	if s.resOn {
		s.onArrivalResilient(v, inv)
		return
	}
	_, nicLat, err := s.nicDev.Deposit(v.idx, 256)
	if err != nil {
		panic(err)
	}
	if !s.opts.HWQueue {
		// Memory-mapped queues: the NIC's deposit contends with cores on
		// the cache hierarchy and the enqueue needs a locked queue write.
		nicLat += s.cfg.SWQueueAccess
	}
	s.reqSeq++
	s.arrivals++
	r := s.newRequest()
	r.id = s.reqSeq
	r.vmIdx = v.idx
	// Copy: inv.Phases aliases the generator's sampling scratch (see
	// workload.Generator.Next).
	s.setPhases(r, inv.Phases)
	r.arrival = s.now()
	r.measured = s.measuring()
	s.setReqState(r, rsTransit)
	if s.obs != nil {
		s.ev(obs.KindArrival, r, -1, nicLat)
	}
	s.eng.ScheduleCall(nicLat, s, opArrivalReady, nil, r)
}

// arrivalReady runs after the NIC deposit delay. Software harvesting: an
// arrival lands on one of the VM's vCPUs; with lent cores, some vCPUs have
// no physical core behind them and the request stalls until the hypervisor
// completes a reclaim.
func (s *Server) arrivalReady(r *request) {
	v := s.vms[r.vmIdx]
	// Queue-depth load shedding: an overloaded VM rejects the attempt at
	// the door rather than queue it past its depth budget.
	if r.call != nil && s.opts.Resilience.MaxQueueDepth > 0 &&
		s.be.readyLen(v.idx) >= s.opts.Resilience.MaxQueueDepth {
		s.shedAttempt(r)
		return
	}
	// Remotely admitted attempts shed under the same depth budget; the
	// rejection is reported to the front door, which owns the retry policy.
	if r.remoteID != 0 && s.opts.Resilience.MaxQueueDepth > 0 &&
		s.be.readyLen(v.idx) >= s.opts.Resilience.MaxQueueDepth {
		s.shedRemote(r)
		return
	}
	if s.sw != nil && s.opts.Harvesting && v.lentOut > 0 {
		pinProb := s.cfg.PinScale * float64(v.lentOut) / float64(s.cfg.CoresPerPrimary)
		if s.pollRNG.Float64() < pinProb {
			s.pinRequest(v, r)
			return
		}
	}
	s.enqueueReady(r, true)
}

func (s *Server) enqueueReady(r *request, isNew bool) {
	v := s.vms[r.vmIdx]
	var wake wakeInfo
	var woken bool
	s.setReqState(r, rsQueued)
	if isNew {
		if s.obs != nil {
			s.ev(obs.KindEnqueue, r, -1, 0)
		}
		wake, woken = s.be.enqueue(r)
	} else {
		if s.obs != nil {
			s.ev(obs.KindUnblock, r, -1, 0)
		}
		v.blocked--
		wake, woken = s.be.unblock(r)
	}
	s.notify(v, wake, woken)
}

// notify delivers the backend's wake decision (hardware) or performs the
// software discovery/reclaim logic.
func (s *Server) notify(v *vmRT, wake wakeInfo, woken bool) {
	if woken {
		c := &s.cores[wake.core]
		if wake.preempt {
			s.schedulePreempt(c)
			return
		}
		delay := s.cfg.HWNotify
		if !s.opts.HWSched {
			// The controller structure exists but cores discover work by
			// polling (conventional baseline).
			delay = s.pollDelay()
		}
		s.scheduleWake(c, delay)
		return
	}
	if s.sw == nil {
		return
	}
	// Software path: wake an idle, unlent core by polling.
	if c := s.idleCoreOf(v); c != nil {
		s.scheduleWake(c, s.pollDelay())
		return
	}
	// No idle core: in the event-driven motivation experiments the agent
	// reclaims a lent core on demand; the SmartHarvest-style agent only
	// notices at its next prediction tick (agentTick), which is exactly
	// why software harvesting hurts microsecond-scale requests.
	if s.opts.Harvesting && s.opts.EventDrivenLend && v.isPrimary &&
		v.lentOut-v.pendingReclaims > 0 &&
		s.be.readyLen(v.idx) > v.pendingReclaims {
		s.startReclaim(v)
	}
}

func (s *Server) pollDelay() sim.Duration {
	return sim.Duration(s.pollRNG.Int63n(int64(s.cfg.PollInterval)))
}

func (s *Server) idleCoreOf(v *vmRT) *coreRT {
	for i := range s.cores {
		c := &s.cores[i]
		if c.owner == v.idx && c.kind == cIdle && c.lentTo < 0 && !c.pendingWake &&
			c.offlineDepth == 0 {
			return c
		}
	}
	return nil
}

// lendableCoreOf returns an idle core the harvesting policy may take: under
// Term, only cores idle because they terminated a request; under Block, any
// idle core (including those idled by a blocking call).
func (s *Server) lendableCoreOf(v *vmRT) *coreRT {
	for i := range s.cores {
		c := &s.cores[i]
		if c.owner != v.idx || c.kind != cIdle || c.lentTo >= 0 || c.pendingWake ||
			c.offlineDepth > 0 {
			continue
		}
		if !s.opts.HarvestOnBlock && !c.idleEligible {
			continue
		}
		return c
	}
	return nil
}

func (s *Server) scheduleWake(c *coreRT, delay sim.Duration) {
	if c.pendingWake {
		return
	}
	c.pendingWake = true
	s.eng.ScheduleCall(delay, s, opWake, c, nil)
}

// ---- Dispatch and execution ----

// dispatch has the core pick its next work item. allowLoan permits
// cross-VM harvesting on the hardware path for this dispatch.
func (s *Server) dispatch(c *coreRT, allowLoan bool) {
	// An offline core serves nothing; it re-dispatches when the fault ends
	// (coreOnline). Pending dispatch-path events funnel through here, so
	// this one gate covers wakes, stall retries, and move completions.
	if c.offlineDepth > 0 {
		if c.kind != cIdle {
			s.setCoreKind(c, cIdle)
			if s.obs != nil {
				s.evCore(obs.KindCoreIdle, c, 0)
			}
		}
		c.cur = nil
		c.idleEligible = false
		return
	}
	// A frozen VM (mid-move guest synchronization) cannot schedule work.
	if s.sw != nil && c.lentTo < 0 {
		if v := s.vms[c.owner]; v.isPrimary && s.now() < v.stallUntil {
			wait := v.stallUntil.Sub(s.now())
			op := opStallRetry
			if allowLoan {
				op = opStallRetryLoan
			}
			s.eng.ScheduleCall(wait, s, op, c, nil)
			s.setCoreKind(c, cOverhead)
			return
		}
	}
	if s.sw != nil && c.lentTo >= 0 {
		// A software-lent core serves the Harvest VM. The flush/cold costs
		// of the move were charged when the hypervisor performed it
		// (startLend), so the dispatch itself is not a cross-VM event.
		r := s.be.dequeueFrom(c.lentTo, c.id)
		if r == nil {
			s.goIdle(c, false)
			return
		}
		s.startRequest(c, r, false)
		return
	}
	loan := allowLoan && s.opts.Harvesting && s.hw != nil && s.opts.HarvestVMActive &&
		s.loanAllowed(c)
	r, cross := s.be.dequeue(c.id, loan)
	if r == nil {
		// Software path: a newly idle vCPU lets the guest migrate a pinned
		// request over to it.
		if s.sw != nil {
			if v := s.vms[c.owner]; v.isPrimary && len(v.pinned) > 0 {
				s.schedulePinRelease(v, v.pinned[0], s.cfg.SWCtxSw)
			}
		}
		s.goIdle(c, allowLoan)
		return
	}
	s.startRequest(c, r, cross)
}

// loanAllowed enforces the hardware burst buffer (§4.1.5 future work): a
// Primary VM core may only be loaned while enough sibling cores stay idle
// and ready for a burst.
func (s *Server) loanAllowed(c *coreRT) bool {
	if s.opts.BurstBufferCores <= 0 || !s.vms[c.owner].isPrimary {
		return true
	}
	idle := 0
	for i := range s.cores {
		o := &s.cores[i]
		if o != c && o.owner == c.owner && o.kind == cIdle && o.offlineDepth == 0 {
			idle++
		}
	}
	return idle >= s.opts.BurstBufferCores
}

func (s *Server) goIdle(c *coreRT, eligible bool) {
	s.setCoreKind(c, cIdle)
	c.cur = nil
	c.idleEligible = eligible
	if s.obs != nil {
		s.evCore(obs.KindCoreIdle, c, 0)
	}
	// Event-driven software lending (Figures 4-5): an idle-eligible core
	// with no ready work migrates to the Harvest VM. At most one core per
	// VM is moved this way, per the paper's methodology.
	maxLent, cooldown := 1, 4*s.cfg.EventLendCooldown
	if s.opts.HarvestOnBlock {
		// The aggressive design takes blocked cores too: more cores, more
		// often (the paper observes ~3x the reassignment rate).
		maxLent, cooldown = 2, s.cfg.EventLendCooldown
	}
	if s.sw != nil && s.opts.Harvesting && s.opts.EventDrivenLend &&
		eligible && c.lentTo < 0 && s.vms[c.owner].isPrimary &&
		s.vms[c.owner].lentOut < maxLent &&
		s.be.readyLen(c.owner) == 0 &&
		s.now().Sub(s.vms[c.owner].lastLendAt) > cooldown {
		s.vms[c.owner].lastLendAt = s.now()
		s.startLend(c)
	}
}

// startRequest charges the dispatch-path overheads and begins the request's
// next CPU burst.
func (s *Server) startRequest(c *coreRT, r *request, crossVM bool) {
	v := s.vms[r.vmIdx]
	s.setCoreKind(c, cOverhead)
	c.cur = r
	s.setReqState(r, rsRunning)

	queueOp := s.cfg.SWQueueAccess
	if s.opts.HWQueue {
		queueOp = s.cfg.HWQueueOp
	}
	ctx := s.cfg.SWCtxSw
	if crossVM {
		// A cross-VM transition must also load the new VM's context
		// (VMCS, control registers, ...).
		ctx += s.cfg.SWVMContextLoad
	}
	if s.opts.HWCtxtSw {
		ctx = s.cfg.HWCtxSw
	}
	var wait sim.Duration
	// Cross-VM flush costs are a hardware-path concern here: the software
	// path charges them at hypervisor move time (startLend/startReclaim).
	if crossVM && s.opts.FlushOnSwitch && s.hw != nil {
		toHarvest := r.vmIdx == s.harvestIdx && c.owner != s.harvestIdx
		if s.opts.Partition {
			if toHarvest {
				// The Harvest VM may not start until the worst-case
				// harvest-region flush has elapsed (timing side channel,
				// §4.2.1).
				if s.opts.EffFlush {
					wait = s.cfg.PartitionFlushWait
				} else {
					wait = s.cfg.SlowRegionFlush
				}
				c.pendingFlush += wait
			} else {
				// Reclaim: the Primary VM restarts immediately on the warm
				// non-harvest region; the harvest-region flush proceeds in
				// the background. Only per-invocation private state is
				// cold.
				c.coldFactor = s.cfg.PartReclaimFactor
				c.warmLeft = s.cfg.ColdWarmupCPUTime / 2
			}
		} else {
			// Unpartitioned: full wbinvd-style flush on the critical path
			// and a cold restart.
			f := s.cfg.Costs.FlushCost(s.flushRNG)
			wait = f
			c.pendingFlush += f
			c.coldFactor = s.cfg.Costs.ColdExecutionFactor
			c.warmLeft = s.cfg.Costs.ColdWarmupCPUTime
		}
	}
	if crossVM {
		c.pendingReassign += queueOp + ctx
	}
	c.lastVM = r.vmIdx
	v.running++
	r.reassign += c.pendingReassign
	r.flush += c.pendingFlush
	c.pendingReassign = 0
	c.pendingFlush = 0
	if s.obs != nil {
		s.emitDispatch(c, r, queueOp+ctx, wait, crossVM)
	}
	s.setBusy(c, true) // dispatch overheads occupy the core
	s.eng.ScheduleCall(queueOp+ctx+wait, s, opRunBurst, c, r)
}

// scaledBurst converts raw CPU demand into simulated time under the core's
// warmth state and the system's execution factors, consuming warmup budget.
func (s *Server) scaledBurst(c *coreRT, r *request, raw sim.Duration) sim.Duration {
	base := s.cfg.WarmFactor
	if s.opts.ReplPolicy {
		base = s.cfg.ReplWarmFactor
	}
	base *= s.cfg.LLCFactor
	if !s.opts.HWSched {
		// Polling for work diverts core cycles from application logic.
		base *= s.cfg.PollExecFactor
	}
	if !s.opts.HWQueue {
		// Memory-mapped queues contend with cores on the cache hierarchy.
		base *= s.cfg.MMQueueExecFactor
	}
	if r.isJob {
		if c.owner != s.harvestIdx && s.opts.Partition {
			// Loaned cores restrict the Harvest VM to the harvest region.
			base *= s.hwork.HarvestedSlowdown()
		}
		// DRAM bandwidth contention among concurrent batch jobs.
		if extra := s.activeJobs - s.cfg.HarvestOwnCores; extra > 0 && s.cfg.MemBWSlope > 0 {
			base *= 1 + s.cfg.MemBWSlope*s.hwork.MemoryIntensity*float64(extra)
		}
	}
	coldPart := raw
	if coldPart > c.warmLeft {
		coldPart = c.warmLeft
	}
	c.warmLeft -= coldPart
	scaled := float64(coldPart)*c.coldFactor + float64(raw-coldPart)
	if c.warmLeft == 0 {
		c.coldFactor = 1
	}
	if c.degradeFactor != 1 {
		// Injected core degradation (thermal throttling, interference).
		base *= c.degradeFactor
	}
	// Overlapping degradations compound, so the product saturates rather
	// than wrapping into a negative delay.
	return sim.Span(scaled * base)
}

func (s *Server) runBurst(c *coreRT, r *request) {
	if c.offlineDepth > 0 {
		// The core was taken offline while paying dispatch overheads: the
		// work it was about to run goes back to its queue.
		c.preemptPend = false
		if r.isJob {
			s.abortJob(c, r, 0)
		} else {
			if s.obs != nil {
				s.ev(obs.KindAbort, r, c.id, 0)
			}
			s.be.preempt(c.id, r)
			s.setReqState(r, rsQueued)
			s.vms[r.vmIdx].running--
			c.cur = nil
		}
		s.setBusy(c, false)
		s.setCoreKind(c, cIdle)
		c.idleEligible = false
		if s.obs != nil {
			s.evCore(obs.KindCoreIdle, c, 0)
		}
		return
	}
	if c.preemptPend && r.isJob && c.owner != s.harvestIdx {
		// A reclamation interrupt landed while this core was still in the
		// dispatch path to Harvest work: hand the job straight back.
		c.preemptPend = false
		s.abortJob(c, r, 0)
		s.dispatch(c, false)
		return
	}
	if r.isJob && c.owner != s.harvestIdx {
		s.setCoreKind(c, cRunLoaned)
	} else {
		s.setCoreKind(c, cRunOwn)
	}
	if r.isJob {
		s.activeJobs++
	}
	raw := r.currentPhase().CPU
	scaled := s.scaledBurst(c, r, raw)
	c.burstStart = s.now()
	c.burstEnd = s.now().Add(scaled)
	c.burstScaled = scaled
	c.burstRaw = raw
	if s.obs != nil {
		s.ev(obs.KindBurstStart, r, c.id, scaled)
	}
	s.setBusy(c, true)
	c.burstEv = s.eng.ScheduleCall(scaled, s, opBurstEnd, c, r)
}

func (s *Server) onBurstEnd(c *coreRT, r *request) {
	s.setBusy(c, false)
	if r.isJob {
		s.activeJobs--
	}
	r.exec += c.burstScaled
	v := s.vms[r.vmIdx]
	ph := r.currentPhase()
	c.burstEv = sim.Event{}
	if s.obs != nil {
		// Dur is the executed time attributed to the request: stall
		// extensions count as re-assignment, not execution.
		s.ev(obs.KindBurstEnd, r, c.id, c.burstScaled)
	}

	if ph.IO > 0 {
		// Block on I/O: the request's pointer stays queued (Blocked); the
		// core moves on.
		io := ph.IO
		if s.faultIOUntil > s.now() {
			// An I/O straggler fault is active: the backend answers slowly.
			io = sim.Span(float64(io) * s.faultIOFactor)
		}
		v.running--
		v.blocked++
		if v.blockEWMA == 0 {
			v.blockEWMA = io
		} else {
			v.blockEWMA = (io + 4*v.blockEWMA) / 5
		}
		if s.obs != nil {
			s.ev(obs.KindBlock, r, c.id, io)
		}
		s.be.block(c.id, r)
		s.setReqState(r, rsBlocked)
		r.phase++
		s.eng.ScheduleCall(io, s, opIOComplete, nil, r)
		harvestOK := s.opts.HarvestOnBlock
		if harvestOK && s.opts.AdaptiveBlock && v.blockEWMA < s.cfg.AdaptiveBlockMin {
			// Adaptive fallback: short blocks make block-harvesting churn,
			// so this VM temporarily harvests on termination only.
			harvestOK = false
		}
		s.afterRelease(c, harvestOK)
		return
	}
	// Completion.
	if s.obs != nil && r.call == nil {
		s.ev(obs.KindComplete, r, c.id, s.now().Sub(r.arrival))
	}
	s.be.complete(c.id, r)
	v.running--
	if r.isJob {
		if s.measuring() {
			s.jobsDone++
		}
		s.refillJobs()
	} else if r.call != nil {
		// Resilient attempt: the call layer decides whether this completion
		// resolves the call or is a zombie (timed-out / losing attempt).
		s.completeAttempt(r, c.id)
	} else {
		s.requests++
		if r.measured {
			v.lat.Add(s.now().Sub(r.arrival))
			s.breakdown.AddRequest(r.reassign, r.flush, r.exec)
			v.breakdown.AddRequest(r.reassign, r.flush, r.exec)
		}
		if r.remoteID != 0 && s.opts.Remote.Done != nil {
			s.opts.Remote.Done(r.remoteID, s.now().Sub(r.arrival))
		}
	}
	s.afterRelease(c, true)
	// The request left every queue and metric above; recycle it last so the
	// dispatch chain in afterRelease cannot observe a half-reset object.
	s.freeRequest(r)
}

// afterRelease has a core that just finished or blocked a request pick its
// next work. harvestOK reflects the Term/Block policy for this release
// reason.
func (s *Server) afterRelease(c *coreRT, harvestOK bool) {
	s.dispatch(c, harvestOK)
}

func (s *Server) onIOComplete(r *request) {
	// The network response arrives at the NIC, which informs the QM
	// (hardware) or the response lands in the socket queue (software).
	delay := s.cfg.NICLat.QMNotify
	if !s.opts.HWQueue {
		delay = s.cfg.SWQueueAccess
	}
	s.eng.ScheduleCall(delay, s, opIOReady, nil, r)
}

// ioReady resumes a request whose I/O response has passed the queue/notify
// delay. Aggressive software harvesting takes cores mid-request: the
// resuming request's state lives on a vCPU that may now be unbacked, so the
// resume can pin just like an arrival.
func (s *Server) ioReady(r *request) {
	v := s.vms[r.vmIdx]
	if s.sw != nil && s.opts.Harvesting && s.opts.HarvestOnBlock && v.lentOut > 0 {
		pinProb := s.cfg.PinScale * float64(v.lentOut) / float64(s.cfg.CoresPerPrimary)
		if s.pollRNG.Float64() < pinProb {
			r.resuming = true
			s.pinRequest(v, r)
			return
		}
	}
	s.enqueueReady(r, false)
}

// ---- Harvest VM jobs ----

func (s *Server) refillJobs() {
	if !s.opts.HarvestVMActive {
		return
	}
	target := jobStock * s.cfg.CoresPerServer
	for s.be.readyLen(s.harvestIdx) < target {
		s.reqSeq++
		job := s.newRequest()
		job.id = s.reqSeq
		job.vmIdx = s.harvestIdx
		job.isJob = true
		job.arrival = s.now()
		s.setPhases(job, []workload.Phase{{CPU: s.jobs.Sample(s.jobRNG)}})
		s.setReqState(job, rsQueued)
		if s.obs != nil {
			s.ev(obs.KindEnqueue, job, -1, 0)
		}
		wake, woken := s.be.enqueue(job)
		s.notify(s.harvestVM(), wake, woken)
	}
}

// abortJob removes a running/starting harvest job from a core and requeues
// it with its remaining demand. elapsedScaled is how long the current burst
// has been running.
func (s *Server) abortJob(c *coreRT, job *request, elapsedScaled sim.Duration) {
	s.trimRemainder(job, elapsedScaled, c.burstScaled)
	if s.obs != nil {
		s.ev(obs.KindAbort, job, c.id, elapsedScaled)
	}
	s.be.preempt(c.id, job)
	s.setReqState(job, rsQueued)
	s.vms[s.harvestIdx].running--
	c.cur = nil
}

// trimRemainder rewrites a preempted request's current phase to its
// remaining CPU demand, given how long the burst ran against its scheduled
// scaled length.
func (s *Server) trimRemainder(r *request, elapsedScaled, burstScaled sim.Duration) {
	if elapsedScaled <= 0 || burstScaled <= 0 {
		return
	}
	consumed := sim.Duration(float64(r.currentPhase().CPU) * float64(elapsedScaled) / float64(burstScaled))
	rem := r.currentPhase().CPU - consumed
	if rem < 10*sim.Microsecond {
		rem = 10 * sim.Microsecond
	}
	r.phases[r.phase].CPU = rem
}

// ---- Hardware reclamation (§4.1.5) ----

func (s *Server) schedulePreempt(c *coreRT) {
	s.eng.ScheduleCall(s.cfg.HWInterrupt, s, opPreempt, c, nil)
}

// preemptFired services the reclamation interrupt once it reaches the core.
func (s *Server) preemptFired(c *coreRT) {
	switch c.kind {
	case cRunLoaned:
		elapsed := s.now().Sub(c.burstStart)
		s.eng.Cancel(c.burstEv)
		c.burstEv = sim.Event{}
		s.setBusy(c, false)
		s.activeJobs--
		job := c.cur
		job.exec += elapsed
		if s.obs != nil {
			s.ev(obs.KindPreempt, job, c.id, elapsed)
		}
		s.abortJob(c, job, elapsed)
		s.reassigns++
		s.dispatch(c, false)
	case cIdle:
		s.dispatch(c, c.idleEligible)
	case cOverhead:
		if c.cur != nil && c.cur.isJob {
			c.preemptPend = true
		}
	default:
		// Already running its own work; nothing to reclaim.
	}
}

// ---- Software harvesting agent (SmartHarvest-style) ----

func (s *Server) agentSample() {
	for _, v := range s.vms {
		if !v.isPrimary {
			continue
		}
		// The agent sees the VM's CPU usage counters: running vCPUs plus
		// runnable queue. Requests blocked on I/O leave their vCPU idle,
		// so the usage signal cannot tell a blocked core from a free one —
		// the Term/Block distinction is enforced on core eligibility
		// instead (lendableCoreOf).
		busy := v.running + s.be.readyLen(v.idx)
		if busy > s.cfg.CoresPerPrimary {
			busy = s.cfg.CoresPerPrimary
		}
		s.agent.Observe(v.idx, busy)
	}
	if s.now() < s.horizon {
		s.eng.ScheduleCall(s.cfg.AgentSample, s, opAgentSample, nil, nil)
	}
}

func (s *Server) agentTick() {
	s.agent.EndWindow()
	for _, v := range s.vms {
		if !v.isPrimary {
			continue
		}
		// Reclaim first: unserved demand (queued or pinned work with no
		// idle core) or a prediction that now exceeds the unlent cores.
		idle := 0
		for i := range s.cores {
			c := &s.cores[i]
			if c.owner == v.idx && c.kind == cIdle && c.lentTo < 0 && c.offlineDepth == 0 {
				idle++
			}
		}
		deficit := s.be.readyLen(v.idx) + len(v.pinned) - idle
		if want := s.cfg.CoresPerPrimary - s.agent.Lendable(v.idx, s.cfg.CoresPerPrimary); v.lentOut > want {
			if d := v.lentOut - want; d > deficit {
				deficit = d
			}
		}
		for deficit > 0 && v.lentOut-v.pendingReclaims > 0 {
			s.startReclaim(v)
			deficit--
		}
		// Then lend idle cores above the prediction plus buffer.
		lend := s.agent.Lendable(v.idx, s.cfg.CoresPerPrimary) - v.lentOut
		for lend > 0 {
			c := s.lendableCoreOf(v)
			if c == nil {
				break
			}
			s.startLend(c)
			lend--
		}
	}
	if s.now() < s.horizon {
		s.eng.ScheduleCall(s.cfg.AgentInterval, s, opAgentTick, nil, nil)
	}
}

// stallVM models the hypervisor-side disruption of a core move: detaching
// or attaching a vCPU acquires hypervisor locks and interrupts cores, so
// the VM's other running vCPUs stall for part of the move (§2, §4.1.1).
// The stall extends in-flight bursts and is attributed to re-assignment
// overhead.
func (s *Server) stallVM(v *vmRT, stall sim.Duration) {
	if stall <= 0 {
		return
	}
	until := s.now().Add(stall)
	if until > v.stallUntil {
		v.stallUntil = until
	}
	for i := range s.cores {
		c := &s.cores[i]
		if c.owner != v.idx || c.kind != cRunOwn || !c.burstEv.Valid() {
			continue
		}
		s.eng.Cancel(c.burstEv)
		c.burstEnd = c.burstEnd.Add(stall)
		if c.cur != nil {
			c.cur.reassign += stall
		}
		c.burstEv = s.eng.CallAt(c.burstEnd, s, opBurstEnd, c, c.cur)
	}
}

// pinRequest parks an arrival on an unbacked vCPU: it waits for a reclaim,
// but no longer than GuestMigrateDelay, after which the guest scheduler
// migrates the handling thread to a backed vCPU.
func (s *Server) pinRequest(v *vmRT, r *request) {
	s.pins++
	s.setReqState(r, rsPinned)
	if s.obs != nil {
		s.ev(obs.KindPin, r, -1, 0)
	}
	v.pinned = append(v.pinned, r)
	if s.opts.EventDrivenLend && v.lentOut-v.pendingReclaims > 0 {
		s.startReclaim(v)
	}
	// If another backed vCPU is idle, the guest scheduler migrates the
	// handling thread quickly (one poll plus a context switch); the long
	// waits only occur when every backed vCPU is busy.
	if s.idleCoreOf(v) != nil {
		s.schedulePinRelease(v, r, s.pollDelay()+s.cfg.SWCtxSw)
	}
	if s.pinLane == nil {
		s.pinLane = s.eng.NewLane(s.cfg.GuestMigrateDelay)
	}
	s.pinLane.Call(s, opPinRelease, nil, s.newPinRelease(v, r))
}

// pinRelease is the payload of one opPinRelease event: the pinned request,
// its VM, and the request's generation when the release was scheduled.
type pinRelease struct {
	v   *vmRT
	r   *request
	gen uint32
}

// schedulePinRelease schedules releasePin behind a request-generation guard:
// redundant release events can outlive the request (it may complete and be
// recycled through the pool first), and the guard keeps a stale event from
// acting on the slot's next occupant.
func (s *Server) schedulePinRelease(v *vmRT, r *request, d sim.Duration) {
	s.eng.ScheduleCall(d, s, opPinRelease, nil, s.newPinRelease(v, r))
}

// newPinRelease takes a release payload for r from pinPool.
func (s *Server) newPinRelease(v *vmRT, r *request) *pinRelease {
	pr := s.pinPool.Get()
	*pr = pinRelease{v: v, r: r, gen: r.gen}
	return pr
}

// pinReleaseFired recycles the event's payload, then releases the pin if
// the request object still holds the request the event was scheduled for.
func (s *Server) pinReleaseFired(pr *pinRelease) {
	v, r, gen := pr.v, pr.r, pr.gen
	*pr = pinRelease{}
	s.pinPool.Put(pr)
	if r.gen == gen {
		s.releasePin(v, r)
	}
}

// releasePin moves a pinned request into the runnable queue if it is still
// pinned; the accumulated wait counts as re-assignment overhead.
func (s *Server) releasePin(v *vmRT, r *request) {
	if s.unpin(v, r) {
		w := s.now().Sub(r.arrival)
		if r.resuming {
			w = 0 // resume waits are visible in latency, not attributed
		}
		if s.obs != nil {
			s.ev(obs.KindUnpin, r, -1, w)
		}
		s.pinWaitSum += w
		r.reassign += w
		isNew := !r.resuming
		r.resuming = false
		s.enqueueReady(r, isNew)
	}
}

// unpin removes r from v's pinned list, reporting whether it was present.
func (s *Server) unpin(v *vmRT, r *request) bool {
	for i, pr := range v.pinned {
		if pr == r {
			v.pinned = append(v.pinned[:i], v.pinned[i+1:]...)
			return true
		}
	}
	return false
}

// serializeMove accounts a software move of the given cost against the
// hypervisor's global lock and returns the delay from now until the move
// completes (queueing behind in-flight moves included).
func (s *Server) serializeMove(cost sim.Duration) sim.Duration {
	start := s.now()
	if s.moveBusyUntil > start {
		start = s.moveBusyUntil
	}
	s.moveBusyUntil = start.Add(cost)
	return s.moveBusyUntil.Sub(s.now())
}

// startLend moves an idle Primary VM core to the Harvest VM through the
// hypervisor (detach + attach + context load, plus the secure flush).
func (s *Server) startLend(c *coreRT) {
	v := s.vms[c.owner]
	v.lentOut++
	s.setCoreKind(c, cOverhead)
	c.cur = nil
	c.lentTo = s.harvestIdx
	s.reassigns++
	var cost, flushCost sim.Duration
	if !s.opts.ReassignFree {
		cost = s.cfg.Costs.ReassignCost(s.opts.Reassign)
	}
	if s.opts.FlushOnSwitch {
		flushCost = s.cfg.Costs.FlushCost(s.flushRNG)
		cost += flushCost
		c.coldFactor = s.cfg.Costs.ColdExecutionFactor
		c.warmLeft = s.cfg.Costs.ColdWarmupCPUTime
	}
	// The hypervisor calls, the wbinvd-style flush, and the guest-side
	// vCPU unplug synchronization all disrupt the VM's other vCPUs.
	s.stallVM(v, sim.Duration(float64(cost)*s.cfg.MoveStallFrac)+s.cfg.GuestUnplugStall)
	delay := s.serializeMove(cost)
	if s.obs != nil {
		s.evCore(obs.KindLendStart, c, delay)
		if flushCost > 0 {
			s.evCore(obs.KindFlushStart, c, flushCost)
			s.evCore(obs.KindFlushEnd, c, 0)
		}
	}
	s.setBusy(c, true) // the core is occupied by the move, not idle
	s.eng.ScheduleCall(delay, s, opLendEnd, c, nil)
}

// lendEnd finishes a hypervisor lend move: the core starts serving the
// Harvest VM.
func (s *Server) lendEnd(c *coreRT) {
	s.setBusy(c, false)
	if s.obs != nil {
		s.evCore(obs.KindLendEnd, c, 0)
	}
	s.dispatch(c, false)
}

// startReclaim takes a lent core back for a Primary VM that has queued work
// and no idle cores, paying the full software re-assignment cost.
func (s *Server) startReclaim(v *vmRT) {
	var victim *coreRT
	for i := range s.cores {
		c := &s.cores[i]
		if c.owner == v.idx && c.lentTo >= 0 && (c.kind == cRunLoaned || c.kind == cIdle) &&
			c.offlineDepth == 0 {
			victim = c
			break
		}
	}
	if victim == nil {
		return
	}
	v.pendingReclaims++
	s.reassigns++
	if victim.kind == cRunLoaned {
		elapsed := s.now().Sub(victim.burstStart)
		s.eng.Cancel(victim.burstEv)
		victim.burstEv = sim.Event{}
		s.setBusy(victim, false)
		s.activeJobs--
		job := victim.cur
		job.exec += elapsed
		s.abortJob(victim, job, elapsed)
	}
	s.setCoreKind(victim, cOverhead)
	victim.cur = nil
	var cost, flushPart sim.Duration
	if !s.opts.ReassignFree {
		cost = s.cfg.Costs.ReassignCost(s.opts.Reassign)
	}
	if s.opts.FlushOnSwitch {
		flushPart = s.cfg.Costs.FlushCost(s.flushRNG)
		cost += flushPart
		victim.pendingFlush += flushPart
		victim.coldFactor = s.cfg.Costs.ColdExecutionFactor
		victim.warmLeft = s.cfg.Costs.ColdWarmupCPUTime
	}
	s.stallVM(v, sim.Duration(float64(cost)*s.cfg.MoveStallFrac)+s.cfg.GuestUnplugStall)
	delay := s.serializeMove(cost)
	if s.obs != nil {
		s.evCore(obs.KindReclaimStart, victim, delay)
		if flushPart > 0 {
			s.evCore(obs.KindFlushStart, victim, flushPart)
			s.evCore(obs.KindFlushEnd, victim, 0)
		}
	}
	// Lock-queueing plus the move itself are re-assignment overhead on the
	// reclaimed core's next request; the flush part is attributed above.
	victim.pendingReassign += delay - flushPart
	s.setBusy(victim, true)
	s.eng.ScheduleCall(delay, s, opReclaimEnd, victim, nil)
}

// reclaimEnd finishes a hypervisor reclaim move: the core returns to its
// owner VM and every pinned arrival becomes schedulable.
func (s *Server) reclaimEnd(victim *coreRT) {
	v := s.vms[victim.owner]
	s.setBusy(victim, false)
	victim.lentTo = -1
	v.lentOut--
	v.pendingReclaims--
	if s.obs != nil {
		s.evCore(obs.KindReclaimEnd, victim, 0)
	}
	// The reclaimed vCPU is schedulable again: release every pinned
	// arrival; the wait counts as re-assignment overhead (Figure 6).
	pinned := v.pinned
	v.pinned = nil
	for _, pr := range pinned {
		if s.obs != nil {
			s.ev(obs.KindUnpin, pr, -1, s.now().Sub(pr.arrival))
		}
		pr.reassign += s.now().Sub(pr.arrival)
		s.enqueueReady(pr, true)
	}
	s.dispatch(victim, false)
}

// ---- Results ----

// CoreCycles is one core's cycle account over a span of simulated time,
// split by phase: Idle, Overhead (dispatch paths, flushes, hypervisor and
// controller moves), RunOwn (executing the owner VM's work), and RunLoaned
// (executing harvested work for another VM). The four buckets sum exactly
// to the span — that identity is what the validate oracle's utilization-
// conservation check asserts.
type CoreCycles struct {
	Idle      sim.Duration
	Overhead  sim.Duration
	RunOwn    sim.Duration
	RunLoaned sim.Duration
}

// Total sums the four phase buckets.
func (cc CoreCycles) Total() sim.Duration {
	return cc.Idle + cc.Overhead + cc.RunOwn + cc.RunLoaned
}

// Sub reports the bucket-wise difference cc - other.
func (cc CoreCycles) Sub(other CoreCycles) CoreCycles {
	return CoreCycles{
		Idle:      cc.Idle - other.Idle,
		Overhead:  cc.Overhead - other.Overhead,
		RunOwn:    cc.RunOwn - other.RunOwn,
		RunLoaned: cc.RunLoaned - other.RunLoaned,
	}
}

// acctSnapshot folds every core's open phase interval into its account and
// returns a copy of the accounts (nil on uninstrumented runs, whose
// setCoreKind skips accounting). It runs at most three times per run
// (window edges and end of run), never on the event hot path.
func (s *Server) acctSnapshot() []CoreCycles {
	if !s.acctOn {
		return nil
	}
	now := s.now()
	out := make([]CoreCycles, len(s.cores))
	for i := range s.cores {
		c := &s.cores[i]
		c.acct[c.kind] += now.Sub(c.acctSince)
		c.acctSince = now
		out[i] = CoreCycles{
			Idle:      c.acct[cIdle],
			Overhead:  c.acct[cOverhead],
			RunOwn:    c.acct[cRunOwn],
			RunLoaned: c.acct[cRunLoaned],
		}
	}
	return out
}

func (s *Server) result() *ServerResult {
	res := &ServerResult{
		System:    s.opts.Name,
		Workload:  s.hwork.Name,
		Service:   make(map[string]*metrics.LatencyRecorder, s.cfg.PrimaryVMs),
		Breakdown: s.breakdown,
		Elapsed:   s.cfg.MeasureDuration,
		Reassigns: s.reassigns,
		Requests:  s.requests,
		Arrivals:  s.arrivals,
		Pins:      s.pins,
	}
	if s.pins > 0 {
		res.MeanPinWait = s.pinWaitSum / sim.Duration(s.pins)
	}
	res.ServiceBreakdown = make(map[string]metrics.Breakdown, s.cfg.PrimaryVMs)
	for _, v := range s.vms {
		if v.isPrimary {
			// Freeze pre-sorts the samples: a published ServerResult is read
			// concurrently by experiments sharing memoized runs, and lazy
			// quantile sorting would race.
			v.lat.Freeze()
			res.Service[v.profile.Name] = v.lat
			res.ServiceBreakdown[v.profile.Name] = v.breakdown
		}
	}
	res.BusyCores = s.util.BusyCores(s.cfg.MeasureDuration)
	res.CoreCyclesTotal = s.acctSnapshot()
	res.AccountedEnd = s.now()
	if len(s.coreWinStart) > 0 && len(s.coreWinEnd) > 0 {
		res.CoreCyclesWindow = make([]CoreCycles, len(s.coreWinEnd))
		for i := range s.coreWinEnd {
			res.CoreCyclesWindow[i] = s.coreWinEnd[i].Sub(s.coreWinStart[i])
		}
	}
	res.HarvestJobs = s.jobsDone
	res.HarvestJobsPerSec = float64(s.jobsDone) / s.cfg.MeasureDuration.Seconds()
	s.checkConservation()
	res.InvariantViolations = s.inv.violations
	res.FirstViolation = s.inv.firstMsg
	res.FaultsInjected = s.faultsInjected
	res.Sheds = s.sheds
	res.Retries = s.retries
	res.Hedges = s.hedges
	res.HedgesWon = s.hedgesWon
	res.HedgesLost = s.hedgesLost
	res.DeadlineMisses = s.deadlineMisses
	return res
}

// ServerResult summarizes one server run.
type ServerResult struct {
	System   string
	Workload string
	// Service maps service name to its latency recorder.
	Service map[string]*metrics.LatencyRecorder
	// Breakdown accumulates Figure 6's per-request components; the
	// ServiceBreakdown map holds the per-service split.
	Breakdown        metrics.Breakdown
	ServiceBreakdown map[string]metrics.Breakdown
	// BusyCores is the time-averaged busy core count (§6.7).
	BusyCores float64
	// HarvestJobs / HarvestJobsPerSec report Harvest VM throughput.
	HarvestJobs       uint64
	HarvestJobsPerSec float64
	// Reassigns counts core movements between VMs.
	Reassigns uint64
	// Pins counts arrivals that landed on unbacked vCPUs; MeanPinWait is
	// their average stall.
	Pins        uint64
	MeanPinWait sim.Duration
	// Requests is the number of completed primary invocations; Arrivals is
	// how many entered the system (the difference is in flight when the
	// engine stops).
	Requests int
	Arrivals int
	Elapsed  sim.Duration

	// CoreCyclesWindow is each core's phase-split cycle account over the
	// measurement window (idle + overhead + own-run + loaned-run sums to
	// MeasureDuration exactly); CoreCyclesTotal covers the whole run up to
	// AccountedEnd. Both feed the validate oracle's utilization-
	// conservation check and are populated only on instrumented runs
	// (Options.Observer != nil) — plain runs skip the per-transition
	// accounting to keep the hot path lean.
	CoreCyclesWindow []CoreCycles
	CoreCyclesTotal  []CoreCycles
	AccountedEnd     sim.Time

	// InvariantViolations counts checker violations tolerated during the
	// run (always zero under Config.Strict, which panics instead);
	// FirstViolation describes the first one.
	InvariantViolations uint64
	FirstViolation      string
	// Robustness counters: injected faults, load-shed attempts, retry and
	// hedge attempts, hedge outcomes, and calls that exhausted their retry
	// budget (deadline misses).
	FaultsInjected uint64
	Sheds          uint64
	Retries        uint64
	Hedges         uint64
	HedgesWon      uint64
	HedgesLost     uint64
	DeadlineMisses uint64
}

// P99 reports a service's tail latency (zero if the service is unknown).
func (r *ServerResult) P99(service string) sim.Duration {
	if rec, ok := r.Service[service]; ok {
		return rec.P99()
	}
	return 0
}

// AvgP99 reports the mean of the per-service P99s, the paper's "Average"
// bar.
func (r *ServerResult) AvgP99() sim.Duration {
	var sum sim.Duration
	n := 0
	for _, rec := range r.Service {
		sum += rec.P99()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Duration(n)
}

// AvgP50 reports the mean of the per-service median latencies.
func (r *ServerResult) AvgP50() sim.Duration {
	var sum sim.Duration
	n := 0
	for _, rec := range r.Service {
		sum += rec.P50()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Duration(n)
}

func (r *ServerResult) String() string {
	return fmt.Sprintf("%s[%s]: avgP99=%v busy=%.1f jobs/s=%.0f",
		r.System, r.Workload, r.AvgP99(), r.BusyCores, r.HarvestJobsPerSec)
}
