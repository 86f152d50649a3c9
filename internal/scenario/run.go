package scenario

import (
	"fmt"
	"math"
	"strings"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/front"
	"hardharvest/internal/graph"
	"hardharvest/internal/obs"
	"hardharvest/internal/route"
	"hardharvest/internal/sim"
	"hardharvest/internal/validate"
)

// The scenario runner. A scenario compiles to one serverSpec per fleet
// server plus a sorted list of barrier-aligned control actions per server
// (and, in fronted runs, for the front door). Every action becomes an
// engine event at its barrier, so the run is one engine event sequence per
// member: by the step-equivalence guarantee of DESIGN §8, how far each
// engine is stepped at a time never perturbs it. Each server is a member
// of a sim.ShardGroup — one engine per server, advanced in parallel across
// worker goroutines — with seeds derived exactly as RunCluster derives
// them; fronted runs add the router or DAG dispatcher as one more member
// linked to every server. The group's conservative windows are independent
// of the worker count, so identical inputs produce a byte-identical summary
// at any -shards value, including 1.

// action kinds, in the order they apply within one barrier.
type actKind int

const (
	actIntensity actKind = iota
	actVMIntensity
	actFaults
	actResilience
	actHarvestOnBlock
	actDrain
)

// action is one compiled control mutation, for one server or, in fronted
// (routed or graph) runs, for the front door.
type action struct {
	at   sim.Time
	seq  int // document order; breaks ties at a shared barrier
	kind actKind
	x    float64
	vm   int
	on   bool
	plan *faults.Plan
	// Front-door actions only: the source server whose generators an
	// intensity change scales, or the backend to drain, and the drain
	// deadline.
	src      int
	deadline sim.Duration
}

// sortActions orders actions totally: barrier time first, then document
// order. The insertion sort is stable, so one timeline entry fanned out to
// several source servers keeps fleet order, and the compile stays
// dependency-free.
func sortActions(acts []action) {
	for i := 1; i < len(acts); i++ {
		for j := i; j > 0 && (acts[j].at < acts[j-1].at ||
			(acts[j].at == acts[j-1].at && acts[j].seq < acts[j-1].seq)); j-- {
			acts[j], acts[j-1] = acts[j-1], acts[j]
		}
	}
}

// serverSpec is one expanded fleet server.
type serverSpec struct {
	index   int
	group   *Group
	cfg     cluster.Config
	opts    cluster.Options
	work    *batch.Workload
	actions []action
}

// barrier quantizes a scenario timestamp to the first barrier at or after
// it. Validation guarantees the result lies on an in-run barrier.
func (sc *Scenario) barrier(atMS float64) sim.Time {
	step := float64(sc.StepMS)
	n := int64(math.Ceil(atMS/step - 1e-9))
	if n < 0 {
		n = 0
	}
	return sim.Time(sim.Duration(n*int64(sc.StepMS)) * sim.Millisecond)
}

// compile expands the fleet and distributes timeline entries and events to
// the servers they target as barrier-aligned actions. In fronted runs the
// workload timeline (and drain events) compile to front-door actions
// instead: the router or graph dispatcher owns the generators, so
// intensity changes land there, while fault/resilience/harvest toggles
// stay server-side.
func (sc *Scenario) compile() ([]*serverSpec, []action, error) {
	specs := make([]*serverSpec, 0, sc.Servers())
	for gi := range sc.Fleet {
		g := &sc.Fleet[gi]
		kind, err := cluster.ParseSystem(g.System)
		if err != nil {
			return nil, nil, err
		}
		work, err := batch.WorkloadByName(g.Workload)
		if err != nil {
			return nil, nil, err
		}
		for j := 0; j < g.Count; j++ {
			i := len(specs)
			cfg := cluster.DefaultConfig()
			cfg.Seed = cluster.ServerSeed(sc.Seed, i)
			cfg.Strict = sc.Strict
			cfg.CoresPerServer = g.Cores
			cfg.PrimaryVMs = g.PrimaryVMs
			cfg.CoresPerPrimary = g.CoresPerPrimary
			cfg.HarvestOwnCores = g.HarvestCores
			cfg.WarmupDuration = sim.Duration(sc.WarmupMS) * sim.Millisecond
			cfg.MeasureDuration = sim.Duration(sc.DurationMS) * sim.Millisecond
			if g.LoadScale > 0 {
				cfg.LoadScale = g.LoadScale
			}
			// Hardware generation: scale every cache-warmth execution
			// factor, so a slower generation stretches CPU bursts uniformly.
			if f := g.effExecFactor(); f != 1.0 {
				cfg.WarmFactor *= f
				cfg.ReplWarmFactor *= f
				cfg.ColdFactor *= f
				cfg.PartReclaimFactor *= f
			}
			specs = append(specs, &serverSpec{
				index: i,
				group: g,
				cfg:   cfg,
				opts:  cluster.SystemOptions(kind),
				work:  work,
			})
		}
	}

	// Distribute workload-timeline entries. seq is the entry's document
	// position; events follow all timeline entries in the tiebreak order.
	// In fronted runs the generators live at the front door, so each entry
	// becomes a front action against its source server's generator set (in
	// graph mode only root-group servers have generators; entries selecting
	// only non-root servers are rejected at validation).
	fronted := sc.Routing != nil || sc.Graph != nil
	var fronts []action
	for ti := range sc.Workload {
		e := &sc.Workload[ti]
		for _, s := range specs {
			if !e.Target.selects(&serverRun{index: s.index, group: s.group.Name}) {
				continue
			}
			if sc.Graph != nil && s.group.Name != sc.rootGroup() {
				continue
			}
			acts := &s.actions
			if fronted {
				acts = &fronts
			}
			at := sc.barrier(e.AtMS)
			switch e.Kind {
			case TlIntensity:
				*acts = append(*acts, action{at: at, seq: ti, kind: actIntensity, x: e.Intensity, src: s.index})
			case TlVMIntensity:
				*acts = append(*acts, action{at: at, seq: ti, kind: actVMIntensity, x: e.Intensity, vm: e.VM, src: s.index})
			case TlFlashCrowd:
				// A flash crowd multiplies the plain-intensity baseline for
				// its window: set base*factor at the start barrier, restore
				// the baseline in effect at the end barrier.
				end := sc.barrier(e.AtMS + e.DurationMS)
				*acts = append(*acts,
					action{at: at, seq: ti, kind: actIntensity, x: sc.baselineAt(at, s) * e.Factor, src: s.index},
					action{at: end, seq: ti, kind: actIntensity, x: sc.baselineAt(end, s), src: s.index})
			}
		}
	}
	for ei := range sc.Events {
		e := &sc.Events[ei]
		for _, s := range specs {
			if !e.Target.selects(&serverRun{index: s.index, group: s.group.Name}) {
				continue
			}
			a := action{at: sc.barrier(e.AtMS), seq: len(sc.Workload) + ei}
			switch e.Kind {
			case EvFaults:
				a.kind, a.plan = actFaults, e.Plan
			case EvResilience:
				a.kind, a.on = actResilience, e.On
			case EvHarvestOnBlock:
				a.kind, a.on = actHarvestOnBlock, e.On
			case EvDrain:
				a.kind, a.src = actDrain, s.index
				a.deadline, _ = sim.FromMilliseconds(e.DeadlineMS) // validated
				fronts = append(fronts, a)
				continue
			}
			s.actions = append(s.actions, a)
		}
	}
	for _, s := range specs {
		sortActions(s.actions)
	}
	sortActions(fronts)
	return specs, fronts, nil
}

// baselineAt reports the plain-intensity baseline in effect at a barrier
// for one server: the last plain "intensity" entry targeting it at or
// before t, or 1.0. Flash crowds multiply this baseline rather than
// stacking on each other.
func (sc *Scenario) baselineAt(t sim.Time, s *serverSpec) float64 {
	base := 1.0
	for ti := range sc.Workload {
		e := &sc.Workload[ti]
		if e.Kind != TlIntensity || !e.Target.selects(&serverRun{index: s.index, group: s.group.Name}) {
			continue
		}
		if sc.barrier(e.AtMS) <= t {
			base = e.Intensity
		}
	}
	return base
}

// Report is one finished scenario run.
type Report struct {
	Scenario *Scenario
	Summary  string         // deterministic, byte-replayable rendering
	Asserts  []AssertResult // declared assertions, in document order
	Failed   int            // failed assertions + failed oracle checks
	Fleet    *route.Result  // router-side results (nil for routerless runs)
	Graph    *graph.Result  // dispatcher-side results (nil without a graph block)
}

// OK reports whether every assertion and oracle check passed.
func (r *Report) OK() bool { return r.Failed == 0 }

// Run executes a validated scenario and evaluates its assertions. On top
// of the declared assertions, the oracle's flow-balance and Little's-law
// checks run on every server of the fleet unconditionally — a scenario
// cannot opt out of conservation. Fleet servers run sharded (one engine per
// server, a worker per available CPU); RunShards selects the worker count
// explicitly.
func (sc *Scenario) Run() (*Report, error) { return sc.RunShards(0) }

// srvState is one fleet server being advanced inside the shard group: the
// live server plus its action ledger. Only the server's own engine events
// touch it, so it needs no lock.
type srvState struct {
	spec    *serverSpec
	srv     *cluster.Server
	meter   *obs.Meter
	audit   *obs.Audit
	applied int
	err     error
}

// scheduleActions installs the server's compiled actions as engine events.
// Call it before the server starts: an action then fires ahead of every
// other event at its barrier instant. As events, actions are visible to
// the shard group's floor computation, so a member idles until its next
// action like until any other event, and an action whose side effects
// message another member (an injected crash notifying the router) is
// covered by the conservative window caps. An apply error is recorded and
// later actions are skipped, but the simulation keeps running — freezing
// the engine mid-group-run would stall every linked member's window cap.
func (st *srvState) scheduleActions() {
	for _, a := range st.spec.actions {
		a := a
		st.srv.Engine().At(a.at, func() {
			if st.err != nil {
				return
			}
			if err := applyAction(st.srv, a, a.at); err != nil {
				st.err = err
				return
			}
			st.applied++
		})
	}
}

// RunShards is Run with an explicit worker count: the fleet becomes a
// sim.ShardGroup with one member per server, plus the router or dispatcher
// in fronted runs, advanced on up to `shards` goroutines (<= 0 selects
// GOMAXPROCS). Routerless servers exchange no events, so they all advance
// to the horizon in one conservative window; fronted members advance in
// lookahead-bounded windows. The group's window algorithm is independent
// of the worker count, so summaries are byte-identical at any shards value.
// Fleet servers record latencies in bounded sketch mode (stats.Sketch):
// memory stays flat across thousand-server, long-horizon runs.
func (sc *Scenario) RunShards(shards int) (*Report, error) {
	specs, fronts, err := sc.compile()
	if err != nil {
		return nil, err
	}
	routed := sc.Routing != nil
	graphed := sc.Graph != nil
	fronted := routed || graphed
	var rc route.Config
	if routed {
		if rc, err = sc.Routing.toConfig(); err != nil {
			return nil, err
		}
	}
	group := sim.NewShardGroup(shards)
	states := make([]*srvState, len(specs))
	servers := make([]*cluster.Server, len(specs))
	backends := make([]front.Backend, len(specs))
	horizon := sim.Time(0)
	for i, s := range specs {
		meter := obs.NewMeter()
		audit := obs.NewAudit()
		s.opts.Observer = obs.Multi(meter, audit)
		s.opts.SketchLatency = true
		s.opts.RemoteAdmission = fronted
		srv := cluster.NewServer(s.cfg, s.opts, s.work)
		st := &srvState{spec: s, srv: srv, meter: meter, audit: audit}
		states[i], servers[i] = st, srv
		st.scheduleActions()
		if fronted {
			// Fronted: arrival generation is off, and front.Wire starts the
			// server once the front door has installed its hooks.
			backends[i] = front.Backend{
				Server: srv, Cfg: s.cfg,
				Name:   fmt.Sprintf("server%d[%s]", s.index, s.group.Name),
				Weight: 1 / s.group.effExecFactor(),
			}
			continue
		}
		srv.Start()
		horizon = max(horizon, srv.Horizon())
		srv.JoinGroup(group)
	}
	var rt *route.Router
	var gd *graph.Dispatcher
	if routed {
		rt = route.New(rc, backends)
		horizon = front.Wire(group, rt, servers)
		rt.SetActions(frontActions[*route.Router](fronts))
	} else if graphed {
		groups := make([]string, len(specs))
		for i, s := range specs {
			groups[i] = s.group.Name
		}
		spec := sc.Graph.spec
		gd = graph.New(spec, backends, spec.TierServers(groups))
		horizon = front.Wire(group, gd, servers)
		gd.SetActions(frontActions[*graph.Dispatcher](fronts))
	}
	group.Run(horizon)

	runs := make([]*serverRun, 0, len(specs))
	applied := make([]int, len(specs))
	for i, st := range states {
		if st.err != nil {
			return nil, fmt.Errorf("scenario: server %d: %w", st.spec.index, st.err)
		}
		res := st.srv.Finish()
		st.audit.Finish(res.AccountedEnd)
		applied[i] = st.applied
		runs = append(runs, &serverRun{
			index: st.spec.index, group: st.spec.group.Name, res: res, meter: st.meter, audit: st.audit,
		})
	}
	var fleet *route.Result
	if routed {
		fleet = rt.Finish()
		if sc.PerturbFleet {
			fleet.Generated++ // teeth check: the conservation oracle must notice
		}
	}
	var gres *graph.Result
	var gr *graphRun
	if graphed {
		gres = gd.Finish()
		if sc.PerturbGraphMC {
			// Teeth check for the Monte-Carlo cross-check: corrupt one tier's
			// measured hop distribution so the composed tails drift away from
			// the measured end-to-end sketch while every counter ledger (and
			// with it graph conservation) stays intact.
			hop := gres.Tiers[0].Hop
			inflated := hop.Max() * 10
			for i, n := 0, hop.Count()/5+1; i < n; i++ {
				hop.Add(inflated)
			}
		}
		gr = &graphRun{sc: sc, res: gres}
	}

	rep := &Report{Scenario: sc, Fleet: fleet, Graph: gres}
	oracleOK := 0
	oracleDetail := ""
	for _, r := range runs {
		for _, name := range []string{"flow_balance", "littles_law"} {
			c := metricsByName[name].check(r)
			if c.OK {
				oracleOK++
				continue
			}
			rep.Failed++
			if oracleDetail == "" {
				oracleDetail = fmt.Sprintf("%s FAIL on server %d [%s]: %s", name, r.index, r.group, c.Detail)
			}
		}
	}
	if routed {
		// The fleet-conservation oracle is as mandatory as the per-server
		// pair: a routed scenario cannot opt out of no-silent-loss.
		if c := fleet.Conservation("fleet"); c.OK {
			oracleOK++
		} else {
			rep.Failed++
			if oracleDetail == "" {
				oracleDetail = "fleet_conservation FAIL: " + c.Detail
			}
		}
	}
	if graphed {
		// Graph conservation is equally mandatory: a shed subtree must
		// still drain its joins, and the RPC ledgers must balance.
		if c := validate.GraphResultConservation("graph", gres); c.OK {
			oracleOK++
		} else {
			rep.Failed++
			if oracleDetail == "" {
				oracleDetail = "graph_conservation FAIL: " + c.Detail
			}
		}
	}
	for _, a := range sc.Assertions {
		ar := evalAssertion(a, runs, fleet, gr)
		if !ar.OK {
			rep.Failed++
		}
		rep.Asserts = append(rep.Asserts, ar)
	}
	rep.Summary = sc.renderSummary(specs, runs, applied, rep, oracleOK, oracleDetail, fleet, gres)
	return rep, nil
}

// frontActions lowers the compiled front-door actions onto a front
// door's schedule. Install them after front.Wire: the door's generators
// and probes are scheduled first, so same-time ties resolve as they always
// have.
func frontActions[F interface {
	SetIntensity(src int, x float64)
	SetVMIntensity(src, vm int, x float64)
}](acts []action) []front.Action[F] {
	out := make([]front.Action[F], len(acts))
	for i, a := range acts {
		a := a
		out[i] = front.Action[F]{At: a.at, Seq: a.seq, Fn: func(f F) {
			switch a.kind {
			case actIntensity:
				f.SetIntensity(a.src, a.x)
			case actVMIntensity:
				f.SetVMIntensity(a.src, a.vm, a.x)
			case actDrain:
				// Validation admits drain only with a routing block.
				any(f).(*route.Router).StartDrain(a.src, a.deadline)
			}
		}}
	}
	return out
}

func applyAction(srv *cluster.Server, a action, at sim.Time) error {
	switch a.kind {
	case actIntensity:
		return srv.SetIntensity(a.x)
	case actVMIntensity:
		return srv.SetVMIntensity(a.vm, a.x)
	case actFaults:
		return srv.InjectFaultPlan(a.plan, at)
	case actResilience:
		srv.SetResilienceEnabled(a.on)
		return nil
	case actHarvestOnBlock:
		srv.SetHarvestOnBlock(a.on)
		return nil
	default:
		return fmt.Errorf("unknown action kind %d", a.kind)
	}
}

// renderSummary is the single scenario renderer: a pure function of the
// run's inputs and results — no wall-clock, no map iteration, no pointers —
// so identical scenarios produce byte-identical summaries.
func (sc *Scenario) renderSummary(specs []*serverSpec, runs []*serverRun,
	applied []int, rep *Report, oracleOK int, oracleDetail string,
	routed *route.Result, graphed *graph.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== hhsim scenario summary ==\n")
	fmt.Fprintf(&b, "scenario=%s seed=%d servers=%d warmup=%dms measure=%dms step=%dms\n",
		sc.Name, sc.Seed, len(specs), sc.WarmupMS, sc.DurationMS, sc.StepMS)
	fleet := make([]string, len(sc.Fleet))
	for i := range sc.Fleet {
		g := &sc.Fleet[i]
		fleet[i] = fmt.Sprintf("%s=%dx %s/%s", g.Name, g.Count, g.System, g.Workload)
	}
	fmt.Fprintf(&b, "fleet: %s\n", strings.Join(fleet, "  "))
	if graphed != nil {
		spec := sc.Graph.spec
		tiers := make([]string, len(spec.Tiers))
		for i := range spec.Tiers {
			tiers[i] = spec.Tiers[i].Name
		}
		fmt.Fprintf(&b, "graph: root=%s rpc_delay_us=%s tiers=%s nodes=%d\n",
			spec.Tiers[spec.Root].Name, fnum(float64(spec.NetDelay)/float64(sim.Microsecond)),
			strings.Join(tiers, ","), spec.Nodes())
	}
	if routed != nil {
		r := sc.Routing
		fmt.Fprintf(&b, "routing: policy=%s net_delay_us=%s probe_ms=%s unhealthy_after=%d healthy_after=%d eject_after=%d eject_backoff_ms=%s max_failovers=%d\n",
			r.Policy, fnum(r.NetworkDelayUS), fnum(r.ProbeIntervalMS),
			r.UnhealthyAfter, r.HealthyAfter, r.EjectAfter, fnum(r.EjectBackoffMS), r.MaxFailovers)
	}
	for i, r := range runs {
		g := specs[i].group
		fmt.Fprintf(&b, "server %d [%s] cores=%d exec_factor=%s actions=%d\n",
			r.index, r.group, g.Cores, fnum(g.effExecFactor()), applied[i])
		fmt.Fprintf(&b, "  result: %s\n", r.res)
		fmt.Fprintf(&b, "  jobs=%d (%.0f/s) busy=%.2f\n",
			r.res.HarvestJobs, r.res.HarvestJobsPerSec, r.res.BusyCores)
		fmt.Fprintf(&b, "  counters: %s\n", r.meter.Counters())
		fmt.Fprintf(&b, "  latency:  %s\n", r.meter.Hist())
		if r.res.InvariantViolations > 0 {
			fmt.Fprintf(&b, "  INVARIANT VIOLATIONS: %d (first: %s)\n",
				r.res.InvariantViolations, r.res.FirstViolation)
		}
	}
	if routed != nil {
		fmt.Fprintf(&b, "router: generated=%d dispatched=%d (initial=%d failovers=%d) completed=%d shed=%d lost=%d (at_admit=%d) inflight=%d\n",
			routed.Generated, routed.Dispatches, routed.InitialDispatches, routed.Failovers,
			routed.Completions, routed.Sheds, routed.Lost, routed.LostAtAdmit, routed.InflightEnd)
		fmt.Fprintf(&b, "  replies: done=%d shed=%d zombie_dones=%d zombie_sheds=%d outstanding=%d\n",
			routed.DoneRecv, routed.ShedRecv, routed.ZombieDones, routed.ZombieSheds, routed.OutstandingEnd)
		fmt.Fprintf(&b, "  health: probes=%d fails=%d ejections=%d readmits=%d drains=%d\n",
			routed.Probes, routed.ProbeFails, routed.Ejections, routed.Readmits, routed.Drains)
		fmt.Fprintf(&b, "  fleet latency: p50=%sms p99=%sms n=%d\n",
			fnum(routed.FleetLatency.P50()), fnum(routed.FleetLatency.P99()), routed.FleetLatency.Count())
		for _, br := range routed.Backends {
			fmt.Fprintf(&b, "  backend %s state=%s dispatched=%d done=%d shed=%d zombies=%d failovers_out=%d lost=%d unhealthy_spells=%d crashes=%d edge_p99=%sms\n",
				br.Name, br.State, br.Dispatches, br.Dones, br.Sheds,
				br.ZombieDones+br.ZombieSheds, br.FailoversOut, br.Lost,
				br.UnhealthySpells, br.Crashes, fnum(br.EdgeLatency.P99()))
		}
	}
	if graphed != nil {
		fmt.Fprintf(&b, "dag: generated=%d completed=%d failed=%d inflight=%d\n",
			graphed.Generated, graphed.Completed, graphed.Failed, graphed.InflightEnd)
		fmt.Fprintf(&b, "  rpcs: dispatched=%d done=%d shed=%d outstanding=%d\n",
			graphed.Dispatches, graphed.DoneRecv, graphed.ShedRecv, graphed.OutstandingEnd)
		fmt.Fprintf(&b, "  e2e latency: p50=%sms p99=%sms n=%d\n",
			fnum(graphed.E2E.P50()), fnum(graphed.E2E.P99()), graphed.E2E.Count())
		for _, tr := range graphed.Tiers {
			fmt.Fprintf(&b, "  tier %s servers=%d vm=%d rpcs=%d done=%d shed=%d hop_p50=%sms hop_p99=%sms\n",
				tr.Name, tr.Servers, tr.VM, tr.Dispatches, tr.Dones, tr.Sheds,
				fnum(tr.Hop.P50()), fnum(tr.Hop.P99()))
		}
	}
	oracleTotal := 2 * len(runs)
	if routed != nil {
		oracleTotal++
	}
	if graphed != nil {
		oracleTotal++
	}
	if oracleDetail == "" {
		switch {
		case routed != nil:
			fmt.Fprintf(&b, "oracle: flow-balance+littles-law PASS on %d/%d servers; fleet conservation PASS\n",
				len(runs), len(runs))
		case graphed != nil:
			fmt.Fprintf(&b, "oracle: flow-balance+littles-law PASS on %d/%d servers; graph conservation PASS\n",
				len(runs), len(runs))
		default:
			fmt.Fprintf(&b, "oracle: flow-balance+littles-law PASS on %d/%d servers\n", len(runs), len(runs))
		}
	} else {
		fmt.Fprintf(&b, "oracle: %d/%d checks passed; first failure: %s\n",
			oracleOK, oracleTotal, oracleDetail)
	}
	if len(rep.Asserts) > 0 {
		fmt.Fprintf(&b, "assertions:\n")
		for _, ar := range rep.Asserts {
			status := "PASS"
			if !ar.OK {
				status = "FAIL"
			}
			fmt.Fprintf(&b, "  %s %s %s [%s] — %s\n",
				status, ar.Assertion.Metric, ar.Assertion.bounds(), ar.Assertion.Target, ar.Detail)
		}
	}
	verdict := "PASS"
	if rep.Failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "result: %s (%d assertions, %d oracle checks, %d failed)\n",
		verdict, len(rep.Asserts), oracleTotal, rep.Failed)
	return b.String()
}
