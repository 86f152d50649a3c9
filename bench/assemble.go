package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/graph"
	"hardharvest/internal/obs"
	"hardharvest/internal/route"
	"hardharvest/internal/scenario"
	"hardharvest/internal/serve"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
	"hardharvest/internal/validate"
)

// The assembler rebuilds a workload's fleet from the layers' public
// constructors (cluster.NewServer, route.New, graph.New, sim.ShardGroup),
// wired in the order scenario.RunShards and the serve runner wire it, so that
// each member's advance function can be wrapped with a timer. Its output must
// match the untraced run line for line; the benchmark checks that on every
// traced pass. It supports only what the benchmark's workloads use.

// fleet is one assembled and started shard group.
type fleet struct {
	group   *sim.ShardGroup
	servers []*cluster.Server
	names   []string
	meters  []*obs.Meter
	audits  []*obs.Audit // nil for serve fleets, which run without an audit
	errs    []error      // first fault-plan error per server
	rt      *route.Router
	gd      *graph.Dispatcher
	horizon sim.Time
	step    sim.Duration // > 0: advance in barriers of this size, as the serve runner does

	results  []*cluster.ServerResult
	routeRes *route.Result
	graphRes *graph.Result
}

// supported rejects every scenario block the assembler does not reproduce.
func supported(sc *scenario.Scenario) error {
	switch {
	case len(sc.Workload) > 0:
		return fmt.Errorf("assembler: workload timelines are not supported")
	case len(sc.Assertions) > 0:
		return fmt.Errorf("assembler: assertions are not supported")
	case sc.Strict || sc.PerturbFleet || sc.PerturbGraphMC:
		return fmt.Errorf("assembler: strict and perturb modes are not supported")
	}
	for _, g := range sc.Fleet {
		if g.Generation != "" || g.ExecFactor != 0 {
			return fmt.Errorf("assembler: group %q: only the default hardware generation is supported", g.Name)
		}
	}
	for i, e := range sc.Events {
		if e.Kind != scenario.EvFaults {
			return fmt.Errorf("assembler: events[%d]: only %q events are supported, got %q", i, scenario.EvFaults, e.Kind)
		}
		if sc.Routing == nil && sc.Graph == nil {
			// Routerless runs apply events in a barrier loop, not as engine events.
			return fmt.Errorf("assembler: events[%d]: events need a routing or graph block", i)
		}
	}
	return nil
}

// barrierAt quantizes a scenario timestamp to the first barrier at or after
// it, as the scenario compiler does.
func barrierAt(sc *scenario.Scenario, atMS float64) sim.Time {
	n := max(int64(math.Ceil(atMS/float64(sc.StepMS)-1e-9)), 0)
	return sim.Time(sim.Duration(n*int64(sc.StepMS)) * sim.Millisecond)
}

// horizonOf is the simulated end of a server's run window.
func horizonOf(cfg cluster.Config) sim.Time {
	_, _, _, h := cfg.RunWindow()
	return h
}

// selects mirrors scenario target selection for server index i of group g.
func selects(t scenario.Target, i int, g string) bool {
	switch {
	case t.Group != "":
		return t.Group == g
	case t.Server >= 0:
		return t.Server == i
	}
	return true
}

// assembleScenario builds and starts a scenario's fleet.
func assembleScenario(sc *scenario.Scenario, shards int, tr *tracer) (*fleet, error) {
	if err := supported(sc); err != nil {
		return nil, err
	}
	defer tr.begin("cluster.build")()
	remote := sc.Routing != nil || sc.Graph != nil
	f := &fleet{group: sim.NewShardGroup(shards)}
	var cfgs []cluster.Config
	var groupOf []string
	for gi := range sc.Fleet {
		g := &sc.Fleet[gi]
		kind, err := serve.ParseSystem(g.System)
		if err != nil {
			return nil, err
		}
		work, err := batch.WorkloadByName(g.Workload)
		if err != nil {
			return nil, err
		}
		for j := 0; j < g.Count; j++ {
			i := len(f.servers)
			cfg := cluster.DefaultConfig()
			cfg.Seed = sc.Seed + uint64(i)*7919
			cfg.CoresPerServer = g.Cores
			cfg.PrimaryVMs = g.PrimaryVMs
			cfg.CoresPerPrimary = g.CoresPerPrimary
			cfg.HarvestOwnCores = g.HarvestCores
			cfg.WarmupDuration = sim.Duration(sc.WarmupMS) * sim.Millisecond
			cfg.MeasureDuration = sim.Duration(sc.DurationMS) * sim.Millisecond
			if g.LoadScale > 0 {
				cfg.LoadScale = g.LoadScale
			}
			opts := cluster.SystemOptions(kind)
			meter, audit := obs.NewMeter(), obs.NewAudit()
			opts.Observer = obs.Multi(meter, audit)
			opts.SketchLatency = true
			opts.RemoteAdmission = remote
			srv := cluster.NewServer(cfg, opts, work)
			f.servers = append(f.servers, srv)
			f.names = append(f.names, fmt.Sprintf("server%d[%s]", i, g.Name))
			f.meters = append(f.meters, meter)
			f.audits = append(f.audits, audit)
			f.errs = append(f.errs, nil)
			cfgs = append(cfgs, cfg)
			groupOf = append(groupOf, g.Name)
			if remote {
				f.scheduleFaults(sc, i, g.Name)
			} else {
				srv.Start()
			}
		}
	}
	for _, cfg := range cfgs {
		f.horizon = max(f.horizon, horizonOf(cfg))
	}
	switch {
	case sc.Routing != nil:
		rc, err := routeConfig(sc.Routing)
		if err != nil {
			return nil, err
		}
		backends := make([]route.Backend, len(f.servers))
		for i, srv := range f.servers {
			backends[i] = route.Backend{Server: srv, Cfg: cfgs[i], Name: f.names[i], Weight: 1}
		}
		f.rt = route.New(rc, backends)
		members := f.link(tr, "route", f.rt.Engine(), f.rt.Advance, rc.NetDelay)
		f.rt.Bind(f.group, 0, members)
	case sc.Graph != nil:
		spec := sc.Graph.Spec()
		byGroup := map[string][]int{}
		backends := make([]graph.Backend, len(f.servers))
		for i, srv := range f.servers {
			backends[i] = graph.Backend{Server: srv, Cfg: cfgs[i], Name: f.names[i]}
			byGroup[groupOf[i]] = append(byGroup[groupOf[i]], i)
		}
		tiers := make([][]int, len(spec.Tiers))
		for ti := range spec.Tiers {
			tiers[ti] = byGroup[spec.Tiers[ti].Group]
		}
		f.gd = graph.New(spec, backends, tiers)
		members := f.link(tr, "graph", f.gd.Engine(), f.gd.Advance, spec.NetDelay)
		f.gd.Bind(f.group, 0, members)
	default:
		for i, srv := range f.servers {
			f.group.AddFunc(srv.Engine(), tr.wrapServer(f.names[i], srv))
		}
	}
	if remote {
		for _, srv := range f.servers {
			srv.Start()
		}
	}
	if tr != nil {
		tr.horizon = f.horizon
	}
	return f, nil
}

// scheduleFaults installs server i's fault events as engine events, in
// (barrier, document) order, so the group's floors see them.
func (f *fleet) scheduleFaults(sc *scenario.Scenario, i int, group string) {
	type act struct {
		at   sim.Time
		plan *faults.Plan
	}
	var acts []act
	for _, e := range sc.Events {
		if selects(e.Target, i, group) {
			acts = append(acts, act{barrierAt(sc, e.AtMS), e.Plan})
		}
	}
	sort.SliceStable(acts, func(a, b int) bool { return acts[a].at < acts[b].at })
	srv := f.servers[i]
	for _, a := range acts {
		srv.Engine().At(a.at, func() {
			if f.errs[i] == nil {
				f.errs[i] = srv.InjectFaultPlan(a.plan, a.at)
			}
		})
	}
}

// routeConfig converts a scenario routing block the way the scenario layer
// does.
func routeConfig(r *scenario.Routing) (route.Config, error) {
	pol, err := route.ParsePolicy(r.Policy)
	if err != nil {
		return route.Config{}, err
	}
	return route.Config{
		Policy:         pol,
		NetDelay:       sim.Duration(r.NetworkDelayUS * float64(sim.Microsecond)),
		ProbeInterval:  sim.Duration(r.ProbeIntervalMS * float64(sim.Millisecond)),
		UnhealthyAfter: r.UnhealthyAfter,
		HealthyAfter:   r.HealthyAfter,
		EjectAfter:     r.EjectAfter,
		EjectBackoff:   sim.Duration(r.EjectBackoffMS * float64(sim.Millisecond)),
		MaxFailovers:   r.MaxFailovers,
	}, nil
}

// link adds the front (router or dispatcher) as member 0 and every server
// after it, linked both ways at the network delay, and returns the servers'
// member ids.
func (f *fleet) link(tr *tracer, layer string, eng *sim.Engine, advance func(sim.Time), delay sim.Duration) []int {
	self := f.group.AddFunc(eng, tr.wrap(layer, layer, eng, advance))
	members := make([]int, len(f.servers))
	for i, srv := range f.servers {
		m := f.group.AddFunc(srv.Engine(), tr.wrapServer(f.names[i], srv))
		f.group.Link(self, m, delay)
		f.group.Link(m, self, delay)
		members[i] = m
	}
	return members
}

// assembleServe builds and starts the fleet the serve runner builds for a
// routed RunConfig.
func assembleServe(rc serve.RunConfig, shards int, tr *tracer) (*fleet, error) {
	if !rc.Routed || rc.Graph != "" || rc.Backends <= 0 {
		return nil, fmt.Errorf("assembler: only routed serve configs with backends are supported")
	}
	defer tr.begin("cluster.build")()
	kind, err := serve.ParseSystem(rc.System)
	if err != nil {
		return nil, err
	}
	work, err := batch.WorkloadByName(rc.Workload)
	if err != nil {
		return nil, err
	}
	rcfg := route.DefaultConfig()
	if rc.Policy != "" {
		if rcfg.Policy, err = route.ParsePolicy(rc.Policy); err != nil {
			return nil, err
		}
	}
	f := &fleet{group: sim.NewShardGroup(shards), step: sim.Duration(rc.StepMS) * sim.Millisecond}
	backends := make([]route.Backend, rc.Backends)
	for i := range backends {
		cfg := cluster.DefaultConfig()
		cfg.WarmupDuration = sim.Duration(rc.WarmupMS) * sim.Millisecond
		cfg.MeasureDuration = sim.Duration(rc.SimMS) * sim.Millisecond
		cfg.Seed = rc.Seed + uint64(i)*7919
		opts := cluster.SystemOptions(kind)
		meter := obs.NewMeter()
		opts.Observer = meter
		opts.RemoteAdmission = true
		srv := cluster.NewServer(cfg, opts, work)
		f.servers = append(f.servers, srv)
		f.names = append(f.names, fmt.Sprintf("server%d", i))
		f.meters = append(f.meters, meter)
		f.errs = append(f.errs, nil)
		backends[i] = route.Backend{Server: srv, Cfg: cfg, Name: f.names[i], Weight: 1}
	}
	f.horizon = horizonOf(backends[0].Cfg)
	f.rt = route.New(rcfg, backends)
	f.rt.Bind(f.group, 0, f.link(tr, "route", f.rt.Engine(), f.rt.Advance, rcfg.NetDelay))
	for _, srv := range f.servers {
		srv.Start()
	}
	if tr != nil {
		tr.horizon = f.horizon
	}
	return f, nil
}

// run advances the group to the horizon: in one call, or barrier by barrier
// as the serve runner's loop does.
func (f *fleet) run(tr *tracer) {
	defer tr.begin("shard.run")()
	if f.step <= 0 {
		f.group.Run(f.horizon)
		return
	}
	for b := sim.Time(0); b < f.horizon; {
		b = min(b.Add(f.step), f.horizon)
		f.group.Run(b)
	}
}

// finish collects every member's results.
func (f *fleet) finish(tr *tracer) error {
	defer tr.begin("cluster.finish")()
	for i, err := range f.errs {
		if err != nil {
			return fmt.Errorf("server %d: %w", i, err)
		}
	}
	for i, srv := range f.servers {
		res := srv.Finish()
		if f.audits != nil {
			f.audits[i].Finish(res.AccountedEnd)
		}
		f.results = append(f.results, res)
	}
	if f.rt != nil {
		f.routeRes = f.rt.Finish()
	}
	if f.gd != nil {
		f.graphRes = f.gd.Finish()
	}
	return nil
}

// oracle runs the public conservation checks the scenario runner runs and
// returns the first failure ("" when all pass).
func (f *fleet) oracle(tr *tracer) string {
	defer tr.begin("oracle")()
	var checks []validate.Check
	for i, res := range f.results {
		if f.audits != nil {
			name := fmt.Sprintf("server%d", i)
			checks = append(checks,
				validate.FlowBalance(name, res, f.audits[i]),
				validate.LittlesLawIdentity(name, res, f.audits[i]))
		}
	}
	if f.routeRes != nil {
		checks = append(checks, f.routeRes.Conservation("fleet"))
	}
	if f.graphRes != nil {
		checks = append(checks, validate.GraphResultConservation("graph", f.graphRes))
	}
	for _, c := range checks {
		if !c.OK {
			return c.String()
		}
	}
	return ""
}

// serverLines renders each server's result and counters lines exactly as
// the scenario and serve summaries print them.
func (f *fleet) serverLines() []string {
	var out []string
	for i, res := range f.results {
		out = append(out, fmt.Sprintf("  result: %s", res), fmt.Sprintf("  counters: %s", f.meters[i].Counters()))
	}
	return out
}

// frontMetrics are the router's and dispatcher's work ratios (0 for a
// layer the fleet does not have).
func (f *fleet) frontMetrics() map[string]float64 {
	out := map[string]float64{"route.dispatches_per_req": 0, "route.probes": 0, "graph.rpcs_per_root": 0}
	if r := f.routeRes; r != nil {
		out["route.dispatches_per_req"] = ratio(float64(r.Dispatches), float64(r.Completions))
		out["route.probes"] = float64(r.Probes)
	}
	if g := f.graphRes; g != nil {
		out["graph.rpcs_per_root"] = ratio(float64(g.Dispatches), float64(g.Generated))
	}
	return out
}

// routerLines renders the router ledger lines the scenario and serve
// summaries share.
func routerLines(r *route.Result) []string {
	return []string{
		fmt.Sprintf("router: generated=%d dispatched=%d (initial=%d failovers=%d) completed=%d shed=%d lost=%d (at_admit=%d) inflight=%d",
			r.Generated, r.Dispatches, r.InitialDispatches, r.Failovers,
			r.Completions, r.Sheds, r.Lost, r.LostAtAdmit, r.InflightEnd),
		fmt.Sprintf("  replies: done=%d shed=%d zombie_dones=%d zombie_sheds=%d outstanding=%d",
			r.DoneRecv, r.ShedRecv, r.ZombieDones, r.ZombieSheds, r.OutstandingEnd),
		fmt.Sprintf("  health: probes=%d fails=%d ejections=%d readmits=%d drains=%d",
			r.Probes, r.ProbeFails, r.Ejections, r.Readmits, r.Drains),
	}
}

func sketchLine(s *stats.Sketch) string {
	return fmt.Sprintf("n=%d p50=%v p99=%v", s.Count(), s.P50(), s.P99())
}

// ledger renders every field of a route or graph result, sketches as their
// count and quantiles, for exact comparison.
func ledger(r *route.Result, g *graph.Result) string {
	var b strings.Builder
	if r != nil {
		c := *r
		c.FleetLatency, c.Backends = nil, nil
		fmt.Fprintf(&b, "route %+v latency[%s]", c, sketchLine(r.FleetLatency))
		for _, br := range r.Backends {
			lat := br.EdgeLatency
			br.EdgeLatency = nil
			fmt.Fprintf(&b, " backend %+v edge[%s]", br, sketchLine(lat))
		}
	}
	if g != nil {
		c := *g
		c.E2E, c.Tiers = nil, nil
		fmt.Fprintf(&b, "graph %+v e2e[%s]", c, sketchLine(g.E2E))
		for _, tr := range g.Tiers {
			hop := tr.Hop
			tr.Hop = nil
			fmt.Fprintf(&b, " tier %+v hop[%s]", tr, sketchLine(hop))
		}
	}
	return b.String()
}
