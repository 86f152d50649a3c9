// Package serve hosts a long-lived simulation behind a live control
// surface: a pacing loop advances the cluster simulation in simulated-time
// slices (barriers), HTTP handlers read published barrier snapshots and
// enqueue control actions, and every applied action is appended to a
// deterministic NDJSON log so a served run can be replayed byte-identically
// as a batch run.
//
// Determinism model (DESIGN.md §8): the engine executes the identical event
// sequence whether the horizon is reached in one Run or many StepTo slices,
// so the only way a served run can diverge from a batch run is through
// control actions — and those are applied exclusively at barriers, logged
// with their barrier time, and implemented as pure functions of (run
// config, action, barrier time). Pause, resume, manual stepping, and the
// pacing rate affect only the wall-clock schedule of the loop, never the
// simulation, and are deliberately absent from the log.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/front"
	"hardharvest/internal/graph"
	"hardharvest/internal/obs"
	"hardharvest/internal/route"
	"hardharvest/internal/sim"
	"hardharvest/internal/workload"
)

// RunConfig identifies a served run completely: the same config plus the
// same action log reproduces the same simulation. The routed fields select
// fleet mode: a front-door router (internal/route) admits the workload and
// dispatches to Backends identical servers over network edges; all three
// are omitted from JSON when unset so routerless logs and /api/state bytes
// are unchanged.
type RunConfig struct {
	System   string `json:"system"`   // cluster.SystemKind name (e.g. "HardHarvest-Block")
	Workload string `json:"workload"` // batch workload name (e.g. "BFS")
	Seed     uint64 `json:"seed"`
	WarmupMS int    `json:"warmup_ms"`
	SimMS    int    `json:"sim_ms"`  // measurement window
	StepMS   int    `json:"step_ms"` // barrier cadence

	Routed   bool   `json:"routed,omitempty"`   // serve a routed fleet instead of one server
	Backends int    `json:"backends,omitempty"` // fleet size (routed mode) or servers per tier group (graph mode)
	Policy   string `json:"policy,omitempty"`   // routing policy (routed mode)

	// Graph names a built-in request DAG ("socialnet"); when set the run
	// serves a DAG fleet behind a graph dispatcher (internal/graph): each
	// tier group gets Backends identical servers, and the `hhsim_graph_*`
	// Prometheus families report the DAG ledgers. Exclusive with Routed.
	Graph string `json:"graph,omitempty"`
}

// DefaultRunConfig mirrors the quick experiment scale on the paper's full
// system.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		System:   cluster.HardHarvestBlock.String(),
		Workload: "BFS",
		Seed:     1,
		WarmupMS: 100,
		SimMS:    2000,
		StepMS:   10,
	}
}

// parse resolves the config's system and batch workload names.
func (rc RunConfig) parse() (cluster.SystemKind, *batch.Workload, error) {
	kind, err := ParseSystem(rc.System)
	if err != nil {
		return 0, nil, err
	}
	work, err := batch.WorkloadByName(rc.Workload)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: %w", err)
	}
	return kind, work, nil
}

// newServer constructs server i of the run with its meter; fleet servers
// admit remotely. Seeds follow cluster.ServerSeed, so server 0 runs with
// the config's own seed.
func (rc RunConfig) newServer(kind cluster.SystemKind, work *batch.Workload, i int, remote bool) (*cluster.Server, cluster.Config, *obs.Meter) {
	ccfg := cluster.DefaultConfig()
	ccfg.WarmupDuration = sim.Duration(rc.WarmupMS) * sim.Millisecond
	ccfg.MeasureDuration = sim.Duration(rc.SimMS) * sim.Millisecond
	ccfg.Seed = cluster.ServerSeed(rc.Seed, i)
	opts := cluster.SystemOptions(kind)
	meter := obs.NewMeter()
	opts.Observer = meter
	opts.RemoteAdmission = remote
	return cluster.NewServer(ccfg, opts, work), ccfg, meter
}

// parseGraph resolves a built-in DAG name to its spec.
func parseGraph(name string, netDelay sim.Duration) (*graph.Spec, error) {
	switch name {
	case "socialnet":
		return graph.SocialNet(netDelay), nil
	default:
		return nil, fmt.Errorf("serve: unknown graph %q (want one of [socialnet])", name)
	}
}

// buildFleet constructs the simulation of every mode on one ShardGroup:
// live runs, replays and the differential tests all start here, so the
// byte-equivalence guarantees hold because every mode starts from the
// identical simulation. A one-server run is a one-member group with no
// front door: the server generates its own arrivals and is advanced by
// StepTo, as scenario.RunShards runs routerless servers. Fleet runs put
// remote-admission servers behind a front door — a router over Backends
// servers, or a graph dispatcher over Backends servers per tier group
// (tiers in the same group share its servers) — assembled by front.Wire,
// the scenario runner's wiring path. Per-server seeds follow
// cluster.ServerSeed, so server 0 runs with the config's own seed.
func (r *Runner) buildFleet() error {
	rc := r.cfg
	kind, work, err := rc.parse()
	if err != nil {
		return err
	}
	r.group = sim.NewShardGroup(0)
	if !rc.Routed && rc.Graph == "" {
		srv, _, meter := rc.newServer(kind, work, 0, false)
		r.fleet, r.meters = []*cluster.Server{srv}, []*obs.Meter{meter}
		srv.Start()
		srv.JoinGroup(r.group)
		r.horizon = srv.Horizon()
		r.setIntensity = srv.SetIntensity
		return nil
	}
	var names []string
	var spec *graph.Spec
	var tiers [][]int
	rcfg := route.DefaultConfig()
	if rc.Routed {
		if rc.Backends <= 0 {
			return fmt.Errorf("serve: routed mode needs backends >= 1, got %d", rc.Backends)
		}
		if rc.Policy != "" {
			if rcfg.Policy, err = route.ParsePolicy(rc.Policy); err != nil {
				return fmt.Errorf("serve: %w", err)
			}
		}
		for i := 0; i < rc.Backends; i++ {
			names = append(names, fmt.Sprintf("server%d", i))
		}
	} else {
		if rc.Backends <= 0 {
			return fmt.Errorf("serve: graph mode needs backends >= 1 per tier group, got %d", rc.Backends)
		}
		if spec, err = parseGraph(rc.Graph, 20*sim.Microsecond); err != nil {
			return err
		}
		var groups []string
		for _, g := range spec.Groups() {
			for k := 0; k < rc.Backends; k++ {
				groups = append(groups, g)
				names = append(names, fmt.Sprintf("server%d[%s]", len(names), g))
			}
		}
		tiers = spec.TierServers(groups)
	}
	backends := make([]front.Backend, len(names))
	for i, name := range names {
		srv, ccfg, meter := rc.newServer(kind, work, i, true)
		r.fleet = append(r.fleet, srv)
		r.meters = append(r.meters, meter)
		backends[i] = front.Backend{Server: srv, Cfg: ccfg, Name: name, Weight: 1}
	}
	var door interface {
		front.Door
		SetIntensityAll(x float64)
	}
	if spec != nil {
		r.gd = graph.New(spec, backends, tiers)
		door = r.gd
	} else {
		r.rt = route.New(rcfg, backends)
		door = r.rt
	}
	r.horizon = front.Wire(r.group, door, r.fleet)
	r.setIntensity = func(x float64) error { door.SetIntensityAll(x); return nil }
	return nil
}

// ParseSystem resolves a system name as printed by cluster.SystemKind.
func ParseSystem(name string) (cluster.SystemKind, error) {
	k, err := cluster.ParseSystem(name)
	if err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	return k, nil
}

// Action kinds. Every kind is applied at a barrier and logged.
const (
	ActIntensity      = "intensity"        // scale offered load (Intensity field)
	ActHarvestOnBlock = "harvest_on_block" // toggle harvest-on-block (On field)
	ActResilience     = "resilience"       // toggle resilience policies (On field)
	ActFaults         = "faults"           // inject a fault plan (Plan field)
	ActDrain          = "drain"            // gracefully drain one backend (routed mode; Server + DeadlineMS)
)

// Action is one logged control mutation. At is the simulated barrier time
// (picoseconds) it was applied at; replay re-applies it at the same barrier.
// Server targets one fleet backend (faults, drain); a one-server run has
// only server 0.
type Action struct {
	At         int64        `json:"at"`
	Kind       string       `json:"kind"`
	Intensity  float64      `json:"intensity,omitempty"`
	On         bool         `json:"on,omitempty"`
	Plan       *faults.Plan `json:"plan,omitempty"`
	Server     int          `json:"server,omitempty"`
	DeadlineMS float64      `json:"deadline_ms,omitempty"`
}

// validate rejects malformed actions at enqueue time, before they reach the
// log. Config-dependent checks (backend range, routed-only kinds) run at
// apply time, where a failing action is dropped unlogged.
func (a Action) validate() error {
	if a.Server < 0 {
		return fmt.Errorf("serve: server must be >= 0, got %d", a.Server)
	}
	switch a.Kind {
	case ActIntensity:
		if err := workload.CheckIntensity(a.Intensity); err != nil {
			return fmt.Errorf("serve: intensity: %w", err)
		}
	case ActHarvestOnBlock, ActResilience:
		// any On value is valid
	case ActFaults:
		if a.Plan == nil {
			return fmt.Errorf("serve: faults action without a plan")
		}
		if err := a.Plan.Validate(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	case ActDrain:
		if !(a.DeadlineMS > 0) {
			return fmt.Errorf("serve: drain needs deadline_ms > 0, got %v", a.DeadlineMS)
		}
		if _, ok := sim.FromMilliseconds(a.DeadlineMS); !ok {
			return fmt.Errorf("serve: drain deadline_ms %v does not fit the simulated clock", a.DeadlineMS)
		}
	default:
		return fmt.Errorf("serve: unknown action kind %q", a.Kind)
	}
	return nil
}

// logHeader is the first line of an action log.
type logHeader struct {
	Magic  int       `json:"hhsim_serve_log"`
	Config RunConfig `json:"config"`
}

// VMPoint is one VM's occupancy inside a TimePoint.
type VMPoint struct {
	VM        int    `json:"vm"`
	Name      string `json:"name"`
	Running   int    `json:"running"`
	Blocked   int    `json:"blocked"`
	Queued    int    `json:"queued"`
	LentOut   int    `json:"lent_out"`
	Pinned    int    `json:"pinned"`
	BusyCores int    `json:"busy_cores"`
}

// TimePoint is one windowed snapshot streamed on /api/timeseries.
type TimePoint struct {
	SimMS       float64   `json:"sim_ms"`
	Done        bool      `json:"done"`
	Arrivals    uint64    `json:"arrivals"`
	Completions uint64    `json:"completions"`
	JobsDone    uint64    `json:"jobs_done"`
	Loans       uint64    `json:"loans"`
	Reclaims    uint64    `json:"reclaims"`
	P50MS       float64   `json:"p50_ms"`
	P99MS       float64   `json:"p99_ms"`
	VMs         []VMPoint `json:"vms"`
}

// RouterBackendPoint is one backend's routed view inside a RouterPoint.
type RouterBackendPoint struct {
	Name       string  `json:"name"`
	State      string  `json:"state"`
	Dispatches uint64  `json:"dispatches"`
	Dones      uint64  `json:"dones"`
	Sheds      uint64  `json:"sheds"`
	Crashes    uint64  `json:"crashes"`
	Active     int     `json:"active"`
	EdgeP99MS  float64 `json:"edge_p99_ms"`
}

// RouterPoint is the router's barrier snapshot in routed mode: plain data
// extracted while the shard group is quiescent, safe for concurrent HTTP
// readers.
type RouterPoint struct {
	Policy      string               `json:"policy"`
	Generated   uint64               `json:"generated"`
	Dispatches  uint64               `json:"dispatches"`
	Failovers   uint64               `json:"failovers"`
	Completions uint64               `json:"completions"`
	Sheds       uint64               `json:"sheds"`
	Lost        uint64               `json:"lost"`
	Outstanding uint64               `json:"outstanding"`
	ZombieDones uint64               `json:"zombie_dones"`
	Probes      uint64               `json:"probes"`
	ProbeFails  uint64               `json:"probe_fails"`
	Ejections   uint64               `json:"ejections"`
	Readmits    uint64               `json:"readmits"`
	Drains      uint64               `json:"drains"`
	FleetP50MS  float64              `json:"fleet_p50_ms"`
	FleetP99MS  float64              `json:"fleet_p99_ms"`
	Backends    []RouterBackendPoint `json:"backends"`
}

// routerPoint extracts the live router snapshot (caller holds the barrier:
// no advance goroutines are live).
func routerPoint(rt *route.Router) *RouterPoint {
	snap := rt.Snapshot()
	p := &RouterPoint{
		Policy:      snap.Policy.String(),
		Generated:   snap.Generated,
		Dispatches:  snap.Dispatches,
		Failovers:   snap.Failovers,
		Completions: snap.Completions,
		Sheds:       snap.Sheds,
		Lost:        snap.Lost,
		Outstanding: snap.OutstandingEnd,
		ZombieDones: snap.ZombieDones,
		Probes:      snap.Probes,
		ProbeFails:  snap.ProbeFails,
		Ejections:   snap.Ejections,
		Readmits:    snap.Readmits,
		Drains:      snap.Drains,
		FleetP50MS:  snap.FleetLatency.P50(),
		FleetP99MS:  snap.FleetLatency.P99(),
	}
	for _, b := range snap.Backends {
		p.Backends = append(p.Backends, RouterBackendPoint{
			Name: b.Name, State: b.State,
			Dispatches: b.Dispatches, Dones: b.Dones, Sheds: b.Sheds,
			Crashes: b.Crashes, Active: b.ActiveEnd,
			EdgeP99MS: b.EdgeLatency.P99(),
		})
	}
	return p
}

// GraphTierPoint is one tier's view inside a GraphPoint.
type GraphTierPoint struct {
	Tier       string  `json:"tier"`
	Servers    int     `json:"servers"`
	VM         int     `json:"vm"`
	Dispatches uint64  `json:"dispatches"`
	Dones      uint64  `json:"dones"`
	Sheds      uint64  `json:"sheds"`
	HopP50MS   float64 `json:"hop_p50_ms"`
	HopP99MS   float64 `json:"hop_p99_ms"`
}

// GraphPoint is the DAG dispatcher's barrier snapshot in graph mode: plain
// data extracted while the shard group is quiescent, safe for concurrent
// HTTP readers.
type GraphPoint struct {
	Graph       string           `json:"graph"`
	Root        string           `json:"root"`
	Generated   uint64           `json:"generated"`
	Completed   uint64           `json:"completed"`
	Failed      uint64           `json:"failed"`
	Inflight    uint64           `json:"inflight"`
	Dispatches  uint64           `json:"dispatches"`
	DoneRecv    uint64           `json:"done_recv"`
	ShedRecv    uint64           `json:"shed_recv"`
	Outstanding uint64           `json:"outstanding"`
	E2EP50MS    float64          `json:"e2e_p50_ms"`
	E2EP99MS    float64          `json:"e2e_p99_ms"`
	E2ECount    int              `json:"e2e_count"`
	Tiers       []GraphTierPoint `json:"tiers"`
}

// graphPoint extracts the live DAG snapshot (caller holds the barrier: no
// advance goroutines are live, so reading the dispatcher's sketches here is
// race-free; only plain floats escape).
func graphPoint(cfg RunConfig, gd *graph.Dispatcher) *GraphPoint {
	snap := gd.Snapshot()
	spec := gd.Spec()
	p := &GraphPoint{
		Graph:       cfg.Graph,
		Root:        spec.Tiers[spec.Root].Name,
		Generated:   snap.Generated,
		Completed:   snap.Completed,
		Failed:      snap.Failed,
		Inflight:    snap.InflightEnd,
		Dispatches:  snap.Dispatches,
		DoneRecv:    snap.DoneRecv,
		ShedRecv:    snap.ShedRecv,
		Outstanding: snap.OutstandingEnd,
		E2EP50MS:    snap.E2E.P50(),
		E2EP99MS:    snap.E2E.P99(),
		E2ECount:    snap.E2E.Count(),
	}
	for _, t := range snap.Tiers {
		p.Tiers = append(p.Tiers, GraphTierPoint{
			Tier: t.Name, Servers: t.Servers, VM: t.VM,
			Dispatches: t.Dispatches, Dones: t.Dones, Sheds: t.Sheds,
			HopP50MS: t.Hop.P50(), HopP99MS: t.Hop.P99(),
		})
	}
	return p
}

// State is the published barrier snapshot HTTP readers see. Everything in
// it is an independent copy: the engine goroutine keeps mutating its own
// structures while readers render this. Counters and Hist aggregate every
// server, EventsFired counts every engine of the group, Occupancy/Topology
// show server 0 (the live per-VM view stays single-server), and Router or
// Graph carries the front door's snapshot in the fleet modes.
type State struct {
	Config      RunConfig
	SimTime     sim.Time
	Horizon     sim.Time
	Done        bool
	Paused      bool
	Pace        float64
	Intensity   float64
	EventsFired uint64
	Actions     int
	Counters    obs.Counters
	Hist        *obs.LatencyHist
	Occupancy   obs.Snapshot
	Topology    obs.Topology
	Router      *RouterPoint // nil in routerless mode
	Graph       *GraphPoint  // nil outside graph mode
}

// Runner drives one served simulation. The loop goroutine owns the shard
// group, everything else reads published snapshots or enqueues actions
// under the runner's lock.
type Runner struct {
	cfg  RunConfig
	step sim.Duration
	logW io.Writer

	// The simulation, one shard group in every mode. fleet and meters hold
	// every server (one in a one-server run); at most one of rt (routed)
	// and gd (graph) is set. setIntensity scales the offered load where
	// arrivals are generated: the one server's own generators, or the
	// front door's. barrier is the last barrier the group reached.
	group        *sim.ShardGroup
	rt           *route.Router
	gd           *graph.Dispatcher
	fleet        []*cluster.Server
	meters       []*obs.Meter
	setIntensity func(x float64) error
	horizon      sim.Time
	barrier      sim.Time

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []Action
	applied  int
	paused   bool
	stepsOK  int // manual barriers granted while paused
	pace     float64
	closing  bool
	intensty float64
	pub      State
	subs     map[chan TimePoint]struct{}

	shutdownCh chan struct{}
	shutdownMu sync.Once

	done    bool
	summary string
}

// NewRunner builds the simulation for cfg, schedules its initial events,
// and (when logW is non-nil) writes the action-log header. pace is the
// initial simulated-seconds-per-wall-second rate; 0 runs unpaced.
func NewRunner(cfg RunConfig, logW io.Writer, pace float64) (*Runner, error) {
	if cfg.StepMS <= 0 {
		return nil, fmt.Errorf("serve: step must be positive, got %dms", cfg.StepMS)
	}
	if cfg.SimMS <= 0 || cfg.WarmupMS < 0 {
		return nil, fmt.Errorf("serve: bad window: warmup=%dms sim=%dms", cfg.WarmupMS, cfg.SimMS)
	}
	r := &Runner{
		cfg:        cfg,
		step:       sim.Duration(cfg.StepMS) * sim.Millisecond,
		logW:       logW,
		pace:       pace,
		intensty:   1.0,
		subs:       map[chan TimePoint]struct{}{},
		shutdownCh: make(chan struct{}),
	}
	if cfg.Routed && cfg.Graph != "" {
		return nil, fmt.Errorf("serve: routed and graph modes are exclusive")
	}
	if err := r.buildFleet(); err != nil {
		return nil, err
	}
	r.cond = sync.NewCond(&r.mu)
	r.publishLocked(false) // pre-loop state for early scrapes
	if logW != nil {
		if err := json.NewEncoder(logW).Encode(logHeader{Magic: 1, Config: cfg}); err != nil {
			return nil, fmt.Errorf("serve: action log: %w", err)
		}
	}
	return r, nil
}

// Config reports the run configuration.
func (r *Runner) Config() RunConfig { return r.cfg }

// Loop drives barriers until the horizon is reached or Shutdown is called.
// It must be called exactly once, on its own goroutine for a live server
// (tests drive it synchronously).
func (r *Runner) Loop() {
	for {
		r.mu.Lock()
		for r.paused && r.stepsOK == 0 && !r.closing {
			r.cond.Wait()
		}
		if r.closing {
			r.mu.Unlock()
			return
		}
		if r.stepsOK > 0 {
			r.stepsOK--
		}
		todo := r.pending
		r.pending = nil
		pace := r.pace
		r.mu.Unlock()

		// Apply queued actions at this barrier, then log them. Application
		// errors (e.g. a fault plan past the horizon) drop the action —
		// an action that did not change the simulation must not be logged,
		// or replay would diverge.
		for _, a := range todo {
			a.At = int64(r.barrier)
			if err := r.applyAction(a, r.barrier); err != nil {
				continue
			}
			r.mu.Lock()
			r.applied++
			if a.Kind == ActIntensity {
				r.intensty = a.Intensity
			}
			r.mu.Unlock()
			if r.logW != nil {
				json.NewEncoder(r.logW).Encode(a)
			}
		}

		done := r.advance()

		r.mu.Lock()
		r.publishLocked(done)
		if done {
			r.done = true
			r.summary = r.renderFinish()
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()

		if pace > 0 {
			time.Sleep(time.Duration(float64(r.step.Std()) / pace))
		}
	}
}

// advance is the one barrier step of the live loop and of replay: the
// group runs its conservative windows up to the next barrier, clamped at
// the horizon, and advance reports whether the run reached it. Applying
// actions between two advances is safe without engine-event actions
// (unlike the scenario runner's): between group.Run calls every member's
// window grant sits exactly at the barrier, so a mutation applied there
// can only create events at or after everyone's doneTo.
func (r *Runner) advance() bool {
	r.barrier = min(r.barrier.Add(r.step), r.horizon)
	r.group.Run(r.barrier)
	return r.barrier >= r.horizon
}

// renderFinish finalizes every server and the front door and renders the
// deterministic end-of-run summary. Caller holds r.mu (live loop) or is
// single-threaded (replay).
func (r *Runner) renderFinish() string {
	results := make([]*cluster.ServerResult, len(r.fleet))
	for i, srv := range r.fleet {
		results[i] = srv.Finish()
	}
	switch {
	case r.gd != nil:
		return renderGraphSummary(r.cfg, results, r.meters, r.gd.Finish(), r.applied)
	case r.rt != nil:
		return renderRoutedSummary(r.cfg, results, r.meters, r.rt.Finish(), r.applied)
	default:
		return renderSummary(r.cfg, results[0], r.meters[0].Counters(), r.meters[0].Hist(), r.applied)
	}
}

// applyAction mutates the simulation at a barrier: the intensity knob goes
// where arrivals are generated (every source of a front door), toggles to
// every server, and targeted kinds (faults, drain) to a.Server; drain needs
// a router. It validates a itself, so no caller can hand the loop an
// action that would panic it.
func (r *Runner) applyAction(a Action, at sim.Time) error {
	if err := a.validate(); err != nil {
		return err
	}
	if a.Server >= len(r.fleet) {
		return fmt.Errorf("serve: server %d out of range (fleet has %d)", a.Server, len(r.fleet))
	}
	switch a.Kind {
	case ActIntensity:
		return r.setIntensity(a.Intensity)
	case ActHarvestOnBlock:
		for _, srv := range r.fleet {
			srv.SetHarvestOnBlock(a.On)
		}
		return nil
	case ActResilience:
		for _, srv := range r.fleet {
			srv.SetResilienceEnabled(a.On)
		}
		return nil
	case ActFaults:
		return r.fleet[a.Server].InjectFaultPlan(a.Plan, at)
	case ActDrain:
		if r.rt == nil {
			return fmt.Errorf("serve: drain needs a routed run")
		}
		deadline, _ := sim.FromMilliseconds(a.DeadlineMS) // validated above
		r.rt.StartDrain(a.Server, deadline)
		return nil
	default:
		return fmt.Errorf("serve: unknown action kind %q", a.Kind)
	}
}

// publishLocked refreshes the published snapshot and fans a TimePoint out
// to subscribers. Caller holds r.mu; the shard group is quiescent (the
// loop goroutine is between group.Run calls).
func (r *Runner) publishLocked(done bool) {
	srv := r.fleet[0]
	occ := srv.OccupancySnapshot()
	topo := srv.LiveTopology()
	c, hist := obs.MergeMeters(r.meters)
	var router *RouterPoint
	var gp *GraphPoint
	if r.rt != nil {
		router = routerPoint(r.rt)
	}
	if r.gd != nil {
		gp = graphPoint(r.cfg, r.gd)
	}
	r.pub = State{
		Config:      r.cfg,
		SimTime:     srv.Now(),
		Horizon:     r.horizon,
		Done:        done,
		Paused:      r.paused,
		Pace:        r.pace,
		Intensity:   r.intensty,
		EventsFired: r.group.Fired(),
		Actions:     r.applied,
		Counters:    c,
		Hist:        hist,
		Occupancy:   occ,
		Topology:    topo,
		Router:      router,
		Graph:       gp,
	}
	tp := TimePoint{
		SimMS:       sim.Duration(r.pub.SimTime).Milliseconds(),
		Done:        done,
		Arrivals:    c.Arrivals,
		Completions: c.Completions,
		JobsDone:    c.JobsDone,
		Loans:       c.Loans,
		Reclaims:    c.Reclaims,
		P50MS:       hist.Quantile(0.50).Milliseconds(),
		P99MS:       hist.Quantile(0.99).Milliseconds(),
	}
	names := map[int]string{}
	for _, vm := range topo.VMs {
		names[vm.Idx] = vm.Name
	}
	for _, v := range occ.VMs {
		tp.VMs = append(tp.VMs, VMPoint{
			VM: v.VM, Name: names[v.VM], Running: v.Running, Blocked: v.Blocked,
			Queued: v.Queued, LentOut: v.LentOut, Pinned: v.Pinned, BusyCores: v.BusyCores,
		})
	}
	for ch := range r.subs {
		select {
		case ch <- tp:
		default: // slow subscriber: drop the point, never stall the loop
		}
	}
}

// State returns the latest published barrier snapshot.
func (r *Runner) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pub
}

// Enqueue validates a and queues it for the next barrier.
func (r *Runner) Enqueue(a Action) error {
	if err := a.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || r.closing {
		return fmt.Errorf("serve: run is over, action not applicable")
	}
	r.pending = append(r.pending, a)
	return nil
}

// Pause stops the loop at the next barrier (wall-clock only; not logged).
func (r *Runner) Pause() {
	r.mu.Lock()
	r.paused = true
	r.publishPausedLocked()
	r.mu.Unlock()
}

// Resume restarts a paused loop.
func (r *Runner) Resume() {
	r.mu.Lock()
	r.paused = false
	r.publishPausedLocked()
	r.mu.Unlock()
	r.cond.Broadcast()
}

// StepBarrier advances one barrier while paused.
func (r *Runner) StepBarrier() error {
	r.mu.Lock()
	defer func() { r.mu.Unlock(); r.cond.Broadcast() }()
	if !r.paused {
		return fmt.Errorf("serve: step requires a paused run")
	}
	r.stepsOK++
	return nil
}

// publishPausedLocked keeps the published pause flag current without
// waiting for the next barrier.
func (r *Runner) publishPausedLocked() {
	r.pub.Paused = r.paused
	r.pub.Pace = r.pace
}

// SetPace changes the simulated-seconds-per-wall-second rate (0 = unpaced).
func (r *Runner) SetPace(p float64) {
	r.mu.Lock()
	r.pace = p
	r.publishPausedLocked()
	r.mu.Unlock()
}

// Shutdown asks the loop to exit at the next barrier and signals the
// process-level waiters. Idempotent.
func (r *Runner) Shutdown() {
	r.shutdownMu.Do(func() {
		r.mu.Lock()
		r.closing = true
		r.mu.Unlock()
		r.cond.Broadcast()
		close(r.shutdownCh)
	})
}

// ShutdownRequested is closed once Shutdown has been called.
func (r *Runner) ShutdownRequested() <-chan struct{} { return r.shutdownCh }

// Done reports whether the run reached its horizon.
func (r *Runner) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// Summary returns the deterministic end-of-run summary once Done.
func (r *Runner) Summary() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summary, r.done
}

// Subscribe registers a timeseries listener; cancel unregisters it and
// closes the channel. Points published while the channel is full are
// dropped.
func (r *Runner) Subscribe(buf int) (<-chan TimePoint, func()) {
	ch := make(chan TimePoint, buf)
	r.mu.Lock()
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	cancel := func() {
		r.mu.Lock()
		if _, ok := r.subs[ch]; ok {
			delete(r.subs, ch)
			close(ch)
		}
		r.mu.Unlock()
	}
	return ch, cancel
}
