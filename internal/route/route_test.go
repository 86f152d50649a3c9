package route

import (
	"fmt"
	"strings"
	"testing"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/front"
	"hardharvest/internal/sim"
	"hardharvest/internal/validate"
)

func testBatch(tb testing.TB) *batch.Workload {
	tb.Helper()
	for _, w := range batch.Workloads() {
		if w.Name == "BFS" {
			return w
		}
	}
	tb.Fatal("BFS workload missing")
	return nil
}

// fleetSpec configures one testFleet run.
type fleetSpec struct {
	n       int
	workers int
	rc      Config
	// edit tweaks server i's config/options before construction.
	edit func(i int, cfg *cluster.Config, opts *cluster.Options)
	// actions install router actions before the run.
	actions []front.Action[*Router]
	// inspect, when set, sees the router after the run.
	inspect func(rt *Router)
}

// runFleet assembles a router plus n servers into a ShardGroup and runs it
// to the horizon.
func runFleet(tb testing.TB, spec fleetSpec) (*Result, []*cluster.ServerResult) {
	tb.Helper()
	var specs []Backend
	var servers []*cluster.Server
	for i := 0; i < spec.n; i++ {
		cfg := cluster.DefaultConfig()
		cfg.Seed = 1000 + uint64(i)*7919
		cfg.WarmupDuration = 2 * sim.Millisecond
		cfg.MeasureDuration = 30 * sim.Millisecond
		opts := cluster.SystemOptions(cluster.HardHarvestBlock)
		opts.RemoteAdmission = true
		if spec.edit != nil {
			spec.edit(i, &cfg, &opts)
		}
		srv := cluster.NewServer(cfg, opts, testBatch(tb))
		servers = append(servers, srv)
		specs = append(specs, Backend{
			Server: srv, Cfg: cfg, Name: fmt.Sprintf("srv[%d]", i),
		})
	}
	rt := New(spec.rc, specs)
	g := sim.NewShardGroup(spec.workers)
	horizon := front.Wire(g, rt, servers)
	rt.SetActions(spec.actions)
	g.Run(horizon)
	if spec.inspect != nil {
		spec.inspect(rt)
	}
	var srvRes []*cluster.ServerResult
	for _, srv := range servers {
		srvRes = append(srvRes, srv.Finish())
	}
	return rt.Finish(), srvRes
}

// render flattens a Result into a comparable, human-readable string.
func render(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy=%v gen=%d init=%d disp=%d fo=%d done=%d shed=%d lost=%d lostAdmit=%d inflight=%d\n",
		r.Policy, r.Generated, r.InitialDispatches, r.Dispatches, r.Failovers,
		r.Completions, r.Sheds, r.Lost, r.LostAtAdmit, r.InflightEnd)
	fmt.Fprintf(&sb, "doneRecv=%d shedRecv=%d zd=%d zs=%d out=%d probes=%d pf=%d ej=%d re=%d dr=%d\n",
		r.DoneRecv, r.ShedRecv, r.ZombieDones, r.ZombieSheds, r.OutstandingEnd,
		r.Probes, r.ProbeFails, r.Ejections, r.Readmits, r.Drains)
	fmt.Fprintf(&sb, "lat n=%d sum=%.9f p50=%.9f p99=%.9f\n",
		r.FleetLatency.Count(), r.FleetLatency.Sum(), r.FleetLatency.P50(), r.FleetLatency.P99())
	for _, b := range r.Backends {
		fmt.Fprintf(&sb, "%s state=%s disp=%d done=%d shed=%d zd=%d zs=%d fo=%d lost=%d probes=%d pf=%d uh=%d ej=%d dr=%d cr=%d act=%d edge n=%d sum=%.9f\n",
			b.Name, b.State, b.Dispatches, b.Dones, b.Sheds, b.ZombieDones, b.ZombieSheds,
			b.FailoversOut, b.Lost, b.Probes, b.ProbeFails, b.UnhealthySpells,
			b.Ejections, b.Drains, b.Crashes, b.ActiveEnd,
			b.EdgeLatency.Count(), b.EdgeLatency.Sum())
	}
	return sb.String()
}

func mustConserve(t *testing.T, r *Result) {
	t.Helper()
	if c := r.Conservation("fleet"); !c.OK {
		t.Fatalf("fleet conservation violated: %s", c.Detail)
	}
}

// TestRoutedFleetBasic: a healthy 3-server fleet completes routed traffic,
// spreads dispatches over every backend, probes stay green, and the
// conservation identities hold.
func TestRoutedFleetBasic(t *testing.T) {
	res, srvRes := runFleet(t, fleetSpec{n: 3, workers: 2, rc: DefaultConfig()})
	mustConserve(t, res)
	if res.Generated == 0 || res.Completions == 0 {
		t.Fatalf("no routed traffic: %+v", res)
	}
	if res.Lost != 0 || res.Failovers != 0 || res.Ejections != 0 {
		t.Fatalf("healthy fleet saw loss/failover/ejection: lost=%d fo=%d ej=%d",
			res.Lost, res.Failovers, res.Ejections)
	}
	if res.Probes == 0 || res.ProbeFails != 0 {
		t.Fatalf("probes=%d probeFails=%d", res.Probes, res.ProbeFails)
	}
	if got := float64(res.Completions) / float64(res.Generated); got < 0.95 {
		t.Fatalf("completion ratio %.3f too low", got)
	}
	if res.FleetLatency.Count() == 0 || res.FleetLatency.P99() <= 0 {
		t.Fatal("fleet latency sketch empty")
	}
	for i, b := range res.Backends {
		if b.Dispatches == 0 {
			t.Fatalf("backend %d starved under round-robin", i)
		}
		if b.State != "healthy" {
			t.Fatalf("backend %d ended %s", i, b.State)
		}
		// Every dispatch is admitted server-side, minus messages still in
		// flight when the engines stopped.
		if got, want := uint64(srvRes[i].Arrivals), b.Dispatches; got > want || want-got > 8 {
			t.Fatalf("backend %d: server admitted %d of %d dispatches", i, got, want)
		}
		if srvRes[i].InvariantViolations != 0 {
			t.Fatalf("backend %d: %s", i, srvRes[i].FirstViolation)
		}
	}
}

// TestRoutedFleetDeterminism: the worker count is an execution detail —
// the rendered result must be byte-identical at 1, 2, and 8 workers and
// across repeats, for every policy. Server 0 crashes mid-run (failover and
// zombie replies); in the shedding variant server 1 also sheds at a
// one-deep queue, so done, shed and zombie replies all cross members.
func TestRoutedFleetDeterminism(t *testing.T) {
	for _, shedding := range []bool{false, true} {
		for _, pol := range []Policy{RoundRobin, LeastOutstanding, Weighted} {
			rc := DefaultConfig()
			rc.Policy = pol
			spec := func(workers int) fleetSpec {
				return fleetSpec{n: 3, workers: workers, rc: rc,
					edit: func(i int, cfg *cluster.Config, opts *cluster.Options) {
						if i == 0 {
							cfg.FaultPlan = &faults.Plan{Events: []faults.ScriptedEvent{
								{AtMS: 10, Kind: "crash", DurationMS: 8},
							}}
						}
						if i == 1 && shedding {
							opts.Resilience.MaxQueueDepth = 1
						}
					}}
			}
			baseRes, _ := runFleet(t, spec(1))
			if shedding && baseRes.ShedRecv == 0 {
				t.Fatalf("policy %v: shedding variant shed nothing", pol)
			}
			if baseRes.ZombieDones+baseRes.ZombieSheds == 0 {
				t.Fatalf("policy %v shedding=%v: no zombie replies", pol, shedding)
			}
			base := render(baseRes)
			for _, workers := range []int{1, 2, 8} {
				got := render(func() *Result { r, _ := runFleet(t, spec(workers)); return r }())
				if got != base {
					t.Fatalf("policy %v shedding=%v: workers=%d diverged:\n--- workers=1\n%s--- workers=%d\n%s",
						pol, shedding, workers, base, workers, got)
				}
			}
		}
	}
}

// TestFailoverOnCrash: a mid-run crash strands in-flight attempts; the
// router fails them over to the surviving servers, the crashed server's
// post-recovery completions count as zombies, nothing is lost, and the
// server is re-admitted by probes after recovery.
func TestFailoverOnCrash(t *testing.T) {
	res, srvRes := runFleet(t, fleetSpec{n: 3, workers: 4, rc: DefaultConfig(),
		edit: func(i int, cfg *cluster.Config, opts *cluster.Options) {
			if i == 0 {
				cfg.FaultPlan = &faults.Plan{Events: []faults.ScriptedEvent{
					{AtMS: 10, Kind: "crash", DurationMS: 10},
				}}
			}
		}})
	mustConserve(t, res)
	b0 := res.Backends[0]
	if b0.Crashes != 1 {
		t.Fatalf("backend 0 crashes = %d, want 1", b0.Crashes)
	}
	if res.Failovers == 0 || b0.FailoversOut == 0 {
		t.Fatalf("crash stranded nothing: failovers=%d", res.Failovers)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d requests despite failover budget and live fleet", res.Lost)
	}
	if res.ZombieDones == 0 {
		t.Fatal("durable-queue recovery produced no zombie completions")
	}
	if b0.State != "healthy" {
		t.Fatalf("backend 0 not re-admitted after recovery: %s", b0.State)
	}
	// The 10ms outage diverts traffic: survivors absorb more dispatches.
	if b0.Dispatches >= res.Backends[1].Dispatches {
		t.Fatalf("crashed backend kept full traffic share: %d vs %d",
			b0.Dispatches, res.Backends[1].Dispatches)
	}
	for i, sr := range srvRes {
		if sr.InvariantViolations != 0 {
			t.Fatalf("backend %d: %s", i, sr.FirstViolation)
		}
	}
}

// TestDrain: draining a backend stops new dispatch, lets in-flight work
// finish to the deadline, fails the rest over, and loses nothing.
func TestDrain(t *testing.T) {
	at := sim.Time(0).Add(10 * sim.Millisecond)
	res, _ := runFleet(t, fleetSpec{n: 3, workers: 2, rc: DefaultConfig(),
		actions: []front.Action[*Router]{{At: at, Fn: func(rt *Router) {
			rt.StartDrain(0, 2*sim.Millisecond)
		}}}})
	mustConserve(t, res)
	b0 := res.Backends[0]
	if res.Drains != 1 || b0.Drains != 1 {
		t.Fatalf("drains = %d/%d, want 1/1", res.Drains, b0.Drains)
	}
	if b0.State != "drained" {
		t.Fatalf("backend 0 ended %s, want drained", b0.State)
	}
	if res.Lost != 0 {
		t.Fatalf("drain lost %d requests", res.Lost)
	}
	// No dispatches after the drain point: the drained share is well under
	// an equal split.
	if b0.Dispatches*2 >= res.Backends[1].Dispatches {
		t.Fatalf("drained backend kept receiving traffic: %d vs %d",
			b0.Dispatches, res.Backends[1].Dispatches)
	}
}

// TestEjection: a backend shedding every attempt trips the circuit breaker,
// gets ejected, and is re-admitted half-open after the backoff.
func TestEjection(t *testing.T) {
	rc := DefaultConfig()
	rc.EjectAfter = 3
	rc.EjectBackoff = 5 * sim.Millisecond
	res, _ := runFleet(t, fleetSpec{n: 3, workers: 2, rc: rc,
		edit: func(i int, cfg *cluster.Config, opts *cluster.Options) {
			if i == 0 {
				// Overload the door: shed effectively everything.
				opts.Resilience.MaxQueueDepth = 1
				cfg.LoadScale *= 2
			}
		}})
	mustConserve(t, res)
	b0 := res.Backends[0]
	if b0.Sheds+b0.ZombieSheds == 0 {
		t.Fatal("overloaded backend shed nothing")
	}
	if res.Ejections == 0 || b0.Ejections == 0 {
		t.Fatalf("breaker never tripped: sheds=%d consec-threshold=%d", b0.Sheds, rc.EjectAfter)
	}
	if res.Readmits == 0 {
		t.Fatal("ejected backend never re-admitted")
	}
	if res.Ejections < 2 {
		t.Fatalf("half-open re-admission did not re-eject a still-bad backend: %d", res.Ejections)
	}
}

// TestNoEligibleBackend: with the whole fleet inside a crash window,
// admissions are lost at the door and accounted as such.
func TestNoEligibleBackend(t *testing.T) {
	res, _ := runFleet(t, fleetSpec{n: 2, workers: 2, rc: DefaultConfig(),
		edit: func(i int, cfg *cluster.Config, opts *cluster.Options) {
			cfg.FaultPlan = &faults.Plan{Events: []faults.ScriptedEvent{
				{AtMS: 0, Kind: "crash", DurationMS: 200},
			}}
		}})
	mustConserve(t, res)
	if res.LostAtAdmit == 0 {
		t.Fatal("dead fleet lost nothing at admission")
	}
	if res.ProbeFails == 0 {
		t.Fatal("probes never failed against a dead fleet")
	}
	for _, b := range res.Backends {
		if b.State != "down" {
			t.Fatalf("backend ended %s, want down", b.State)
		}
	}
}

// TestIntensityControls: scaling a source server's generators up raises
// its generated share; the accessors round-trip.
func TestIntensityControls(t *testing.T) {
	at := sim.Time(0).Add(5 * sim.Millisecond)
	base, _ := runFleet(t, fleetSpec{n: 2, workers: 2, rc: DefaultConfig()})
	boosted, _ := runFleet(t, fleetSpec{n: 2, workers: 2, rc: DefaultConfig(),
		actions: []front.Action[*Router]{{At: at, Fn: func(rt *Router) {
			rt.SetIntensity(0, 3.0)
			rt.SetVMIntensity(1, 0, 2.0)
			if got := rt.Intensity(0, 1); got != 3.0 {
				t.Errorf("Intensity(0,1) = %v after SetIntensity(0, 3)", got)
			}
			if got := rt.Intensity(1, 0); got != 2.0 {
				t.Errorf("Intensity(1,0) = %v after SetVMIntensity", got)
			}
			if got := rt.Intensity(9, 9); got != 0 {
				t.Errorf("Intensity(9,9) = %v for unknown generator", got)
			}
		}}}})
	mustConserve(t, boosted)
	if boosted.Generated <= base.Generated {
		t.Fatalf("intensity boost did not raise generation: %d -> %d",
			base.Generated, boosted.Generated)
	}
}

// TestConfigValidate: every field's rejection path names the field.
func TestConfigValidate(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		frag string
	}{
		{"bad policy", mod(func(c *Config) { c.Policy = Policy(9) }), "routing.policy"},
		{"bad delay", mod(func(c *Config) { c.NetDelay = 0 }), "network_delay_us"},
		{"bad probe", mod(func(c *Config) { c.ProbeInterval = 0 }), "probe_interval_ms"},
		{"bad unhealthy", mod(func(c *Config) { c.UnhealthyAfter = 0 }), "unhealthy_after"},
		{"bad healthy", mod(func(c *Config) { c.HealthyAfter = 0 }), "healthy_after"},
		{"bad eject", mod(func(c *Config) { c.EjectAfter = -1 }), "eject_after"},
		{"bad backoff", mod(func(c *Config) { c.EjectBackoff = 0 }), "eject_backoff_ms"},
		{"bad failovers", mod(func(c *Config) { c.MaxFailovers = -1 }), "max_failovers"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: error %v does not name %q", tc.name, err, tc.frag)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
	for _, name := range []string{"round_robin", "least_outstanding", "weighted"} {
		p, err := ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if got := Policy(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("Policy(9).String() = %q", got)
	}
}

// TestFleetConservationTeeth: a corrupted ledger must fail the oracle.
func TestFleetConservationTeeth(t *testing.T) {
	res, _ := runFleet(t, fleetSpec{n: 2, workers: 1, rc: DefaultConfig()})
	if c := res.Conservation("ok"); !c.OK {
		t.Fatalf("clean run failed conservation: %s", c.Detail)
	}
	tot := res.Totals()
	tot.Generated++
	if c := validate.FleetConservation("perturbed", tot); c.OK {
		t.Fatal("perturbed ledger passed conservation")
	} else if !strings.Contains(c.Detail, "generated") {
		t.Fatalf("violation detail %q does not name the identity", c.Detail)
	}
}
