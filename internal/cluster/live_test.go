package cluster

import (
	"strings"
	"testing"
	"time"

	"hardharvest/internal/faults"
	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
)

func liveConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.WarmupDuration = 5 * sim.Millisecond
	cfg.MeasureDuration = 40 * sim.Millisecond
	return cfg
}

// TestStepToEquivalence pins the fact live mode is built on: chopping the
// run into StepTo increments (here a cadence the horizon is not a multiple
// of) fires the identical event sequence as one monolithic Run.
func TestStepToEquivalence(t *testing.T) {
	mono := NewServer(liveConfig(), SystemOptions(HardHarvestBlock), bfs(t))
	monoRes := mono.Run()

	stepped := NewServer(liveConfig(), SystemOptions(HardHarvestBlock), bfs(t))
	stepped.Start()
	steps := 0
	for !stepped.StepTo(stepped.Now().Add(7 * sim.Millisecond)) {
		steps++
	}
	stepRes := stepped.Finish()

	if got, want := stepRes.String(), monoRes.String(); got != want {
		t.Fatalf("stepped run diverged from Run():\n  mono: %s\n  step: %s", want, got)
	}
	if mono.EventsFired() != stepped.EventsFired() {
		t.Fatalf("event counts differ: %d vs %d", mono.EventsFired(), stepped.EventsFired())
	}
	if steps == 0 {
		t.Fatal("StepTo loop never iterated")
	}
	// StepTo past the horizon clamps and reports done idempotently.
	if !stepped.StepTo(stepped.Horizon().Add(sim.Second)) {
		t.Fatal("StepTo past the horizon did not report done")
	}
}

func TestLiveAccessors(t *testing.T) {
	s := NewServer(liveConfig(), SystemOptions(HardHarvestBlock), bfs(t))
	s.Start()
	ms, me := s.MeasureWindow()
	if ms != sim.Time(0).Add(5*sim.Millisecond) || me != ms.Add(40*sim.Millisecond) {
		t.Fatalf("measure window [%v, %v]", ms, me)
	}
	if h := s.Horizon(); h <= me {
		t.Fatalf("horizon %v not past measure end %v", h, me)
	}
	if s.EventsPending() == 0 {
		t.Fatal("no events pending after Start")
	}
	s.StepTo(sim.Time(0).Add(10 * sim.Millisecond))
	if now := s.Now(); now == 0 || now > sim.Time(0).Add(10*sim.Millisecond) {
		t.Fatalf("Now() = %v after stepping to 10ms", now)
	}
	if s.EventsFired() == 0 {
		t.Fatal("no events fired after stepping")
	}
	topo := s.LiveTopology()
	snap := s.OccupancySnapshot()
	if len(topo.VMs) == 0 || len(snap.VMs) != len(topo.VMs) {
		t.Fatalf("topology %d VMs, snapshot %d", len(topo.VMs), len(snap.VMs))
	}
	if snap.Time != s.Now() {
		t.Fatalf("snapshot stamped %v, now %v", snap.Time, s.Now())
	}
	busy := 0
	for _, v := range snap.VMs {
		busy += v.BusyCores
	}
	if busy == 0 {
		t.Fatal("mid-run occupancy snapshot shows an idle server")
	}
	s.StepTo(s.Horizon())
	s.Finish()
}

// TestSetIntensity: scaling offered load up mid-run must raise arrivals
// versus an untouched same-seed run; x <= 0 is rejected.
func TestSetIntensity(t *testing.T) {
	run := func(boost bool) uint64 {
		m := obs.NewMeter()
		opts := SystemOptions(HardHarvestBlock)
		opts.Observer = m
		s := NewServer(liveConfig(), opts, bfs(t))
		s.Start()
		s.StepTo(sim.Time(0).Add(10 * sim.Millisecond))
		if boost {
			if err := s.SetIntensity(4.0); err != nil {
				t.Fatal(err)
			}
		}
		s.StepTo(s.Horizon())
		s.Finish()
		c := m.Counters()
		return c.Arrivals
	}
	base, boosted := run(false), run(true)
	if boosted <= base {
		t.Fatalf("4x intensity did not raise arrivals: %d -> %d", base, boosted)
	}

	s := NewServer(liveConfig(), SystemOptions(HardHarvestBlock), bfs(t))
	s.Start()
	for _, bad := range []float64{0, -1} {
		if err := s.SetIntensity(bad); err == nil {
			t.Fatalf("intensity %v accepted", bad)
		}
	}

	// A vanishing intensity overflows every exponential gap; the gaps
	// saturate past the horizon instead of wrapping to 1 ns, so the run
	// finishes with no arrival after the change.
	m := obs.NewMeter()
	opts := SystemOptions(HardHarvestBlock)
	opts.Observer = m
	s = NewServer(liveConfig(), opts, bfs(t))
	s.Start()
	s.StepTo(sim.Time(0).Add(10 * sim.Millisecond))
	if err := s.SetIntensity(1e-300); err != nil {
		t.Fatal(err)
	}
	before := m.Counters().Arrivals
	s.StepTo(s.Horizon())
	s.Finish()
	// Each VM may still deliver the arrival scheduled before the change,
	// with its flash batch of up to 16 more.
	if after := m.Counters().Arrivals; after > before+17*uint64(liveConfig().PrimaryVMs) {
		t.Fatalf("arrivals kept coming after a vanishing intensity: %d -> %d", before, after)
	}
}

func TestSetHarvestOnBlock(t *testing.T) {
	opts := SystemOptions(HardHarvestBlock)
	s := NewServer(liveConfig(), opts, bfs(t))
	if !s.opts.HarvestOnBlock {
		t.Fatal("HardHarvest-Block should start with HarvestOnBlock")
	}
	s.SetHarvestOnBlock(false)
	if s.opts.HarvestOnBlock {
		t.Fatal("SetHarvestOnBlock(false) did not stick")
	}
	s.SetHarvestOnBlock(true)
	if !s.opts.HarvestOnBlock {
		t.Fatal("SetHarvestOnBlock(true) did not stick")
	}
}

// TestSetResilienceEnabled covers the lazy-enable paths: installing the
// default policy on a server built without one, idempotent re-enable, and
// disable. A run with it enabled mid-flight must still finish clean under
// the invariant checker.
func TestSetResilienceEnabled(t *testing.T) {
	cfg := liveConfig()
	cfg.Strict = true
	s := NewServer(cfg, SystemOptions(HardHarvestBlock), bfs(t))
	if s.resOn {
		t.Fatal("resilience on without a policy configured")
	}
	s.Start()
	s.StepTo(sim.Time(0).Add(10 * sim.Millisecond))
	s.SetResilienceEnabled(true)
	if !s.resOn || !s.opts.Resilience.Enabled() {
		t.Fatal("enable did not install the default policy")
	}
	rng := s.resRNG
	if rng == nil {
		t.Fatal("enable did not derive the jitter RNG")
	}
	s.SetResilienceEnabled(true) // idempotent: must not re-derive
	if s.resRNG != rng {
		t.Fatal("re-enable re-derived the jitter RNG")
	}
	s.SetResilienceEnabled(false)
	if s.resOn {
		t.Fatal("disable did not stick")
	}
	s.SetResilienceEnabled(true) // re-enable keeps the same RNG stream
	if s.resRNG != rng {
		t.Fatal("re-enable after disable replaced the jitter RNG")
	}
	s.StepTo(s.Horizon())
	res := s.Finish()
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations: %s", res.InvariantViolations, res.FirstViolation)
	}
}

func TestInjectFaultPlan(t *testing.T) {
	plan := &faults.Plan{Events: []faults.ScriptedEvent{
		{AtMS: 1, Kind: "core_offline", Core: 3, DurationMS: 5},
	}}

	m := obs.NewMeter()
	opts := SystemOptions(HardHarvestBlock)
	opts.Observer = m
	cfg := liveConfig()
	cfg.Strict = true
	s := NewServer(cfg, opts, bfs(t))
	s.Start()
	s.StepTo(sim.Time(0).Add(10 * sim.Millisecond))
	if err := s.InjectFaultPlan(plan, s.Now()); err != nil {
		t.Fatal(err)
	}
	s.StepTo(s.Horizon())
	res := s.Finish()
	c := m.Counters()
	if c.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", c.FaultsInjected)
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations: %s", res.InvariantViolations, res.FirstViolation)
	}

	// Error paths: nil plan, invalid plan, start at/past the horizon. A
	// `from` before now is clamped, not rejected.
	s2 := NewServer(liveConfig(), SystemOptions(HardHarvestBlock), bfs(t))
	s2.Start()
	if err := s2.InjectFaultPlan(nil, 0); err == nil {
		t.Fatal("nil plan accepted")
	}
	bad := &faults.Plan{Events: []faults.ScriptedEvent{{AtMS: 1, Kind: "nope"}}}
	if err := s2.InjectFaultPlan(bad, 0); err == nil ||
		!strings.Contains(err.Error(), "fault plan") {
		t.Fatalf("invalid plan: %v", err)
	}
	if err := s2.InjectFaultPlan(plan, s2.Horizon()); err == nil {
		t.Fatal("plan starting at the horizon accepted")
	}
	s2.StepTo(sim.Time(0).Add(10 * sim.Millisecond))
	if err := s2.InjectFaultPlan(plan, 0); err != nil { // clamped to now
		t.Fatal(err)
	}
	s2.StepTo(s2.Horizon())
	s2.Finish()
}

// TestCompoundedDegradeSaturates: overlapping core_degrade windows multiply
// on their core, so seven at the largest valid factor scale a burst by
// 1e21, past int64 picoseconds. The scaled burst saturates instead of
// wrapping into a negative delay, which used to panic the engine.
func TestCompoundedDegradeSaturates(t *testing.T) {
	plan := &faults.Plan{}
	for i := 0; i < 7; i++ {
		plan.Events = append(plan.Events, faults.ScriptedEvent{AtMS: 1, Kind: "core_degrade", Core: 0, Factor: 1000, DurationMS: 20})
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := liveConfig()
	cfg.Strict = true
	s := NewServer(cfg, SystemOptions(HardHarvestBlock), bfs(t))
	s.Start()
	if err := s.InjectFaultPlan(plan, 0); err != nil {
		t.Fatal(err)
	}
	s.StepTo(s.Horizon())
	if res := s.Finish(); res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations: %s", res.InvariantViolations, res.FirstViolation)
	}
}

// TestJoinGroupDeclaresHorizon: a server's engine keeps events past its
// horizon that StepTo never runs. JoinGroup, called before Start, declares
// that horizon, so a linked server with a later horizon runs on to its own
// instead of stalling behind them, and each server finishes exactly as a
// plain Run of the same config does (the links carry no messages).
func TestJoinGroupDeclaresHorizon(t *testing.T) {
	short, long := liveConfig(), liveConfig()
	long.Seed++
	long.MeasureDuration *= 2
	opts := SystemOptions(HardHarvestBlock)
	g := sim.NewShardGroup(1)
	a := NewServer(short, opts, bfs(t))
	b := NewServer(long, opts, bfs(t))
	ma, mb := a.JoinGroup(g), b.JoinGroup(g)
	g.Link(ma, mb, sim.Millisecond)
	g.Link(mb, ma, sim.Millisecond)
	a.Start()
	b.Start()
	if a.Horizon() >= b.Horizon() {
		t.Fatalf("horizons %v and %v: want the first earlier", a.Horizon(), b.Horizon())
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		g.Run(b.Horizon())
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("group run panicked: %v", p)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("group run did not return")
	}
	if a.EventsPending() == 0 {
		t.Fatal("the short server holds no event past its horizon: the test pins nothing")
	}
	for _, c := range []struct {
		srv *Server
		cfg Config
	}{{a, short}, {b, long}} {
		got, want := c.srv.Finish(), NewServer(c.cfg, opts, bfs(t)).Run()
		if got.Requests != want.Requests || got.Arrivals != want.Arrivals || got.HarvestJobs != want.HarvestJobs {
			t.Fatalf("grouped server: %d requests, %d arrivals, %d jobs; alone: %d, %d, %d",
				got.Requests, got.Arrivals, got.HarvestJobs, want.Requests, want.Arrivals, want.HarvestJobs)
		}
	}
}
