package serve

import (
	"bytes"
	"strings"
	"testing"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
)

// quickCfg is a small-but-real run: full system, short windows.
func quickCfg() RunConfig {
	return RunConfig{
		System:   "HardHarvest-Block",
		Workload: "BFS",
		Seed:     3,
		WarmupMS: 10,
		SimMS:    60,
		StepMS:   10,
	}
}

// TestStepEquivalenceZeroActions is the serve determinism cornerstone: a
// zero-action served run (barrier-stepped, meter attached, occupancy polled
// at every barrier) must produce a summary byte-identical to the monolithic
// batch run of the same configuration.
func TestStepEquivalenceZeroActions(t *testing.T) {
	cfg := quickCfg()

	// Batch baseline: one Run over the whole horizon, built straight from
	// the cluster constructors rather than the runner's own builder.
	kind, err := cluster.ParseSystem(cfg.System)
	if err != nil {
		t.Fatal(err)
	}
	work, err := batch.WorkloadByName(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.DefaultConfig()
	ccfg.WarmupDuration = sim.Duration(cfg.WarmupMS) * sim.Millisecond
	ccfg.MeasureDuration = sim.Duration(cfg.SimMS) * sim.Millisecond
	ccfg.Seed = cfg.Seed
	opts := cluster.SystemOptions(kind)
	meter := obs.NewMeter()
	opts.Observer = meter
	res := cluster.NewServer(ccfg, opts, work).Run()
	batchSum := renderSummary(cfg, res, meter.Counters(), meter.Hist(), 0)

	// Served: the replay path drives the identical barrier loop a live
	// runner uses.
	stepped, err := ReplayActions(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stepped != batchSum {
		t.Fatalf("stepped run diverged from batch run:\n--- batch ---\n%s--- stepped ---\n%s", batchSum, stepped)
	}
	if !strings.Contains(batchSum, "counters: arrivals=") {
		t.Fatalf("summary shape unexpected:\n%s", batchSum)
	}
}

// TestStepEquivalenceAcrossStepSizes: the barrier cadence is a wall-clock
// detail — it must never leak into simulation results.
func TestStepEquivalenceAcrossStepSizes(t *testing.T) {
	a := quickCfg()
	b := quickCfg()
	b.StepMS = 3 // horizon is not a multiple: exercises the clamp
	sa, err := ReplayActions(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ReplayActions(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The step size appears in the header line; everything below it must
	// match exactly.
	trim := func(s string) string { return s[strings.Index(s, "\nresult:"):] }
	if trim(sa) != trim(sb) {
		t.Fatalf("step size changed simulation results:\n--- 10ms ---\n%s--- 3ms ---\n%s", sa, sb)
	}
}

// liveRun drives a live runner with a deterministic action schedule using
// the pause/step controls, returning its summary and action log.
func liveRun(t *testing.T, cfg RunConfig) (string, *bytes.Buffer) {
	t.Helper()
	var log bytes.Buffer
	r, err := NewRunner(cfg, &log, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Subscribe(4096)
	defer cancel()
	r.Pause()
	go r.Loop()

	// Applied at barrier t=0 (enqueued before the step grant).
	mustEnqueue(t, r, Action{Kind: ActIntensity, Intensity: 1.5})
	step := func() {
		if err := r.StepBarrier(); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	step() // -> 10ms
	step() // -> 20ms
	// Applied at barrier t=20ms.
	mustEnqueue(t, r, Action{Kind: ActResilience, On: true})
	mustEnqueue(t, r, Action{Kind: ActFaults, Plan: &faults.Plan{
		Events: []faults.ScriptedEvent{{AtMS: 5, Kind: "core_offline", Core: 3, DurationMS: 8}},
	}})
	step() // -> 30ms
	// Applied at barrier t=30ms.
	mustEnqueue(t, r, Action{Kind: ActHarvestOnBlock, On: false})
	r.Resume()
	for tp := range ch {
		if tp.Done {
			break
		}
	}
	summary, ok := r.Summary()
	if !ok {
		t.Fatal("run finished without a summary")
	}
	return summary, &log
}

func mustEnqueue(t *testing.T, r *Runner, a Action) {
	t.Helper()
	if err := r.Enqueue(a); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDeterminismWithActions: a served run with intensity, policy,
// and fault-plan actions must replay byte-identically from its action log.
func TestReplayDeterminismWithActions(t *testing.T) {
	cfg := quickCfg()
	live, log := liveRun(t, cfg)
	logCopy := log.String()

	replayed, err := Replay(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("replay failed: %v\nlog:\n%s", err, logCopy)
	}
	if replayed != live {
		t.Fatalf("replay diverged from live run:\n--- live ---\n%s--- replay ---\n%s\nlog:\n%s",
			live, replayed, logCopy)
	}

	// The actions must have moved the simulation: the same config with no
	// actions ends elsewhere (faults counter if nothing else).
	plain, err := ReplayActions(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain == live {
		t.Fatal("action run is identical to the zero-action run: actions were lost")
	}
	if !strings.Contains(live, "faults=1") {
		t.Fatalf("injected fault not reflected in counters:\n%s", live)
	}

	// Log shape: header plus four applied actions at their barrier times.
	lines := strings.Split(strings.TrimSpace(logCopy), "\n")
	if len(lines) != 5 {
		t.Fatalf("log has %d lines, want header+4 actions:\n%s", len(lines), logCopy)
	}
	for _, frag := range []string{
		`"hhsim_serve_log":1`,
		`"at":0,"kind":"intensity","intensity":1.5`,
		`"at":20000000000,"kind":"resilience","on":true`,
		`"at":20000000000,"kind":"faults"`,
		`"at":30000000000,"kind":"harvest_on_block"`,
	} {
		if !strings.Contains(logCopy, frag) {
			t.Fatalf("log missing %q:\n%s", frag, logCopy)
		}
	}

	// Replay twice: same bytes again (no hidden state in Replay itself).
	again, err := Replay(strings.NewReader(logCopy))
	if err != nil {
		t.Fatal(err)
	}
	if again != replayed {
		t.Fatal("two replays of the same log disagree")
	}
}

// routedCfg is a small routed fleet: three backends behind the front door.
func routedCfg() RunConfig {
	cfg := quickCfg()
	cfg.Routed = true
	cfg.Backends = 3
	cfg.Policy = "least_outstanding"
	return cfg
}

// TestRoutedServeReplayDeterminism drives a live routed run through every
// routed action kind — fleet-wide intensity, a targeted crash, a targeted
// drain — and requires the action log to replay byte-identically.
func TestRoutedServeReplayDeterminism(t *testing.T) {
	cfg := routedCfg()
	var log bytes.Buffer
	r, err := NewRunner(cfg, &log, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Subscribe(4096)
	defer cancel()
	r.Pause()
	go r.Loop()

	mustEnqueue(t, r, Action{Kind: ActIntensity, Intensity: 1.4})
	step := func() {
		if err := r.StepBarrier(); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	step() // -> 10ms
	mustEnqueue(t, r, Action{Kind: ActFaults, Server: 0, Plan: &faults.Plan{
		Events: []faults.ScriptedEvent{{AtMS: 5, Kind: "crash", DurationMS: 10}},
	}})
	step() // -> 20ms
	mustEnqueue(t, r, Action{Kind: ActDrain, Server: 2, DeadlineMS: 3})
	r.Resume()
	for tp := range ch {
		if tp.Done {
			break
		}
	}
	live, ok := r.Summary()
	if !ok {
		t.Fatal("routed run finished without a summary")
	}
	for _, frag := range []string{
		"== hhsim serve summary (routed) ==",
		"fleet: backends=3 policy=least_outstanding",
		"drains=1",
		"state=drained",
		"PASS fleet_conservation",
	} {
		if !strings.Contains(live, frag) {
			t.Fatalf("routed summary missing %q:\n%s", frag, live)
		}
	}

	replayed, err := Replay(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("routed replay failed: %v\nlog:\n%s", err, log.String())
	}
	if replayed != live {
		t.Fatalf("routed replay diverged from live run:\n--- live ---\n%s--- replay ---\n%s", live, replayed)
	}

	// The targeted actions must have moved the fleet: a zero-action routed
	// run ends elsewhere.
	plain, err := ReplayActions(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain == live {
		t.Fatal("routed action run is identical to the zero-action run: actions were lost")
	}
}

// TestRoutedActionTargeting pins the apply-time rules: routerless runs
// reject drains and nonzero server targets; routed runs reject out-of-range
// backends.
func TestRoutedActionTargeting(t *testing.T) {
	plain, err := NewRunner(quickCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.applyAction(Action{Kind: ActDrain, DeadlineMS: 1}, 0); err == nil {
		t.Fatal("routerless run accepted a drain")
	}
	if err := plain.applyAction(Action{Kind: ActIntensity, Intensity: 2, Server: 1}, 0); err == nil {
		t.Fatal("routerless run accepted a server-targeted action")
	}

	routed, err := NewRunner(routedCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := routed.applyAction(Action{Kind: ActDrain, Server: 9, DeadlineMS: 1}, 0); err == nil {
		t.Fatal("routed run accepted an out-of-range backend")
	}
	if err := routed.applyAction(Action{Kind: ActDrain, Server: 1, DeadlineMS: 1}, 0); err != nil {
		t.Fatalf("in-range drain rejected: %v", err)
	}
}

// TestRoutedConfigValidation covers the constructor's routed-mode checks.
func TestRoutedConfigValidation(t *testing.T) {
	bad := routedCfg()
	bad.Backends = 0
	if _, err := NewRunner(bad, nil, 0); err == nil {
		t.Fatal("routed run with 0 backends accepted")
	}
	bad = routedCfg()
	bad.Policy = "fastest_guess"
	if _, err := NewRunner(bad, nil, 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := (Action{Kind: ActDrain, DeadlineMS: 0}).validate(); err == nil {
		t.Fatal("drain without a deadline accepted")
	}
	if err := (Action{Kind: ActIntensity, Intensity: 2, Server: -1}).validate(); err == nil {
		t.Fatal("negative server accepted")
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(strings.NewReader("")); err == nil {
		t.Fatal("empty log accepted")
	}
	if _, err := Replay(strings.NewReader("{\"not\":\"a header\"}\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	hdr := `{"hhsim_serve_log":1,"config":{"system":"HardHarvest-Block","workload":"BFS","seed":1,"warmup_ms":10,"sim_ms":20,"step_ms":10}}`
	if _, err := Replay(strings.NewReader(hdr + "\n" + `{"at":0,"kind":"nope"}` + "\n")); err == nil {
		t.Fatal("unknown action kind accepted")
	}
	if _, err := Replay(strings.NewReader(hdr + "\n" + `{"at":7,"kind":"intensity","intensity":2}` + "\n")); err == nil {
		t.Fatal("off-barrier action accepted")
	}
}

// TestReplayHeaderDiagnostics pins the split between the two header
// failure modes — malformed JSON and well-formed JSON that is not an
// action-log header — and the line numbering of action errors. Each case
// must produce a distinct, positioned message, not one opaque error.
func TestReplayHeaderDiagnostics(t *testing.T) {
	hdr := `{"hhsim_serve_log":1,"config":{"system":"HardHarvest-Block","workload":"BFS","seed":1,"warmup_ms":10,"sim_ms":20,"step_ms":10}}`
	cases := []struct {
		name string
		log  string
		want []string
	}{
		{
			name: "malformed header JSON",
			log:  "{\"hhsim_serve_log\": oops}\n",
			want: []string{"line 1", "malformed header JSON", "column"},
		},
		{
			name: "wrong magic",
			log:  "{\"hhsim_serve_log\":2}\n",
			want: []string{"line 1", "not an hhsim serve action log", "hhsim_serve_log=1"},
		},
		{
			name: "valid JSON, not a header at all",
			log:  "{\"intensity\":1.5}\n",
			want: []string{"line 1", "not an hhsim serve action log"},
		},
		{
			name: "malformed action line is numbered",
			log:  hdr + "\n" + `{"at":0,"kind":"intensity","intensity":2}` + "\n{broken\n",
			want: []string{"line 3", "malformed action JSON"},
		},
		{
			name: "invalid action line is numbered",
			log:  hdr + "\n" + `{"at":0,"kind":"nope"}` + "\n",
			want: []string{"line 2", "unknown action kind"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replay(strings.NewReader(tc.log))
			if err == nil {
				t.Fatal("log unexpectedly replayed")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q missing %q", err, w)
				}
			}
		})
	}
}

func TestActionValidation(t *testing.T) {
	cfg := quickCfg()
	r, err := NewRunner(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Action{
		{Kind: ActIntensity, Intensity: 0},
		{Kind: ActIntensity, Intensity: -2},
		{Kind: ActFaults},
		{Kind: "warp_speed"},
	} {
		if err := r.Enqueue(a); err == nil {
			t.Fatalf("action %+v accepted", a)
		}
	}
	if err := r.StepBarrier(); err == nil {
		t.Fatal("step allowed while not paused")
	}
}

// TestVanishingIntensity: an intensity whose exponential gaps overflow the
// simulated clock used to wrap each gap negative, clamp it to 1 ns and
// flood the run forever. Enqueue, Replay (with the offending line's
// number) and ReplayActions all refuse it.
func TestVanishingIntensity(t *testing.T) {
	a := Action{Kind: ActIntensity, Intensity: 1e-300}
	r, err := NewRunner(quickCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Enqueue(a); err == nil || !strings.Contains(err.Error(), "at least 1e-06") {
		t.Fatalf("Enqueue error = %v, want a minimum-intensity rejection", err)
	}
	hdr := `{"hhsim_serve_log":1,"config":{"system":"HardHarvest-Block","workload":"BFS","seed":1,"warmup_ms":10,"sim_ms":20,"step_ms":10}}`
	_, err = Replay(strings.NewReader(hdr + "\n" + `{"at":0,"kind":"intensity","intensity":1e-300}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2: serve: intensity: must be positive") {
		t.Fatalf("Replay error = %v, want a line-numbered intensity rejection", err)
	}
	if _, err := ReplayActions(quickCfg(), []Action{a}); err == nil {
		t.Fatal("ReplayActions applied a vanishing intensity")
	}
}

func TestParseSystem(t *testing.T) {
	if _, err := ParseSystem("HardHarvest-Block"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSystem("NoSuchSystem"); err == nil {
		t.Fatal("bad system name accepted")
	}
	if _, err := NewRunner(RunConfig{System: "x", Workload: "BFS", SimMS: 10, StepMS: 1}, nil, 0); err == nil {
		t.Fatal("runner built for unknown system")
	}
	if _, err := NewRunner(RunConfig{System: "NoHarvest", Workload: "BFS", SimMS: 10, StepMS: 0}, nil, 0); err == nil {
		t.Fatal("runner built with zero step")
	}
}

// TestDrainDeadlineOverflowRejected: a drain deadline whose picosecond
// count does not fit the simulated clock (1e10 ms is 1e22 ps) used to wrap
// to a negative delay and panic the loop in ScheduleCall. Enqueue, Replay
// (with the offending line's number) and ReplayActions all refuse it.
func TestDrainDeadlineOverflowRejected(t *testing.T) {
	a := Action{Kind: ActDrain, Server: 1, DeadlineMS: 1e10}
	r, err := NewRunner(routedCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Enqueue(a); err == nil || !strings.Contains(err.Error(), "does not fit the simulated clock") {
		t.Fatalf("Enqueue error = %v, want a clock-overflow rejection", err)
	}
	hdr := `{"hhsim_serve_log":1,"config":{"system":"HardHarvest-Block","workload":"BFS","seed":1,"warmup_ms":10,"sim_ms":20,"step_ms":10,"routed":true,"backends":2}}`
	_, err = Replay(strings.NewReader(hdr + "\n" + `{"at":0,"kind":"drain","server":1,"deadline_ms":1e10}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2: serve: drain deadline_ms 1e+10 does not fit") {
		t.Fatalf("Replay error = %v, want a line-numbered clock-overflow rejection", err)
	}
	if _, err := ReplayActions(routedCfg(), []Action{a}); err == nil {
		t.Fatal("ReplayActions applied an overflowing drain")
	}
}
