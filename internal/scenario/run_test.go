package scenario

import (
	"strings"
	"testing"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/sim"
)

// quick parses a scenario from source, failing the test on error.
func quick(t *testing.T, doc string) *Scenario {
	t.Helper()
	sc, err := Parse([]byte(doc), false, "")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sc
}

const runYAML = `name: run-test
seed: 5
warmup_ms: 10
duration_ms: 60
step_ms: 10
fleet:
  - group: web
    count: 2
    system: HardHarvest-Block
    workload: BFS
workload:
  - at_ms: 20
    kind: intensity
    intensity: 1.6
events:
  - at_ms: 30
    kind: resilience
    on: true
  - at_ms: 30
    kind: faults
    plan: {"events": [{"at_ms": 5, "kind": "core_offline", "core": 2, "duration_ms": 6}]}
assertions:
  - metric: completions
    min: 1
  - metric: invariant_violations
    max: 0
  - metric: flow_balance
  - metric: littles_law
`

// TestRunDeterministicByteIdentical is the scenario-format cornerstone:
// same scenario + same seed must produce byte-identical summaries, with
// every assertion and both implicit oracle checks passing.
func TestRunDeterministicByteIdentical(t *testing.T) {
	a, err := quick(t, runYAML).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := quick(t, runYAML).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("summaries diverged:\n--- first ---\n%s--- second ---\n%s", a.Summary, b.Summary)
	}
	if !a.OK() || a.Failed != 0 {
		t.Fatalf("run failed (%d):\n%s", a.Failed, a.Summary)
	}
	if len(a.Asserts) != 4 {
		t.Fatalf("want 4 assertion results, got %d", len(a.Asserts))
	}
	for _, want := range []string{
		"== hhsim scenario summary ==",
		"scenario=run-test seed=5 servers=2",
		"fleet: web=2x HardHarvest-Block/BFS",
		"server 0 [web]",
		"server 1 [web]",
		"oracle: flow-balance+littles-law PASS on 2/2 servers",
		"PASS completions >= 1",
		"PASS flow_balance holds [all]",
		"result: PASS (4 assertions, 4 oracle checks, 0 failed)",
	} {
		if !strings.Contains(a.Summary, want) {
			t.Errorf("summary missing %q:\n%s", want, a.Summary)
		}
	}
	// The injected fault and intensity bump must actually have applied.
	if !strings.Contains(a.Summary, "faults=") {
		t.Errorf("summary has no fault counters:\n%s", a.Summary)
	}

	// A different seed must change results (the format is not ignoring it).
	c, err := quick(t, strings.Replace(runYAML, "seed: 5", "seed: 6", 1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Summary == a.Summary {
		t.Fatal("different seeds produced identical summaries")
	}
}

// TestRunShardsByteIdentical is the sharding cornerstone: the worker count
// is an execution detail, so the same scenario must render byte-identical
// summaries at -shards 1, 2, and 8 (and at the GOMAXPROCS default Run uses).
func TestRunShardsByteIdentical(t *testing.T) {
	want, err := quick(t, runYAML).RunShards(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8, 0} {
		got, err := quick(t, runYAML).RunShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary != want.Summary {
			t.Fatalf("summary diverged between shards=1 and shards=%d:\n--- shards=1 ---\n%s--- shards=%d ---\n%s",
				shards, want.Summary, shards, got.Summary)
		}
	}
}

const routedYAML = `name: routed-test
seed: 9
warmup_ms: 10
duration_ms: 60
step_ms: 10
routing:
  policy: least_outstanding
  probe_interval_ms: 5
fleet:
  - group: web
    count: 3
    system: HardHarvest-Block
    workload: BFS
workload:
  - at_ms: 20
    kind: intensity
    intensity: 1.4
events:
  - at_ms: 20
    kind: drain
    server: 2
    deadline_ms: 2
  - at_ms: 30
    kind: faults
    server: 0
    plan: {"events": [{"at_ms": 0, "kind": "crash", "duration_ms": 8}]}
assertions:
  - metric: drains
    min: 1
  - metric: lost
    max: 0
  - metric: fleet_completions
    min: 100
  - metric: fleet_conservation
  - metric: flow_balance
  - metric: littles_law
`

// TestRoutedRunDeterministic is the routed cornerstone: a scenario behind
// the fleet front door — with a drain, a crash, and an intensity shift all
// active — must render byte-identical summaries across repeats and at any
// worker count, and pass its assertions plus the mandatory fleet
// conservation oracle.
func TestRoutedRunDeterministic(t *testing.T) {
	want, err := quick(t, routedYAML).RunShards(1)
	if err != nil {
		t.Fatal(err)
	}
	if !want.OK() {
		t.Fatalf("routed run failed (%d):\n%s", want.Failed, want.Summary)
	}
	if want.Fleet == nil {
		t.Fatal("routed run reported no fleet result")
	}
	for _, wantStr := range []string{
		"routing: policy=least_outstanding",
		"router: generated=",
		"drains=1",
		"fleet latency: p50=",
		"backend server0[web]",
		"fleet conservation PASS",
		"PASS fleet_conservation holds [all]",
	} {
		if !strings.Contains(want.Summary, wantStr) {
			t.Errorf("summary missing %q:\n%s", wantStr, want.Summary)
		}
	}
	for _, shards := range []int{1, 2, 8, 0} {
		got, err := quick(t, routedYAML).RunShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary != want.Summary {
			t.Fatalf("routed summary diverged at shards=%d:\n--- shards=1 ---\n%s--- shards=%d ---\n%s",
				shards, want.Summary, shards, got.Summary)
		}
	}
}

// TestRoutedPerturbFleet: the PerturbFleet knob corrupts the router ledger
// and the mandatory conservation oracle must catch it — proof the check has
// teeth at the scenario level.
func TestRoutedPerturbFleet(t *testing.T) {
	sc := quick(t, routedYAML)
	sc.PerturbFleet = true
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("perturbed fleet ledger passed:\n%s", rep.Summary)
	}
	if !strings.Contains(rep.Summary, "fleet_conservation FAIL") {
		t.Fatalf("failure does not name fleet_conservation:\n%s", rep.Summary)
	}
}

// TestAssertionFailureFailsRun: a violated bound must flip the verdict and
// name the offending server and value.
func TestAssertionFailureFailsRun(t *testing.T) {
	doc := strings.Replace(runYAML, "metric: completions\n    min: 1",
		"metric: completions\n    max: 0", 1)
	rep, err := quick(t, doc).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failed != 1 {
		t.Fatalf("violated assertion did not fail the run (%d):\n%s", rep.Failed, rep.Summary)
	}
	for _, want := range []string{"FAIL completions <= 0", "server ", "result: FAIL"} {
		if !strings.Contains(rep.Summary, want) {
			t.Errorf("summary missing %q:\n%s", want, rep.Summary)
		}
	}
}

// TestFlashCrowdCompilation checks the compiled action schedule: a flash
// crowd becomes a set at the start barrier (baseline x factor) and a
// baseline restore at the end barrier, on top of plain intensity steps.
func TestFlashCrowdCompilation(t *testing.T) {
	sc := quick(t, `name: fc
warmup_ms: 10
duration_ms: 100
step_ms: 10
fleet:
  - group: web
    count: 1
workload:
  - at_ms: 0
    kind: intensity
    intensity: 2
  - at_ms: 25
    kind: flash_crowd
    factor: 3
    duration_ms: 30
`)
	specs, _, err := sc.compile()
	if err != nil {
		t.Fatal(err)
	}
	acts := specs[0].actions
	if len(acts) != 3 {
		t.Fatalf("want 3 compiled actions, got %d: %+v", len(acts), acts)
	}
	ms := func(n int) sim.Time { return sim.Time(sim.Duration(n) * sim.Millisecond) }
	if acts[0].at != ms(0) || acts[0].x != 2 {
		t.Errorf("baseline step wrong: %+v", acts[0])
	}
	if acts[1].at != ms(30) || acts[1].x != 6 { // 25 quantizes up to 30; 2*3
		t.Errorf("flash start wrong: %+v", acts[1])
	}
	if acts[2].at != ms(60) || acts[2].x != 2 { // restore the baseline
		t.Errorf("flash end wrong: %+v", acts[2])
	}
}

// TestVMIntensityScenario: a vm_intensity profile switch compiles, applies,
// and shifts results relative to the same scenario without it.
func TestVMIntensityScenario(t *testing.T) {
	base := `name: vi
seed: 2
warmup_ms: 10
duration_ms: 50
step_ms: 10
fleet:
  - group: web
    count: 1
`
	with := base + `workload:
  - at_ms: 10
    kind: vm_intensity
    vm: 3
    intensity: 4
`
	a, err := quick(t, base).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := quick(t, with).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary == b.Summary {
		t.Fatal("vm_intensity action had no effect on the run")
	}
	if !b.OK() {
		t.Fatalf("vm_intensity run failed oracle checks:\n%s", b.Summary)
	}
}

// TestSetVMIntensityValidation covers the new live-surface mutator's error
// paths directly.
func TestSetVMIntensityValidation(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.WarmupDuration = sim.Millisecond
	cfg.MeasureDuration = 10 * sim.Millisecond
	work, err := batch.WorkloadByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	srv := cluster.NewServer(cfg, cluster.SystemOptions(cluster.HardHarvestBlock), work)
	srv.Start()
	defer func() {
		for !srv.StepTo(srv.Horizon()) {
		}
		srv.Finish()
	}()
	if err := srv.SetVMIntensity(0, 1.5); err != nil {
		t.Errorf("valid vm rejected: %v", err)
	}
	if err := srv.SetVMIntensity(cfg.PrimaryVMs, 1.5); err == nil {
		t.Error("out-of-range vm accepted")
	}
	if err := srv.SetVMIntensity(0, 0); err == nil {
		t.Error("zero intensity accepted")
	}
}

// TestHeterogeneousGenerations: a slower generation must complete fewer
// batch jobs than a faster one under the identical seed and workload.
func TestHeterogeneousGenerations(t *testing.T) {
	doc := `name: gens
seed: 4
warmup_ms: 10
duration_ms: 80
step_ms: 10
fleet:
  - group: old
    count: 1
    generation: gen1
  - group: new
    count: 1
    generation: gen3
`
	rep, err := quick(t, doc).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("generation run failed:\n%s", rep.Summary)
	}
	if !strings.Contains(rep.Summary, "exec_factor=1.15") ||
		!strings.Contains(rep.Summary, "exec_factor=0.88") {
		t.Fatalf("generation factors not reflected:\n%s", rep.Summary)
	}
}

// TestDrainDeadlineOverflowRejected: a drain deadline whose picosecond
// count does not fit the simulated clock (1e10 ms is 1e22 ps) used to wrap
// to a negative delay and panic the run in ScheduleCall. Validation now
// refuses it with a positioned error, while a deadline of 4e6 ms (over an
// hour) still fits and runs.
func TestDrainDeadlineOverflowRejected(t *testing.T) {
	doc := strings.Replace(routedYAML, "deadline_ms: 2", "deadline_ms: 1e10", 1)
	_, err := Parse([]byte(doc), false, "")
	if err == nil {
		t.Fatal("overflowing drain deadline accepted")
	}
	if want := "line 19: events[0].deadline_ms: 1e+10 ms does not fit the simulated clock"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	doc = strings.Replace(routedYAML, "deadline_ms: 2", "deadline_ms: 4e6", 1)
	if _, err := quick(t, doc).RunShards(1); err != nil {
		t.Fatal(err)
	}
}
