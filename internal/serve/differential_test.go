package serve

import (
	"fmt"
	"testing"

	"hardharvest/internal/graph"
	"hardharvest/internal/route"
	"hardharvest/internal/scenario"
)

// runServed drives a served run to its horizon with no actions.
func runServed(t *testing.T, cfg RunConfig) *Runner {
	t.Helper()
	r, err := NewRunner(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Loop()
	if !r.Done() {
		t.Fatal("served run did not reach its horizon")
	}
	return r
}

// runScenario runs a scenario document on one worker.
func runScenario(t *testing.T, doc string) *scenario.Report {
	t.Helper()
	sc, err := scenario.Parse([]byte(doc), false, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.RunShards(1)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDifferentialRoutedFleet: a routed serve config and the one-group
// scenario that describes the same fleet (same seed, size, system,
// workload, policy and run window) are two front ends over one simulation,
// so their router ledgers and per-backend counts must agree exactly.
func TestDifferentialRoutedFleet(t *testing.T) {
	cfg := RunConfig{System: "HardHarvest-Block", Workload: "BFS", Seed: 5,
		WarmupMS: 20, SimMS: 100, StepMS: 10,
		Routed: true, Backends: 3, Policy: "least_outstanding"}
	served := runServed(t, cfg).rt.Finish()
	rep := runScenario(t, `name: routed-differential
seed: 5
warmup_ms: 20
duration_ms: 100
step_ms: 10
routing:
  policy: least_outstanding
fleet:
  - group: web
    count: 3
    system: HardHarvest-Block
    workload: BFS
`)
	if rep.Fleet == nil {
		t.Fatal("scenario ran without a router")
	}
	if served.Generated == 0 || served.Completions == 0 {
		t.Fatalf("served fleet carried no traffic: %+v", served.Totals())
	}
	t.Logf("serve ledger: %+v probes=%d", served.Totals(), served.Probes)
	if got, want := rep.Fleet.Totals(), served.Totals(); got != want {
		t.Fatalf("router ledgers disagree:\n  serve:    %+v\n  scenario: %+v", want, got)
	}
	if served.Probes != rep.Fleet.Probes || served.ProbeFails != rep.Fleet.ProbeFails {
		t.Fatalf("probe counts disagree: serve %d/%d, scenario %d/%d",
			served.Probes, served.ProbeFails, rep.Fleet.Probes, rep.Fleet.ProbeFails)
	}
	if len(served.Backends) != len(rep.Fleet.Backends) {
		t.Fatalf("backend counts disagree: %d vs %d", len(served.Backends), len(rep.Fleet.Backends))
	}
	for i, s := range served.Backends {
		c := rep.Fleet.Backends[i]
		if s.Dispatches != c.Dispatches || s.Dones != c.Dones || s.Sheds != c.Sheds ||
			s.Probes != c.Probes || s.State != c.State || s.EdgeLatency.P99() != c.EdgeLatency.P99() {
			t.Fatalf("backend %d disagrees:\n  serve:    %s\n  scenario: %s", i, backendLine(s), backendLine(c))
		}
	}
}

func backendLine(b route.BackendResult) string {
	return fmt.Sprintf("%s state=%s dispatched=%d done=%d shed=%d probes=%d edge_p99=%v",
		b.Name, b.State, b.Dispatches, b.Dones, b.Sheds, b.Probes, b.EdgeLatency.P99())
}

// TestDifferentialGraphFleet: a served socialnet DAG with two servers per
// tier group and the scenario that declares the same DAG over the same
// groups must produce the same DAG ledger, per-tier counts, and hop and
// end-to-end tails.
func TestDifferentialGraphFleet(t *testing.T) {
	cfg := RunConfig{System: "HardHarvest-Block", Workload: "BFS", Seed: 5,
		WarmupMS: 20, SimMS: 100, StepMS: 10, Graph: "socialnet", Backends: 2}
	served := runServed(t, cfg).gd.Finish()
	rep := runScenario(t, `name: graph-differential
seed: 5
warmup_ms: 20
duration_ms: 100
step_ms: 10
graph:
  rpc_delay_us: 20
  root: frontend
  tiers:
    - tier: frontend
      group: frontend
      calls:
        - tier: logic
          mode: parallel
          fanout: 2
    - tier: logic
      group: logic
      calls:
        - tier: cache
        - tier: db
    - tier: cache
      group: leaf
    - tier: db
      group: leaf
      vm: 1
fleet:
  - group: frontend
    count: 2
    system: HardHarvest-Block
    workload: BFS
  - group: logic
    count: 2
    system: HardHarvest-Block
    workload: BFS
  - group: leaf
    count: 2
    system: HardHarvest-Block
    workload: BFS
`)
	got := rep.Graph
	if got == nil {
		t.Fatal("scenario ran without a dispatcher")
	}
	if served.Generated == 0 || served.Completed == 0 {
		t.Fatalf("served DAG carried no traffic: %+v", served)
	}
	t.Logf("serve DAG ledger: %+v", dagLedger(served))
	if dagLedger(served) != dagLedger(got) {
		t.Fatalf("DAG ledgers disagree:\n  serve:    %+v\n  scenario: %+v", dagLedger(served), dagLedger(got))
	}
	if served.E2E.Count() != got.E2E.Count() || served.E2E.P99() != got.E2E.P99() {
		t.Fatalf("e2e tails disagree: serve n=%d p99=%v, scenario n=%d p99=%v",
			served.E2E.Count(), served.E2E.P99(), got.E2E.Count(), got.E2E.P99())
	}
	for i, s := range served.Tiers {
		c := got.Tiers[i]
		if s.Name != c.Name || s.Servers != c.Servers || s.Dispatches != c.Dispatches ||
			s.Dones != c.Dones || s.Sheds != c.Sheds || s.Hop.P99() != c.Hop.P99() {
			t.Fatalf("tier %d disagrees:\n  serve:    %+v\n  scenario: %+v", i, s, c)
		}
	}
}

// dagCounts is the comparable counter part of a DAG result.
type dagCounts struct {
	generated, completed, failed, inflight, dispatches, done, shed, outstanding uint64
}

func dagLedger(r *graph.Result) dagCounts {
	return dagCounts{r.Generated, r.Completed, r.Failed, r.InflightEnd,
		r.Dispatches, r.DoneRecv, r.ShedRecv, r.OutstandingEnd}
}
