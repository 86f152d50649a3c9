package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hardharvest/internal/faults"
)

// graphCfg serves the built-in socialnet DAG: one server per tier group
// (frontend, logic, leaf) behind the graph dispatcher.
func graphCfg() RunConfig {
	cfg := quickCfg()
	cfg.Graph = "socialnet"
	cfg.Backends = 1
	return cfg
}

// TestGraphServeReplayDeterminism drives a live DAG run through every
// graph-applicable action kind — fleet intensity (root generators), a
// targeted fault, a fleet-wide harvest toggle — and requires the action
// log to replay byte-identically.
func TestGraphServeReplayDeterminism(t *testing.T) {
	cfg := graphCfg()
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
		Events: []faults.ScriptedEvent{{AtMS: 5, Kind: "core_offline", Core: 3, DurationMS: 8}},
	}})
	step() // -> 20ms
	mustEnqueue(t, r, Action{Kind: ActHarvestOnBlock, On: false})
	r.Resume()
	for tp := range ch {
		if tp.Done {
			break
		}
	}
	live, ok := r.Summary()
	if !ok {
		t.Fatal("graph run finished without a summary")
	}
	for _, frag := range []string{
		"== hhsim serve summary (graph) ==",
		"graph: socialnet tiers=4 servers=3",
		"dag: generated=",
		"  rpcs: dispatched=",
		"  e2e latency: p50=",
		"  tier frontend servers=1 vm=0",
		"  tier logic servers=1 vm=0",
		"  tier cache servers=1 vm=0",
		"  tier db servers=1 vm=1",
		"fleet counters: arrivals=",
		"PASS graph_conservation",
	} {
		if !strings.Contains(live, frag) {
			t.Fatalf("graph summary missing %q:\n%s", frag, live)
		}
	}

	replayed, err := Replay(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("graph replay failed: %v\nlog:\n%s", err, log.String())
	}
	if replayed != live {
		t.Fatalf("graph replay diverged from live run:\n--- live ---\n%s--- replay ---\n%s", live, replayed)
	}

	// The actions must have moved the DAG fleet: a zero-action graph run
	// ends elsewhere.
	plain, err := ReplayActions(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain == live {
		t.Fatal("graph action run is identical to the zero-action run: actions were lost")
	}
	if !strings.Contains(plain, "== hhsim serve summary (graph) ==") {
		t.Fatalf("zero-action replay lost graph mode:\n%s", plain)
	}
}

// TestGraphServeStepInvariance: the serve barrier cadence must not leak
// into DAG results any more than it does for a single server.
func TestGraphServeStepInvariance(t *testing.T) {
	a := graphCfg()
	b := graphCfg()
	b.StepMS = 3
	sa, err := ReplayActions(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ReplayActions(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	trim := func(s string) string { return s[strings.Index(s, "\ngraph:"):] }
	if trim(sa) != trim(sb) {
		t.Fatalf("step size changed DAG results:\n--- 10ms ---\n%s--- 3ms ---\n%s", sa, sb)
	}
}

// TestGraphConfigValidation covers the constructor's graph-mode checks and
// the apply-time action rules specific to the DAG fleet.
func TestGraphConfigValidation(t *testing.T) {
	bad := graphCfg()
	bad.Routed = true
	bad.Policy = "round_robin"
	if _, err := NewRunner(bad, nil, 0); err == nil {
		t.Fatal("routed+graph run accepted (the two front doors are exclusive)")
	}
	bad = graphCfg()
	bad.Graph = "hotelres"
	if _, err := NewRunner(bad, nil, 0); err == nil || !strings.Contains(err.Error(), "socialnet") {
		t.Fatalf("unknown graph accepted or error unhelpful: %v", err)
	}
	bad = graphCfg()
	bad.Backends = 0
	if _, err := NewRunner(bad, nil, 0); err == nil {
		t.Fatal("graph run with 0 backends per group accepted")
	}

	r, err := NewRunner(graphCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.applyAction(Action{Kind: ActDrain, Server: 1, DeadlineMS: 2}, 0); err == nil {
		t.Fatal("graph run accepted a drain (a router concept)")
	}
	if err := r.applyAction(Action{Kind: ActFaults, Server: 9, Plan: &faults.Plan{}}, 0); err == nil {
		t.Fatal("graph run accepted an out-of-range server target")
	}
}

// TestHTTPGraphSurfaces: graph runs expose the DAG snapshot on /api/state
// and the hhsim_graph_* families on /metrics, and graphless runs keep both
// surfaces free of graph artifacts.
func TestHTTPGraphSurfaces(t *testing.T) {
	r, err := NewRunner(graphCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Subscribe(4096)
	defer cancel()
	r.Pause()
	go r.Loop()
	ts := httptest.NewServer(NewHTTP(r))
	defer ts.Close()

	// Advance past warmup so the dispatcher has admitted real requests.
	for i := 0; i < 3; i++ {
		if code, body := post(t, ts.URL+"/api/step", ""); code != http.StatusOK {
			t.Fatalf("step POST: %d: %s", code, body)
		}
		<-ch
	}

	var st struct {
		Graph *GraphPoint `json:"graph"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/api/state")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Graph == nil {
		t.Fatal("graph /api/state has no graph block")
	}
	if st.Graph.Graph != "socialnet" || st.Graph.Root != "frontend" || len(st.Graph.Tiers) != 4 {
		t.Fatalf("graph block mismatch: %+v", st.Graph)
	}
	if st.Graph.Generated == 0 || st.Graph.Dispatches == 0 {
		t.Fatalf("dispatcher idle after 30ms: %+v", st.Graph)
	}
	// Ledger sanity straight off the wire: answered RPCs never exceed
	// dispatched, completions never exceed admissions.
	if st.Graph.DoneRecv+st.Graph.ShedRecv > st.Graph.Dispatches {
		t.Fatalf("more RPC answers than dispatches: %+v", st.Graph)
	}
	if st.Graph.Completed+st.Graph.Failed > st.Graph.Generated {
		t.Fatalf("more settled requests than generated: %+v", st.Graph)
	}

	fams := parseExposition(t, getBody(t, ts.URL+"/metrics"))
	gen := sampleValue(t, fams, "hhsim_graph_requests_total", map[string]string{"kind": "generated"})
	if uint64(gen) != st.Graph.Generated {
		t.Fatalf("hhsim_graph_requests_total{kind=generated} = %g, state says %d", gen, st.Graph.Generated)
	}
	disp := sampleValue(t, fams, "hhsim_graph_rpcs_total", map[string]string{"kind": "dispatched"})
	var tierDisp float64
	for _, tier := range []string{"frontend", "logic", "cache", "db"} {
		tierDisp += sampleValue(t, fams, "hhsim_graph_tier_rpcs_total",
			map[string]string{"tier": tier, "kind": "dispatched"})
	}
	if disp != tierDisp {
		t.Fatalf("tier dispatch ledger (%g) does not sum to the fleet ledger (%g)", tierDisp, disp)
	}
	if v := sampleValue(t, fams, "hhsim_graph_e2e_latency_ms", map[string]string{"quantile": "0.99"}); v < 0 {
		t.Fatalf("negative e2e p99: %g", v)
	}
	for _, name := range []string{"hhsim_graph_inflight", "hhsim_graph_outstanding",
		"hhsim_graph_tier_hop_ms"} {
		if familyOf(fams, name) == nil {
			t.Fatalf("metric %s not exposed", name)
		}
	}
	r.Shutdown()

	// Graphless surfaces stay clean: no graph JSON key, no graph families.
	plain, err := NewRunner(quickCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain.Pause()
	go plain.Loop()
	ts2 := httptest.NewServer(NewHTTP(plain))
	defer ts2.Close()
	if body := getBody(t, ts2.URL+"/api/state"); strings.Contains(body, `"graph"`) {
		t.Fatalf("graphless state leaked a graph block:\n%s", body)
	}
	if body := getBody(t, ts2.URL+"/metrics"); strings.Contains(body, "hhsim_graph_") {
		t.Fatalf("graphless scrape leaked graph families:\n%s", body)
	}
	plain.Shutdown()
}
