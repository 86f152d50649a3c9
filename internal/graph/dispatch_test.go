package graph_test

import (
	"fmt"
	"testing"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/front"
	"hardharvest/internal/graph"
	"hardharvest/internal/sim"
	"hardharvest/internal/validate"
)

// reqObs is one observed request from the OnComplete hook.
type reqObs struct {
	e2e    sim.Duration
	failed bool
	hops   []graph.Hop
}

// runSpec executes spec over a fleet with one server per tier group (plus
// extras for groups named in wide) at the given worker count, collecting
// every drained request unless observe is false (then no OnComplete hook is
// installed). roots, when non-zero, schedules that many explicit root
// admissions at 1ms spacing from measureStart (the ScheduleRoot hook).
// maxQueue, when set, gives the servers of the named groups that
// queue-depth admission limit, so they shed.
func runSpec(t testing.TB, spec *graph.Spec, seed uint64, workers, roots int, wide, maxQueue map[string]int, observe bool) (*graph.Result, []reqObs) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("fixture spec invalid: %v", err)
	}
	work, err := batch.WorkloadByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	var fleet []*cluster.Server
	var backends []graph.Backend
	groupServers := map[string][]int{}
	for _, gname := range spec.Groups() {
		n := 1 + wide[gname]
		for k := 0; k < n; k++ {
			cfg := cluster.DefaultConfig()
			cfg.WarmupDuration = 10 * sim.Millisecond
			cfg.MeasureDuration = 100 * sim.Millisecond
			cfg.Seed = seed + uint64(len(fleet))*7919
			opts := cluster.SystemOptions(cluster.HardHarvestBlock)
			opts.RemoteAdmission = true
			opts.Resilience.MaxQueueDepth = maxQueue[gname]
			srv := cluster.NewServer(cfg, opts, work)
			groupServers[gname] = append(groupServers[gname], len(fleet))
			fleet = append(fleet, srv)
			backends = append(backends, graph.Backend{Server: srv, Cfg: cfg,
				Name: fmt.Sprintf("server%d[%s]", len(backends), gname)})
		}
	}
	tiers := make([][]int, len(spec.Tiers))
	for ti := range spec.Tiers {
		tiers[ti] = groupServers[spec.Tiers[ti].Group]
	}
	gd := graph.New(spec, backends, tiers)
	var obs []reqObs
	if observe {
		gd.OnComplete(func(e2e sim.Duration, failed bool, hops []graph.Hop) {
			obs = append(obs, reqObs{e2e: e2e, failed: failed, hops: append([]graph.Hop(nil), hops...)})
		})
	}
	group := sim.NewShardGroup(workers)
	horizon := front.Wire(group, gd, fleet)
	for i := 0; i < roots; i++ {
		gd.ScheduleRoot(sim.Time(10*sim.Millisecond + sim.Duration(i)*sim.Millisecond))
	}
	group.Run(horizon)
	for _, srv := range fleet {
		srv.Finish()
	}
	return gd.Finish(), obs
}

// TestE2EDominatesEveryHop is the critical-path property: a request's
// end-to-end latency covers every hop interval on its invocation tree, so
// e2e >= each hop, and — since children only dispatch after the root tier's
// reply — e2e >= root hop + the slowest descendant hop. Every non-failed
// request must record exactly Nodes() hops, each paying at least the two
// NetDelay crossings.
func TestE2EDominatesEveryHop(t *testing.T) {
	spec := graph.SocialNet(20 * sim.Microsecond)
	res, obs := runSpec(t, spec, 11, 1, 0, nil, nil, true)
	if res.Completed < 50 {
		t.Fatalf("only %d completions; fixture too quiet for a property test", res.Completed)
	}
	if len(obs) == 0 {
		t.Fatal("OnComplete observed nothing")
	}
	rootName := spec.Tiers[spec.Root].Name
	for _, r := range obs {
		if !r.failed && len(r.hops) != spec.Nodes() {
			t.Fatalf("request drained with %d hops, want %d (one per invocation): %+v",
				len(r.hops), spec.Nodes(), r.hops)
		}
		var rootHop, maxChild sim.Duration
		for _, h := range r.hops {
			if !h.Shed && h.Latency <= 2*spec.NetDelay {
				t.Fatalf("hop %s latency %v does not exceed the two NetDelay crossings (%v)",
					h.Tier, h.Latency, 2*spec.NetDelay)
			}
			if r.e2e < h.Latency {
				t.Fatalf("e2e %v < hop %s %v: hop interval escapes the request window",
					r.e2e, h.Tier, h.Latency)
			}
			if h.Tier == rootName {
				rootHop = h.Latency
			} else if h.Latency > maxChild {
				maxChild = h.Latency
			}
		}
		if !r.failed && r.e2e < rootHop+maxChild {
			t.Fatalf("e2e %v < root hop %v + slowest child hop %v", r.e2e, rootHop, maxChild)
		}
	}
	if c := validate.GraphResultConservation("graph", res); !c.OK {
		t.Fatalf("conservation: %s", c.Detail)
	}
}

// chainSpec is a strictly sequential DAG: a -> b x2 (sequential) -> c, so a
// request is one chain of invocations with no overlap anywhere.
func chainSpec() *graph.Spec {
	return &graph.Spec{
		NetDelay: 20 * sim.Microsecond,
		Tiers: []graph.Tier{
			{Name: "a", Group: "front", Calls: []graph.Call{{Tier: 1, Mode: graph.Sequential, Fanout: 2}}},
			{Name: "b", Group: "mid", Calls: []graph.Call{{Tier: 2, Mode: graph.Sequential, Fanout: 1}}},
			{Name: "c", Group: "back"},
		},
	}
}

// TestSerialChainExactSum is the picosecond-exact composition property: in
// a strictly sequential chain the dispatcher issues each invocation in the
// same event as the previous reply, so a request's end-to-end latency is
// EXACTLY the sum of its hop latencies — each hop being the tier's service
// time (with queueing) plus the two NetDelay crossings. Any drift here
// would mean the dispatcher inserts or loses time between joins.
func TestSerialChainExactSum(t *testing.T) {
	spec := chainSpec()
	if n := spec.Nodes(); n != 5 {
		t.Fatalf("chain Nodes() = %d, want 5 (a + 2x(b + c))", n)
	}
	res, obs := runSpec(t, spec, 17, 1, 3, nil, nil, true)
	if res.Generated < 3 {
		t.Fatalf("generated %d < the 3 explicitly scheduled roots", res.Generated)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	for _, r := range obs {
		var sum sim.Duration
		for _, h := range r.hops {
			sum += h.Latency
		}
		if r.e2e != sum {
			t.Fatalf("serial chain e2e %v != sum of hops %v (diff %v, hops %+v)",
				r.e2e, sum, r.e2e-sum, r.hops)
		}
		if !r.failed {
			if len(r.hops) != 5 {
				t.Fatalf("chain request drained %d hops, want 5", len(r.hops))
			}
			// Subtracting the RPC crossings leaves pure server time.
			if service := r.e2e - sim.Duration(len(r.hops))*2*spec.NetDelay; service <= 0 {
				t.Fatalf("e2e %v leaves no service time after %d RPC crossings", r.e2e, 2*len(r.hops))
			}
		}
	}
	if c := validate.GraphResultConservation("graph", res); !c.OK {
		t.Fatalf("conservation: %s", c.Detail)
	}
}

// TestDispatcherWorkerInvariance pins the conservative-synchronization
// guarantee at the dispatcher level: the ShardGroup worker count is an
// execution detail, so the full result — counters, per-tier ledgers, the
// e2e distribution, and the per-request observation stream — must be
// identical at 1, 2, and 8 workers. A two-server frontend group keeps the
// round-robin path under test.
func TestDispatcherWorkerInvariance(t *testing.T) {
	wide := map[string]int{"frontend": 1}
	// The shedding variant caps the leaf tier's queues, so done and shed
	// replies both cross members and failed requests drain their joins.
	for _, maxQueue := range []map[string]int{nil, {"leaf": 1}} {
		base, baseObs := runSpec(t, graph.SocialNet(20*sim.Microsecond), 23, 1, 0, wide, maxQueue, true)
		if base.Completed == 0 {
			t.Fatal("no completions")
		}
		if maxQueue != nil && (base.ShedRecv == 0 || base.Failed == 0) {
			t.Fatalf("shedding variant shed %d invocations, failed %d requests", base.ShedRecv, base.Failed)
		}
		for _, workers := range []int{2, 8} {
			got, gotObs := runSpec(t, graph.SocialNet(20*sim.Microsecond), 23, workers, 0, wide, maxQueue, true)
			if got.Generated != base.Generated || got.Completed != base.Completed ||
				got.Failed != base.Failed || got.Dispatches != base.Dispatches ||
				got.ShedRecv != base.ShedRecv || got.E2E.Count() != base.E2E.Count() ||
				got.E2E.P99() != base.E2E.P99() {
				t.Fatalf("ledger diverged at workers=%d maxQueue=%v:\n1: %+v\n%d: %+v",
					workers, maxQueue, base, workers, got)
			}
			for i := range base.Tiers {
				b, g := base.Tiers[i], got.Tiers[i]
				if b.Dispatches != g.Dispatches || b.Dones != g.Dones || b.Sheds != g.Sheds ||
					b.Hop.Count() != g.Hop.Count() || b.Hop.P99() != g.Hop.P99() {
					t.Fatalf("tier %s diverged at workers=%d maxQueue=%v: %+v vs %+v",
						b.Name, workers, maxQueue, b, g)
				}
			}
			if len(gotObs) != len(baseObs) {
				t.Fatalf("observation stream length diverged at workers=%d maxQueue=%v: %d vs %d",
					workers, maxQueue, len(gotObs), len(baseObs))
			}
			for i := range baseObs {
				if gotObs[i].e2e != baseObs[i].e2e || gotObs[i].failed != baseObs[i].failed ||
					len(gotObs[i].hops) != len(baseObs[i].hops) {
					t.Fatalf("request %d diverged at workers=%d maxQueue=%v: %+v vs %+v",
						i, workers, maxQueue, baseObs[i], gotObs[i])
				}
			}
		}
	}
}

// TestHopSketchesAndTierByName covers the result accessors feeding the
// Monte-Carlo cross-check.
func TestHopSketchesAndTierByName(t *testing.T) {
	res, _ := runSpec(t, graph.SocialNet(20*sim.Microsecond), 31, 0, 0, nil, nil, true)
	hops := res.HopSketches()
	if len(hops) != 4 {
		t.Fatalf("HopSketches has %d tiers, want 4", len(hops))
	}
	for _, name := range []string{"frontend", "logic", "cache", "db"} {
		tr := res.TierByName(name)
		if tr == nil {
			t.Fatalf("TierByName(%s) = nil", name)
		}
		if hops[name] != tr.Hop {
			t.Errorf("HopSketches[%s] is not the tier's own sketch", name)
		}
		if tr.Hop.Count() == 0 {
			t.Errorf("tier %s recorded no hops", name)
		}
	}
	if res.TierByName("nope") != nil {
		t.Error("TierByName(nope) != nil")
	}
}
