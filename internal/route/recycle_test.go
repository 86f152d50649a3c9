package route

import (
	"runtime"
	"testing"

	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/front"
	"hardharvest/internal/sim"
)

// checkStranded checks the attempt ledger the conservation oracle cannot
// see: every zombie reply answers a stranded attempt (one failed over or
// lost from a crashed, ejected or drained backend), and a stranded attempt
// with no reply yet is outstanding without being active anywhere. A
// pendingReq shared by two live requests breaks it: the older request's
// own reply then reads as a zombie.
func checkStranded(t *testing.T, r *Result) {
	t.Helper()
	var stranded, active uint64
	for _, b := range r.Backends {
		stranded += b.FailoversOut + b.Lost
		active += uint64(b.ActiveEnd)
	}
	if active != r.InflightEnd {
		t.Fatalf("%d attempts active at the end, %d requests in flight", active, r.InflightEnd)
	}
	if zombies := r.ZombieDones + r.ZombieSheds; zombies+r.OutstandingEnd-active != stranded {
		t.Fatalf("zombies %d + unanswered stranded %d != stranded attempts %d",
			zombies, r.OutstandingEnd-active, stranded)
	}
}

// checkFreeList checks the recycled requests: each is resolved with
// nothing outstanding, and none is on the list twice; and every backend's
// own free lists, of request objects and phase buffers, are sound.
func checkFreeList(t *testing.T, rt *Router) {
	t.Helper()
	free := rt.reqs.Free()
	seen := make(map[*pendingReq]bool, len(free))
	for _, req := range free {
		if seen[req] {
			t.Fatal("a request is on the free list twice")
		}
		seen[req] = true
		if !req.resolved || req.outstanding != 0 {
			t.Fatalf("free request resolved=%v outstanding=%d", req.resolved, req.outstanding)
		}
	}
	for _, b := range rt.backends {
		for _, id := range b.active {
			if seen[rt.Attempt(id).req] {
				t.Fatalf("active attempt %d on %s points at a free request", id, b.Name)
			}
		}
		if err := b.Server.CheckPools(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

// TestRecycledRequestsKeepTheLedger: with requests recycled through the
// free list, a crash that strands attempts (failed over, or lost with no
// budget) and the zombie replies that follow keep the fleet ledger exact,
// with and without a shedding backend. A request resolved while one of its
// attempts is still out must stay off the free list until that attempt's
// zombie reply.
func TestRecycledRequestsKeepTheLedger(t *testing.T) {
	for _, maxFailovers := range []int{0, 2} {
		for _, shedding := range []bool{false, true} {
			rc := DefaultConfig()
			rc.Policy = LeastOutstanding
			rc.MaxFailovers = maxFailovers
			var rt *Router
			res, _ := runFleet(t, fleetSpec{n: 3, workers: 1, rc: rc,
				edit: func(i int, cfg *cluster.Config, opts *cluster.Options) {
					if i == 0 {
						cfg.FaultPlan = &faults.Plan{Events: []faults.ScriptedEvent{
							{AtMS: 8, Kind: "crash", DurationMS: 6},
							{AtMS: 20, Kind: "crash", DurationMS: 4},
						}}
					}
					if i == 1 && shedding {
						opts.Resilience.MaxQueueDepth = 1
					}
				},
				inspect: func(r *Router) { rt = r }})
			mustConserve(t, res)
			checkStranded(t, res)
			checkFreeList(t, rt)
			if res.ZombieDones+res.ZombieSheds == 0 {
				t.Fatalf("failovers=%d shedding=%v: no zombie replies", maxFailovers, shedding)
			}
			if maxFailovers == 0 && res.Lost == res.LostAtAdmit {
				t.Fatal("no request was lost with an attempt stranded")
			}
			if maxFailovers > 0 && res.Failovers == 0 {
				t.Fatal("no request failed over")
			}
			if shedding && res.ShedRecv == 0 {
				t.Fatal("shedding variant shed nothing")
			}
			if len(rt.reqs.Free()) == 0 {
				t.Fatal("no request was recycled")
			}
		}
	}
}

// kick admits one request for VM op from inside a router event, where the
// router's clock is current (sim.Callback, router engine).
type kick struct{ rt *Router }

func (k kick) OnEvent(op int32, _, _ any) { k.rt.admit(&front.Gen{VM: int(op)}) }

// TestRoutedRoundTripAllocFree: once warm, a routed request's admit →
// dispatch → server → reply → resolution cycle allocates nothing: the
// pendingReq comes from the router's free list. The generators are muted
// and health probes pushed past the run so that each measured step carries
// exactly one request.
func TestRoutedRoundTripAllocFree(t *testing.T) {
	var servers []*cluster.Server
	var specs []Backend
	cfg := cluster.DefaultConfig()
	cfg.Seed = 17
	cfg.WarmupDuration = 2 * sim.Millisecond
	cfg.MeasureDuration = sim.Second
	opts := cluster.SystemOptions(cluster.HardHarvestBlock)
	opts.RemoteAdmission = true
	srv := cluster.NewServer(cfg, opts, testBatch(t))
	servers = append(servers, srv)
	specs = append(specs, Backend{Server: srv, Cfg: cfg, Name: "srv"})
	rc := DefaultConfig()
	rc.ProbeInterval = 10 * sim.Second
	rt := New(rc, specs)
	rt.SetIntensityAll(1e-9)
	g := sim.NewShardGroup(1)
	front.Wire(g, rt, servers)
	now, vm := sim.Time(0), int32(0)
	step := func() {
		rt.Engine().CallAt(now, kick{rt}, vm, nil, nil)
		vm ^= 1
		now = now.Add(sim.Millisecond)
		g.Run(now)
	}
	for i := 0; i < 200; i++ {
		step() // warm: the free list, the ledger, the inboxes, the server pools
	}
	const runs = 100
	before := rt.completions
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("warm routed round trip allocates %.0f per request, want 0", avg)
	}
	if got := rt.completions - before; got < runs {
		t.Fatalf("only %d requests completed in %d steps", got, runs+1)
	}
}

// probeKick runs one health-probe round from inside a router event
// (sim.Callback, router engine).
type probeKick struct{ rt *Router }

func (k probeKick) OnEvent(int32, any, any) { k.rt.probeTick() }

// TestProbeRoundAllocFree: a health-probe round — one probe to every
// backend and every answer, passed and failed — carries no payload and
// allocates nothing once the inboxes are warm. One of the two backends
// sits inside a crash window, so its probes fail. The regular probe
// schedule is pushed past the horizon, so each measured step carries
// exactly one round.
func TestProbeRoundAllocFree(t *testing.T) {
	var servers []*cluster.Server
	var specs []Backend
	for i := 0; i < 2; i++ {
		cfg := cluster.DefaultConfig()
		cfg.Seed = uint64(20 + i)
		cfg.WarmupDuration = 2 * sim.Millisecond
		cfg.MeasureDuration = sim.Second
		if i == 1 {
			cfg.FaultPlan = &faults.Plan{Events: []faults.ScriptedEvent{{Kind: "crash", DurationMS: 2000}}}
		}
		opts := cluster.SystemOptions(cluster.HardHarvestBlock)
		opts.RemoteAdmission = true
		srv := cluster.NewServer(cfg, opts, testBatch(t))
		servers = append(servers, srv)
		specs = append(specs, Backend{Server: srv, Cfg: cfg, Name: "srv"})
	}
	rc := DefaultConfig()
	rc.ProbeInterval = 10 * sim.Second
	rt := New(rc, specs)
	rt.SetIntensityAll(1e-9)
	g := sim.NewShardGroup(1)
	front.Wire(g, rt, servers)
	now := sim.Time(0)
	step := func() {
		rt.Engine().CallAt(now, probeKick{rt}, 0, nil, nil)
		now = now.Add(sim.Millisecond)
		g.Run(now)
	}
	for i := 0; i < 50; i++ {
		step() // warm: the inboxes and the engines' slabs
	}
	const runs = 100
	probes, fails := rt.probes, rt.probeFails
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("probe round allocates %.0f, want 0", avg)
	}
	if got := rt.probes - probes; got != 2*(runs+1) {
		t.Fatalf("%d probes sent in %d rounds, want %d", got, runs+1, 2*(runs+1))
	}
	if got := rt.probeFails - fails; got != runs+1 {
		t.Fatalf("%d probes failed in %d rounds, want %d (the crashed backend's)", got, runs+1, runs+1)
	}
}

// TestRequestPoolGrowsPerChunk: a burst of k simultaneous requests grows
// the router's request pool by k objects at one allocation per 16, not one
// per request. Each burst first takes every waiting request out of the
// pool, so its admissions must carve k fresh ones; the ledger, the
// inboxes and the pool's own free list are warm from identical earlier
// bursts. The measured window is the instant the router admits and
// dispatches the burst, so the pool's growth is all it pays for: at most
// k/16+1 allocations. Every request completes and returns to the pool
// before the next burst.
func TestRequestPoolGrowsPerChunk(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = 23
	cfg.WarmupDuration = 2 * sim.Millisecond
	cfg.MeasureDuration = sim.Second
	opts := cluster.SystemOptions(cluster.HardHarvestBlock)
	opts.RemoteAdmission = true
	srv := cluster.NewServer(cfg, opts, testBatch(t))
	rc := DefaultConfig()
	rc.ProbeInterval = 10 * sim.Second
	rt := New(rc, []Backend{{Server: srv, Cfg: cfg, Name: "srv"}})
	rt.SetIntensityAll(1e-9)
	g := sim.NewShardGroup(1)
	front.Wire(g, rt, []*cluster.Server{srv})
	const k = 256
	now := sim.Time(0)
	burst := func() uint64 {
		for range rt.reqs.Free() {
			rt.reqs.Get()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < k; i++ {
			rt.Engine().CallAt(now, kick{rt}, int32(i&1), nil, nil)
		}
		g.Run(now)
		runtime.ReadMemStats(&after)
		now = now.Add(50 * sim.Millisecond)
		g.Run(now - 1)
		if got := len(rt.reqs.Free()); got != k {
			t.Fatalf("%d requests back in the pool after a burst of %d", got, k)
		}
		return after.Mallocs - before.Mallocs
	}
	burst()
	burst()
	if allocs, limit := burst(), uint64(k/16+1); allocs > limit {
		t.Fatalf("%d allocations to grow the request pool by %d, want at most %d", allocs, k, limit)
	}
}
