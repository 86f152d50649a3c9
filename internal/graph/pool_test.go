package graph

import (
	"runtime"
	"testing"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/front"
	"hardharvest/internal/sim"
)

// TestPoolsGrowPerChunk: a burst of k simultaneous roots grows the
// dispatcher's request pool and its node pool by k objects each at one
// allocation per 16, not one per object. Each burst first takes every
// waiting object out of the pool under test, so the burst's admissions
// must carve k fresh ones; the other pool, the ledger, the inboxes and the
// pool's own free list are warm from identical earlier bursts. The
// measured window is the instant the dispatcher admits the burst and
// dispatches its root RPCs, so the pool's growth is all it pays for: at
// most k/16+1 allocations. Every request drains before the next burst.
func TestPoolsGrowPerChunk(t *testing.T) {
	for _, pool := range []string{"requests", "nodes"} {
		t.Run(pool, func(t *testing.T) {
			d, g := poolFleet(t)
			drain := func() {
				if pool == "requests" {
					for range d.reqs.Free() {
						d.reqs.Get()
					}
				} else {
					for range d.nodes.Free() {
						d.nodes.Get()
					}
				}
			}
			const k = 256
			now := sim.Time(0)
			burst := func() uint64 {
				drain()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < k; i++ {
					d.ScheduleRoot(now)
				}
				g.Run(now)
				runtime.ReadMemStats(&after)
				now = now.Add(200 * sim.Millisecond)
				g.Run(now - 1)
				if d.inflight != 0 {
					t.Fatalf("%d roots still in flight after a burst of %d", d.inflight, k)
				}
				return after.Mallocs - before.Mallocs
			}
			burst()
			burst()
			if allocs, limit := burst(), uint64(k/16+1); allocs > limit {
				t.Fatalf("%d allocations to grow the %s pool by %d, want at most %d", allocs, pool, k, limit)
			}
		})
	}
}

// poolFleet wires a dispatcher over a two-tier DAG (front calls back twice
// in parallel), one server per tier, with the root generators muted.
func poolFleet(t *testing.T) (*Dispatcher, *sim.ShardGroup) {
	t.Helper()
	spec := &Spec{
		NetDelay: 20 * sim.Microsecond,
		Tiers: []Tier{
			{Name: "front", Group: "front", Calls: []Call{{Tier: 1, Mode: Parallel, Fanout: 2}}},
			{Name: "back", Group: "back"},
		},
	}
	work, err := batch.WorkloadByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	var fleet []*cluster.Server
	var backends []Backend
	for i, name := range []string{"front", "back"} {
		cfg := cluster.DefaultConfig()
		cfg.Seed = 31 + uint64(i)
		cfg.WarmupDuration = 2 * sim.Millisecond
		cfg.MeasureDuration = sim.Second
		opts := cluster.SystemOptions(cluster.HardHarvestBlock)
		opts.RemoteAdmission = true
		srv := cluster.NewServer(cfg, opts, work)
		fleet = append(fleet, srv)
		backends = append(backends, Backend{Server: srv, Cfg: cfg, Name: name})
	}
	d := New(spec, backends, [][]int{{0}, {1}})
	d.SetIntensityAll(1e-9)
	g := sim.NewShardGroup(1)
	front.Wire(g, d, fleet)
	return d, g
}
