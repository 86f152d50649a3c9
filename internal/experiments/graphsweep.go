package experiments

import (
	"fmt"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/front"
	"hardharvest/internal/graph"
	"hardharvest/internal/sim"
)

// GraphSweep is a harvest-placement sensitivity study over a request DAG:
// the DeathStarBench-shaped socialnet graph (frontend -> logic x2 ->
// {cache, db}) runs with exactly one tier group harvesting cores
// (HardHarvest-Block) while the rest stay NoHarvest, and the end-to-end
// critical-path tail is compared across placements. The expectation: where
// harvesting happens matters — a harvested leaf sits on every request's
// critical path twice (cache and db fan-in), so its interference shows up
// in the e2e tail differently than the same harvesting at the frontend,
// and the all-harvest row bounds the per-tier rows.
func GraphSweep(sc Scale) *Table {
	spec := graph.SocialNet(20 * sim.Microsecond)
	placements := []string{"none", "frontend", "logic", "leaf", "all"}
	t := &Table{
		ID:    "graphsweep",
		Title: "End-to-end DAG tail vs harvest placement (socialnet graph)",
		Columns: []string{"Harvest placement", "E2E P50 [ms]", "E2E P99 [ms]",
			"frontend hop P99 [ms]", "logic hop P99 [ms]", "cache hop P99 [ms]", "db hop P99 [ms]"},
	}
	for _, placement := range placements {
		res := runGraphFleet(sc, spec, placement)
		row := []string{
			fmt.Sprintf("%.3f", res.E2E.P50()),
			fmt.Sprintf("%.3f", res.E2E.P99()),
		}
		for _, tier := range []string{"frontend", "logic", "cache", "db"} {
			row = append(row, fmt.Sprintf("%.3f", res.TierByName(tier).Hop.P99()))
		}
		t.AddRow(placement, row...)
	}
	t.Note("harvest placement shifts the e2e tail: leaf-tier harvesting hits the critical path of every fan-in, frontend harvesting only the root hop; 'all' bounds the per-tier rows")
	return t
}

// runGraphFleet simulates the socialnet DAG with one server per tier group;
// the named placement's group (or every group for "all") runs the full
// HardHarvest-Block system while the rest stay NoHarvest, isolating the
// placement's harvesting interference in the end-to-end distribution.
func runGraphFleet(sc Scale, spec *graph.Spec, placement string) *graph.Result {
	work, err := batch.WorkloadByName("BFS")
	if err != nil {
		panic(err)
	}
	groups := spec.Groups()
	fleet := make([]*cluster.Server, len(groups))
	backends := make([]graph.Backend, len(groups))
	for gi, gname := range groups {
		kind := cluster.NoHarvest
		if placement == "all" || placement == gname {
			kind = cluster.HardHarvestBlock
		}
		cfg := baseConfig(sc)
		cfg.Seed = cluster.ServerSeed(sc.Seed, gi)
		opts := cluster.SystemOptions(kind)
		opts.Observer = sc.observerFor(fmt.Sprintf("graphsweep/%s/%s", placement, gname))
		opts.RemoteAdmission = true
		fleet[gi] = cluster.NewServer(cfg, opts, work)
		backends[gi] = graph.Backend{Server: fleet[gi], Cfg: cfg,
			Name: fmt.Sprintf("server%d[%s]", gi, gname)}
	}
	gd := graph.New(spec, backends, spec.TierServers(groups))
	group := sim.NewShardGroup(0)
	group.Run(front.Wire(group, gd, fleet))
	for _, srv := range fleet {
		srv.Finish()
	}
	return gd.Finish()
}
