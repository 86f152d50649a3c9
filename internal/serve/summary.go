package serve

import (
	"fmt"
	"sort"
	"strings"

	"hardharvest/internal/cluster"
	"hardharvest/internal/graph"
	"hardharvest/internal/obs"
	"hardharvest/internal/route"
	"hardharvest/internal/validate"
)

// renderSummary is the single end-of-run renderer shared by the live loop
// and Replay: the byte-replayability guarantee compares its output, so the
// summary must be a pure function of the inputs — no wall-clock, no map
// iteration order, no pointers.
func renderSummary(cfg RunConfig, res *cluster.ServerResult, c obs.Counters, h *obs.LatencyHist, actions int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== hhsim serve summary ==\n")
	fmt.Fprintf(&b, "system=%s workload=%s seed=%d warmup=%dms measure=%dms step=%dms actions=%d\n",
		cfg.System, cfg.Workload, cfg.Seed, cfg.WarmupMS, cfg.SimMS, cfg.StepMS, actions)
	fmt.Fprintf(&b, "result: %s\n", res)
	names := make([]string, 0, len(res.Service))
	for name := range res.Service {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec := res.Service[name]
		fmt.Fprintf(&b, "  %-10s p50=%-12v p99=%v\n", name, rec.P50(), rec.P99())
	}
	fmt.Fprintf(&b, "jobs=%d (%.0f/s) busy=%.2f pins=%d\n",
		res.HarvestJobs, res.HarvestJobsPerSec, res.BusyCores, res.Pins)
	fmt.Fprintf(&b, "counters: %s\n", c)
	fmt.Fprintf(&b, "latency:  %s\n", h)
	if res.InvariantViolations > 0 {
		fmt.Fprintf(&b, "INVARIANT VIOLATIONS: %d (first: %s)\n",
			res.InvariantViolations, res.FirstViolation)
	}
	return b.String()
}

// renderGraphSummary is renderSummary's DAG-mode counterpart: per-server
// results, the dispatcher's request/RPC ledgers, per-tier hop latencies,
// the end-to-end tail, and the graph-conservation verdict. The same purity
// rules apply — graph replay byte-equivalence compares this output.
func renderGraphSummary(cfg RunConfig, results []*cluster.ServerResult, meters []*obs.Meter, gr *graph.Result, actions int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== hhsim serve summary (graph) ==\n")
	fmt.Fprintf(&b, "system=%s workload=%s seed=%d warmup=%dms measure=%dms step=%dms actions=%d\n",
		cfg.System, cfg.Workload, cfg.Seed, cfg.WarmupMS, cfg.SimMS, cfg.StepMS, actions)
	fmt.Fprintf(&b, "graph: %s tiers=%d servers=%d\n", cfg.Graph, len(gr.Tiers), len(results))
	tail := writeServers(&b, results, meters, func(i int) string { return fmt.Sprintf("server %d", i) })
	fmt.Fprintf(&b, "dag: generated=%d completed=%d failed=%d inflight=%d\n",
		gr.Generated, gr.Completed, gr.Failed, gr.InflightEnd)
	fmt.Fprintf(&b, "  rpcs: dispatched=%d done=%d shed=%d outstanding=%d\n",
		gr.Dispatches, gr.DoneRecv, gr.ShedRecv, gr.OutstandingEnd)
	fmt.Fprintf(&b, "  e2e latency: p50=%.3fms p99=%.3fms n=%d\n",
		gr.E2E.P50(), gr.E2E.P99(), gr.E2E.Count())
	for _, tr := range gr.Tiers {
		fmt.Fprintf(&b, "  tier %s servers=%d vm=%d rpcs=%d done=%d shed=%d hop_p50=%.3fms hop_p99=%.3fms\n",
			tr.Name, tr.Servers, tr.VM, tr.Dispatches, tr.Dones, tr.Sheds,
			tr.Hop.P50(), tr.Hop.P99())
	}
	b.WriteString(tail)
	fmt.Fprintf(&b, "oracle: %s\n", validate.GraphResultConservation("graph_conservation", gr))
	return b.String()
}

// renderRoutedSummary is renderSummary's fleet-mode counterpart: per-backend
// server results, the router's request/attempt/health ledgers, fleet-
// aggregated counters and latency, and the fleet-conservation verdict. The
// same purity rules apply — routed replay byte-equivalence compares this
// output.
func renderRoutedSummary(cfg RunConfig, results []*cluster.ServerResult, meters []*obs.Meter, fr *route.Result, actions int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== hhsim serve summary (routed) ==\n")
	fmt.Fprintf(&b, "system=%s workload=%s seed=%d warmup=%dms measure=%dms step=%dms actions=%d\n",
		cfg.System, cfg.Workload, cfg.Seed, cfg.WarmupMS, cfg.SimMS, cfg.StepMS, actions)
	fmt.Fprintf(&b, "fleet: backends=%d policy=%s\n", len(results), fr.Policy)
	tail := writeServers(&b, results, meters, func(i int) string {
		return fmt.Sprintf("server %d [%s]", i, fr.Backends[i].Name)
	})
	fmt.Fprintf(&b, "router: generated=%d dispatched=%d (initial=%d failovers=%d) completed=%d shed=%d lost=%d (at_admit=%d) inflight=%d\n",
		fr.Generated, fr.Dispatches, fr.InitialDispatches, fr.Failovers,
		fr.Completions, fr.Sheds, fr.Lost, fr.LostAtAdmit, fr.InflightEnd)
	fmt.Fprintf(&b, "  replies: done=%d shed=%d zombie_dones=%d zombie_sheds=%d outstanding=%d\n",
		fr.DoneRecv, fr.ShedRecv, fr.ZombieDones, fr.ZombieSheds, fr.OutstandingEnd)
	fmt.Fprintf(&b, "  health: probes=%d fails=%d ejections=%d readmits=%d drains=%d\n",
		fr.Probes, fr.ProbeFails, fr.Ejections, fr.Readmits, fr.Drains)
	fmt.Fprintf(&b, "  fleet latency: p50=%.3fms p99=%.3fms n=%d\n",
		fr.FleetLatency.P50(), fr.FleetLatency.P99(), fr.FleetLatency.Count())
	for _, br := range fr.Backends {
		fmt.Fprintf(&b, "  backend %s state=%s dispatched=%d done=%d shed=%d zombies=%d failovers_out=%d lost=%d unhealthy_spells=%d crashes=%d edge_p99=%.3fms\n",
			br.Name, br.State, br.Dispatches, br.Dones, br.Sheds,
			br.ZombieDones+br.ZombieSheds, br.FailoversOut, br.Lost,
			br.UnhealthySpells, br.Crashes, br.EdgeLatency.P99())
	}
	b.WriteString(tail)
	fmt.Fprintf(&b, "oracle: %s\n", fr.Conservation("fleet_conservation"))
	return b.String()
}

// writeServers writes the per-server block both fleet summaries share, one
// entry headed by header(i) per server, and returns the fleet tail: the
// counters and latency aggregated over every server, which the caller
// prints after its front door's section.
func writeServers(b *strings.Builder, results []*cluster.ServerResult, meters []*obs.Meter, header func(i int) string) string {
	agg, merged := obs.MergeMeters(meters)
	for i, res := range results {
		c := meters[i].Counters()
		fmt.Fprintf(b, "%s\n", header(i))
		fmt.Fprintf(b, "  result: %s\n", res)
		fmt.Fprintf(b, "  counters: %s\n", c)
		fmt.Fprintf(b, "  latency:  %s\n", meters[i].Hist())
		if res.InvariantViolations > 0 {
			fmt.Fprintf(b, "  INVARIANT VIOLATIONS: %d (first: %s)\n",
				res.InvariantViolations, res.FirstViolation)
		}
	}
	return fmt.Sprintf("fleet counters: %s\nfleet latency:  %s\n", agg, merged)
}
