package hardharvest_test

// One benchmark per table and figure of the paper's evaluation: each bench
// regenerates its artifact end to end (workload generation, simulation,
// table assembly). Run a single figure with e.g.
//
//	go test -bench BenchmarkFig11 -benchtime 1x
//
// The benches use a reduced measurement window; cmd/hhsim -scale full runs
// the paper-scale versions.

import (
	"path/filepath"
	"strings"
	"testing"

	"hardharvest"
	"hardharvest/internal/experiments"
	"hardharvest/internal/scenario"
)

func benchScale() hardharvest.Scale {
	sc := experiments.Quick()
	sc.Measure = 120 * hardharvest.Millisecond
	sc.Warmup = 20 * hardharvest.Millisecond
	sc.Servers = 2
	return sc
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	// A per-experiment seed space with a fresh seed per iteration defeats
	// the figure-sharing result cache, so every iteration measures the
	// full regeneration cost (and no benchmark warms another's cache).
	base := uint64(1)
	for _, c := range id {
		base = base*131 + uint64(c)
	}
	for i := 0; i < b.N; i++ {
		sc.Seed = base + uint64(i)
		tbl, ok := hardharvest.RunExperiment(id, sc)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("experiment %q produced no rows", id)
		}
	}
}

// Motivation figures (§3).
func BenchmarkFig2AlibabaCDF(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3UtilizationSeries(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4HypervisorOverhead(b *testing.B) {
	benchExperiment(b, "fig4")
}
func BenchmarkFig5FlushOverhead(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6RequestBreakdown(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7CacheSizeSensitivity(b *testing.B) { benchExperiment(b, "fig7") }

// Evaluation figures (§6).
func BenchmarkFig11TailLatency(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12OptBreakdown(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13SchedCtxtSwAblation(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14ReplacementPolicies(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15NoHarvestOpts(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16MedianLatency(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17HarvestThroughput(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkUtilizationTable(b *testing.B)         { benchExperiment(b, "util") }
func BenchmarkStorageCost(b *testing.B)              { benchExperiment(b, "storage") }
func BenchmarkFig18LLCSensitivity(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkFig19EvictionCandidates(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkTable1Parameters(b *testing.B)         { benchExperiment(b, "table1") }

// Ablation of the design choices DESIGN.md calls out (extension policies).
func BenchmarkExtensionPolicies(b *testing.B) { benchExperiment(b, "ext") }

// End-to-end application composition over Figure 1's DAGs.
func BenchmarkApplicationE2E(b *testing.B) { benchExperiment(b, "app") }

// The §4.2.2 shared-before-serve profiling sweep over three suites.
func BenchmarkProfilingSweep(b *testing.B) { benchExperiment(b, "profiling") }

// Latency-load curve extension.
func BenchmarkLoadSweep(b *testing.B) { benchExperiment(b, "loadsweep") }

// Whole-suite regeneration on the parallel scheduler vs a pool of one:
// the pair measures the -all speedup on the host (identical tables either
// way; simulations are deterministic and seed-isolated). A fresh seed per
// iteration defeats the figure-sharing result cache.

func benchAll(b *testing.B, parallelism int) {
	b.Helper()
	hardharvest.SetParallelism(parallelism)
	defer hardharvest.SetParallelism(0)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		sc.Seed = 900000 + uint64(i)
		tables := hardharvest.RunAllExperiments(sc)
		if len(tables) != len(hardharvest.ExperimentIDs()) {
			b.Fatalf("suite returned %d tables", len(tables))
		}
	}
}

func BenchmarkAllExperimentsParallel(b *testing.B)   { benchAll(b, 0) }
func BenchmarkAllExperimentsSequential(b *testing.B) { benchAll(b, 1) }

// BenchmarkShardedVsSerial runs one fleet scenario through the sharded
// runner with 1 worker and with 8; the pair measures the intra-run speedup
// on the host (the summaries are byte-identical either way, so the ratio is
// pure execution overhead). The serial leg's allocs/op is pinned in
// BENCH_baseline.json: it covers the whole sharded path — group setup,
// window bookkeeping, per-server engines, sketch recorders.

const shardBenchYAML = `name: bench-shard
seed: 9
warmup_ms: 5
duration_ms: 40
step_ms: 5
fleet:
  - group: web
    count: 8
    system: HardHarvest-Block
    workload: BFS
`

func benchScenarioShards(b *testing.B, shards int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := scenario.Parse([]byte(shardBenchYAML), false, "")
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sc.RunShards(shards)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("scenario failed:\n%s", rep.Summary)
		}
	}
}

func BenchmarkShardedVsSerial(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchScenarioShards(b, 1) })
	b.Run("shards8", func(b *testing.B) { benchScenarioShards(b, 8) })
}

// BenchmarkScenarioRun runs every scenario of the shipped library end to
// end (load, compile, a 1-worker sharded run, oracles, summary), one
// sub-benchmark per file. Its allocs/op are pinned in BENCH_baseline.json,
// so the scenario layer is gated like the engine, server, router and
// dispatcher below it.
func BenchmarkScenarioRun(b *testing.B) {
	paths, err := filepath.Glob("scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		b.Fatalf("no scenarios: %v", err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, ".graph.yaml") {
			continue // a graph block a DAG scenario includes, not a scenario
		}
		b.Run(strings.TrimSuffix(filepath.Base(path), ".yaml"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc, err := scenario.Load(path)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sc.RunShards(1)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK() {
					b.Fatalf("scenario failed:\n%s", rep.Summary)
				}
			}
		})
	}
}

// Micro-benchmarks of the core primitives, for engineering regressions.

func BenchmarkControllerEnqueueDequeue(b *testing.B) {
	ctrl := hardharvest.NewController()
	// Same shape as one Primary VM slice of the server.
	mustB(b, ctrl.AddVM(1, true, defaultMask()))
	mustB(b, ctrl.BindCore(0, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := requestFor(1, uint64(i))
		if _, _, err := ctrl.Enqueue(1, r); err != nil {
			b.Fatal(err)
		}
		got, _, _, err := ctrl.Dequeue(0, false)
		if err != nil || got == nil {
			b.Fatalf("dequeue: %v %v", got, err)
		}
		if err := ctrl.Complete(0, got); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerSimulation(b *testing.B) {
	cfg := hardharvest.DefaultConfig()
	cfg.MeasureDuration = 50 * hardharvest.Millisecond
	cfg.WarmupDuration = 10 * hardharvest.Millisecond
	work, _ := hardharvest.WorkloadByName("BFS")
	opts := hardharvest.SystemOptions(hardharvest.HardHarvestBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		r := hardharvest.RunServer(cfg, opts, work)
		if r.Requests == 0 {
			b.Fatal("no requests simulated")
		}
	}
}

// BenchmarkServerSoftware is BenchmarkServerSimulation on the software
// Harvest-Block system: per-VM software queues, pinned arrivals and
// hypervisor core moves instead of the hardware controller. Its allocs/op
// pin the software-harvesting server path.
func BenchmarkServerSoftware(b *testing.B) {
	cfg := hardharvest.DefaultConfig()
	cfg.MeasureDuration = 50 * hardharvest.Millisecond
	cfg.WarmupDuration = 10 * hardharvest.Millisecond
	work, _ := hardharvest.WorkloadByName("BFS")
	opts := hardharvest.SystemOptions(hardharvest.HarvestBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		r := hardharvest.RunServer(cfg, opts, work)
		if r.Requests == 0 {
			b.Fatal("no requests simulated")
		}
	}
}

// BenchmarkServerNilObserver is BenchmarkServerSimulation with the observer
// field explicitly nil; compare the two to confirm the hook sites cost
// nothing when observability is off (the contract is <2% and 0 allocs
// attributable to the hooks).
func BenchmarkServerNilObserver(b *testing.B) {
	cfg := hardharvest.DefaultConfig()
	cfg.MeasureDuration = 50 * hardharvest.Millisecond
	cfg.WarmupDuration = 10 * hardharvest.Millisecond
	work, _ := hardharvest.WorkloadByName("BFS")
	opts := hardharvest.SystemOptions(hardharvest.HardHarvestBlock)
	opts.Observer = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		r := hardharvest.RunServer(cfg, opts, work)
		if r.Requests == 0 {
			b.Fatal("no requests simulated")
		}
	}
}

// BenchmarkServerWithTracer measures the enabled-path cost: full span
// recording plus counters and histogram.
func BenchmarkServerWithTracer(b *testing.B) {
	cfg := hardharvest.DefaultConfig()
	cfg.MeasureDuration = 50 * hardharvest.Millisecond
	cfg.WarmupDuration = 10 * hardharvest.Millisecond
	work, _ := hardharvest.WorkloadByName("BFS")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		opts := hardharvest.SystemOptions(hardharvest.HardHarvestBlock)
		opts.Observer = hardharvest.NewSpanTracer(opts.Name, 0)
		r := hardharvest.RunServer(cfg, opts, work)
		if r.Requests == 0 {
			b.Fatal("no requests simulated")
		}
	}
}

func mustB(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}
