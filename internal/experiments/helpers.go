package experiments

import (
	"sync"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/mem"
	"hardharvest/internal/sim"
	"hardharvest/internal/workload"
)

// serviceOrder fixes the row order of the per-service figures, matching the
// paper's x-axes.
var serviceOrder = []string{"Text", "SGraph", "User", "PstStr", "UsrMnt", "HomeT", "CPost", "UrlShort"}

func baseConfig(sc Scale) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.MeasureDuration = sc.Measure
	cfg.WarmupDuration = sc.Warmup
	cfg.Seed = sc.Seed
	cfg.FaultPlan = sc.Faults
	cfg.Strict = sc.Strict
	return cfg
}

// applyResilience layers the scale's resilience policies onto options that
// do not carry their own.
func applyResilience(sc Scale, opts *cluster.Options) {
	if !opts.Resilience.Enabled() {
		opts.Resilience = sc.Resilience
	}
}

// defaultWork is the batch workload used by single-server latency figures
// (any workload serves; BFS is the paper's first).
func defaultWork() *batch.Workload {
	w, err := batch.WorkloadByName("BFS")
	if err != nil {
		panic(err)
	}
	return w
}

// runOne simulates a single server under the given options.
func runOne(sc Scale, opts cluster.Options) *cluster.ServerResult {
	opts.Observer = sc.observerFor(opts.Name)
	applyResilience(sc, &opts)
	return cluster.RunServer(baseConfig(sc), opts, defaultWork())
}

// preparedRun is one server simulation with its observer already resolved:
// sweeps build these sequentially (so the Scale's ObserverProvider is
// consulted in deterministic order) and then simulate them concurrently.
type preparedRun struct {
	cfg  cluster.Config
	opts cluster.Options
	work *batch.Workload
}

// prepareOne readies a default-workload run of baseConfig(sc); label
// qualifies the run for the observer provider ("" uses the options name).
func prepareOne(sc Scale, opts cluster.Options, label string) preparedRun {
	if label == "" {
		label = opts.Name
	}
	opts.Observer = sc.observerFor(label)
	applyResilience(sc, &opts)
	return preparedRun{cfg: baseConfig(sc), opts: opts, work: defaultWork()}
}

// prepareFlat is prepareOne with flat (burst-free) load, as Figures 4/5 use.
func prepareFlat(sc Scale, opts cluster.Options) preparedRun {
	r := prepareOne(sc, opts, "")
	r.cfg.TraceSteps = 0
	return r
}

// runPrepared simulates prepared runs concurrently on the shared pool and
// returns results in submission order.
func runPrepared(runs []preparedRun) []*cluster.ServerResult {
	return collect(len(runs), func(i int) *cluster.ServerResult {
		return cluster.RunServer(runs[i].cfg, runs[i].opts, runs[i].work)
	})
}

// fiveKey memoizes the five-systems runs by the Scale's value fields only:
// keying by the full Scale (with its ObserverProvider pointer) would add a
// fresh entry — pinning all five ServerResults plus their observers — for
// every instrumented run.
type fiveKey struct {
	measure sim.Duration
	warmup  sim.Duration
	servers int
	seed    uint64
	system  cluster.SystemKind
	faults  *faults.Plan
	strict  bool
	res     cluster.Resilience
}

// fiveEntry is one system's memoized run; the Once gives per-key
// singleflight, so concurrent first callers of distinct systems simulate
// concurrently while duplicate callers share the one run.
type fiveEntry struct {
	once sync.Once
	res  *cluster.ServerResult
}

var (
	fiveMu    sync.Mutex
	fiveCache = map[fiveKey]*fiveEntry{}
)

// fiveSystems runs the five evaluated architectures on one server. Several
// figures (11, 16, util, app, summary) share the same runs, so results are
// memoized per scale (simulations are deterministic) with per-key
// singleflight: the five systems simulate concurrently on first access, and
// figures running in parallel block only on the runs they actually need.
// Instrumented scales (sc.Obs != nil) bypass the memo entirely — each
// provider must see its own runs, and caching them would leak observers.
func fiveSystems(sc Scale) map[cluster.SystemKind]*cluster.ServerResult {
	systems := cluster.Systems()
	var results []*cluster.ServerResult
	if sc.Obs != nil {
		runs := make([]preparedRun, 0, len(systems))
		for _, k := range systems {
			runs = append(runs, prepareOne(sc, cluster.SystemOptions(k), ""))
		}
		results = runPrepared(runs)
	} else {
		entries := make([]*fiveEntry, len(systems))
		fiveMu.Lock()
		for i, k := range systems {
			key := fiveKey{sc.Measure, sc.Warmup, sc.Servers, sc.Seed, k, sc.Faults, sc.Strict, sc.Resilience}
			e, ok := fiveCache[key]
			if !ok {
				e = &fiveEntry{}
				fiveCache[key] = e
			}
			entries[i] = e
		}
		fiveMu.Unlock()
		results = collect(len(systems), func(i int) *cluster.ServerResult {
			e := entries[i]
			e.once.Do(func() { e.res = runOne(sc, cluster.SystemOptions(systems[i])) })
			return e.res
		})
	}
	out := make(map[cluster.SystemKind]*cluster.ServerResult, len(systems))
	for i, k := range systems {
		out[k] = results[i]
	}
	return out
}

// perServiceP99Row formats one variant's per-service P99s plus the average.
func perServiceP99Row(r *cluster.ServerResult) []string {
	cells := make([]string, 0, len(serviceOrder)+1)
	for _, svc := range serviceOrder {
		cells = append(cells, ms(r.P99(svc)))
	}
	cells = append(cells, ms(r.AvgP99()))
	return cells
}

// perServiceP50Row formats medians.
func perServiceP50Row(r *cluster.ServerResult) []string {
	cells := make([]string, 0, len(serviceOrder)+1)
	for _, svc := range serviceOrder {
		if rec, ok := r.Service[svc]; ok {
			cells = append(cells, ms(rec.P50()))
		} else {
			cells = append(cells, "-")
		}
	}
	cells = append(cells, ms(r.AvgP50()))
	return cells
}

// streamFor derives a service's synthetic address-stream parameters from
// its workload profile: footprint split by the shared fraction, access
// volume proportional to footprint. Working sets stay modest relative to
// the hierarchy, per the paper's characterization (§3).
func streamFor(p *workload.Profile) mem.StreamParams {
	sp := mem.DefaultStreamParams()
	lines := p.FootprintKB * 1024 / 64
	sp.SharedFrac = p.SharedFrac
	sp.SharedLines = maxI(384, int(float64(lines)*p.SharedFrac*0.45))
	sp.PrivateLines = maxI(384, int(float64(lines)*(1-p.SharedFrac)*0.5))
	sp.AccessesPerInvocation = clampI(lines*8, 8000, 40000)
	// Allocators recycle freed pages, so consecutive invocations touch
	// mostly the same private addresses.
	sp.PrivatePool = 1
	return sp
}

// pressureStreamFor derives the steady-state L2 stream of a service for
// the replacement-policy studies (Figures 14, 19): it includes the
// framework/kernel share of the footprint, which keeps the L2 under
// realistic pressure (the invocation-level stream of streamFor is what the
// size-sensitivity study of Figure 7 varies).
func pressureStreamFor(p *workload.Profile) mem.StreamParams {
	sp := streamFor(p)
	sp.SharedLines = sp.SharedLines * 10 / 3
	sp.PrivateLines = sp.PrivateLines * 4
	sp.PrivatePool = 0 // steady state streams fresh private data
	return sp
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// l2ExecFactor converts an L2 hit rate into an execution-time factor via a
// simple per-access latency model: each memory access costs the L2 round
// trip on a hit and the memory round trip on a miss, amortized against a
// fixed compute component.
func l2ExecFactor(hit float64) float64 {
	const (
		compute = 4.0   // cycles of compute per memory access
		l2Hit   = 13.0  // Table 1 L2 round trip
		l2Miss  = 200.0 // LLC + memory beyond the L2
	)
	amat := hit*l2Hit + (1-hit)*l2Miss
	return (compute + amat) / (compute + l2Hit)
}

// cpuShare reports the fraction of a service's end-to-end time spent on
// CPU (the part cache behaviour scales).
func cpuShare(p *workload.Profile) float64 {
	cpu := float64(p.MeanCPU)
	io := p.MeanIOCalls * float64(p.IOMean)
	return cpu / (cpu + io)
}

// scaleLatency applies an execution-factor to the CPU share of a measured
// latency.
func scaleLatency(base sim.Duration, p *workload.Profile, factor float64) sim.Duration {
	share := cpuShare(p)
	return sim.Duration(float64(base) * (1 + share*(factor-1)))
}
