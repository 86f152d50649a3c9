// Command bench is the repository's end-to-end benchmark. One invocation
// measures one workload for a fixed host time and prints, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 1.43, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones a user of `hhsim run` or
// `hhsim serve` sees: host time, set-up time, simulated throughput, memory
// and allocations per simulated request. With -trace 1 they attribute host
// time to layers (cluster, shard, route, graph, validate, serve, runtime)
// from traced passes that rebuild the fleet from the layers' constructors.
// The line before it holds every metric's median, quartiles and sample
// count. See README.md for the workloads and metrics.
//
// Run it from the repository root with bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload fleet-wide --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. A metric reports the
// median of its samples unless pick says otherwise.
type metricDef struct {
	name, unit string
	pick       func([]float64) float64
}

// endToEnd are the metrics printed with -trace 0. Wall time and throughput
// report a run's fastest repetition: the host's speed drifts by about 10%
// over tens of seconds, which moves a run's median repetition with it, while
// the fastest repetition of a 20 s run stays within a few percent.
var endToEnd = []metricDef{
	{"wall_s", "s", slices.Min[[]float64]},
	{"setup_s", "s", nil},
	{"sim_req_per_s", "1/s", slices.Max[[]float64]},
	{"peak_rss_mb", "MB", nil},
	{"allocs_per_req", "count", nil},
	{"alloc_bytes_per_req", "B", nil},
}

// perLayer are the metrics printed with -trace 1. Layers a workload does not
// have report 0; every time-valued metric is measured on every workload.
var perLayer = []metricDef{
	{"scenario.load_ms", "ms", nil},
	{"cluster.build_ms", "ms", nil},
	{"cluster.busy_s", "s", nil},
	{"cluster.events", "count", nil},
	{"cluster.ns_per_event", "ns", nil},
	{"cluster.advance_calls", "count", nil},
	{"cluster.idle_advance_frac", "frac", nil},
	{"cluster.finish_ms", "ms", nil},
	{"shard.run_s", "s", nil},
	{"shard.windows", "count", nil},
	{"shard.self_s", "s", nil},
	{"shard.self_frac", "frac", nil},
	{"shard.parallelism", "ratio", nil},
	{"route.busy_frac", "frac", nil},
	{"route.events", "count", nil},
	{"route.advance_calls", "count", nil},
	{"route.dispatches_per_req", "ratio", nil},
	{"route.probes", "count", nil},
	{"graph.busy_frac", "frac", nil},
	{"graph.events", "count", nil},
	{"graph.advance_calls", "count", nil},
	{"graph.rpcs_per_root", "ratio", nil},
	{"validate.oracle_ms", "ms", nil},
	{"serve.barriers", "count", nil},
	{"serve.scrapes", "count", nil},
	{"serve.scrape_bytes", "B", nil},
	{"serve.scrape_busy_frac", "frac", nil},
	{"serve.barrier_tail_ratio", "ratio", nil},
	{"serve.scraper_lag_frac", "frac", nil},
	{"runtime.gc_cycles", "count", nil},
	{"runtime.gc_pause_ms", "ms", nil},
	{"runtime.gc_cpu_frac", "frac", nil},
	{"trace.overhead_frac", "frac", nil},
}

// setupsPerRep is how many set-ups a -trace 0 run times after each
// repetition; setup_s is the median of all of them.
const setupsPerRep = 3

// procs is both GOMAXPROCS and the shard-group worker count. On a 2-vCPU
// host shared with other tenants, two workers made routed-failover 1.6x
// slower than one and its per-run wall time several times noisier (every
// conservative window hands work to fresh goroutines on both CPUs), which
// no regression bound could absorb. One worker measures the simulator's
// own cost; BenchmarkShardedVsSerial keeps the parallel ratio.
const procs = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-wide | routed-failover | dag-socialnet | serve-live")
	seed := fs.Uint64("seed", 0, "simulation seed (0 = the workload's own)")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traceMode := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from traced passes")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the Perfetto trace of a -trace 1 run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "bench: want -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR]")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	w, err := lookup(*name, procs, 0)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	pins, err := pinnedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seed == 0 {
		*seed = w.seed()
	}
	pin := ""
	if *seed == w.seed() {
		pin = pins[*name]
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var res *result
	if *traceMode == 1 {
		res = measureLayers(w, *seed, pin, budget)
		if res.trace != nil {
			path, err := writeTrace(*traceDir, fmt.Sprintf("%s-seed%d.trace.json", *name, *seed), res.trace)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintln(stderr, "bench: Perfetto trace:", path)
		}
	} else {
		res = measureEndToEnd(w, *seed, pin, budget)
	}
	for _, f := range res.check.failures {
		fmt.Fprintln(stderr, "bench: FAIL:", f)
	}
	defs := endToEnd
	if *traceMode == 1 {
		defs = perLayer
	}
	return printResult(stdout, stderr, *name, *seed, procs, defs, res)
}

// checker applies the correctness rules to every run: no error, every
// oracle check passes, every untraced summary has the same digest (the pinned
// one at the workload's own seed), and every traced pass reproduces the
// untraced result lines and ledgers exactly.
type checker struct {
	pin       string
	digest    string
	lines     []string
	attempted int
	failures  []string
}

func (c *checker) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// untraced checks one untraced run and reports whether it can be measured.
func (c *checker) untraced(out *outcome, err error) bool {
	c.attempted++
	switch {
	case err != nil:
		c.fail("run %d: %v", c.attempted, err)
		return false
	case out.failure != "":
		c.fail("run %d: %s", c.attempted, out.failure)
		return false
	case c.pin != "" && out.digest != c.pin:
		c.fail("run %d: summary sha256 %s, pinned %s", c.attempted, out.digest, c.pin)
		return false
	case c.digest == "":
		c.digest, c.lines = out.digest, out.lines
	case out.digest != c.digest:
		c.fail("run %d: summary sha256 %s differs from the first run's %s", c.attempted, out.digest, c.digest)
		return false
	}
	return true
}

// traced checks one traced pass against the first untraced run.
func (c *checker) traced(out *outcome, err error) bool {
	c.attempted++
	switch {
	case err != nil:
		c.fail("traced run %d: %v", c.attempted, err)
		return false
	case out.failure != "":
		c.fail("traced run %d: %s", c.attempted, out.failure)
		return false
	case c.lines == nil:
		c.fail("traced run %d: no untraced run to compare with", c.attempted)
		return false
	}
	if len(out.lines) != len(c.lines) {
		c.fail("traced run %d: %d result lines, untraced run has %d", c.attempted, len(out.lines), len(c.lines))
		return false
	}
	for i := range out.lines {
		if out.lines[i] != c.lines[i] {
			c.fail("traced run %d differs from the untraced run:\n  traced:   %s\n  untraced: %s", c.attempted, out.lines[i], c.lines[i])
			return false
		}
	}
	return true
}

// sample is one untraced run with the process's runtime deltas around it.
type sample struct {
	*outcome
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	gcCPUFrac           float64
}

// gcCPU reads the runtime's cumulative GC and total CPU-time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func measureUntraced(w workload, seed uint64) (*sample, error) {
	var m0, m1 runtime.MemStats
	gc0, total0 := gcCPU()
	runtime.ReadMemStats(&m0)
	out, err := w.untraced(seed)
	runtime.ReadMemStats(&m1)
	gc1, total1 := gcCPU()
	if err != nil {
		return nil, err
	}
	return &sample{
		outcome:    out,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		gcCPUFrac:  ratio(gc1-gc0, total1-total0),
	}, nil
}

// result is one invocation's measurements: per metric, one value per run.
type result struct {
	check   *checker
	values  map[string][]float64
	samples []*sample
	trace   *tracer // the last traced pass
}

func (r *result) add(name string, v float64) { r.values[name] = append(r.values[name], v) }

func newResult(pin string) *result {
	return &result{check: &checker{pin: pin}, values: map[string][]float64{}}
}

// untraced runs one untraced repetition, checks it, and records it.
func (r *result) untraced(w workload, seed uint64) {
	s, err := measureUntraced(w, seed)
	var out *outcome
	if s != nil {
		out = s.outcome
	}
	if r.check.untraced(out, err) {
		r.samples = append(r.samples, s)
	}
}

// measureEndToEnd warms up with one checked run, then repeats the workload
// until the budget is spent (at least three times), timing setupsPerRep
// set-ups after each repetition. Spreading the set-ups over the whole run
// keeps a short stall of the host from landing on all of them.
func measureEndToEnd(w workload, seed uint64, pin string, budget time.Duration) *result {
	r := newResult(pin)
	r.untraced(w, seed)
	r.samples = nil
	deadline := time.Now().Add(budget)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		r.untraced(w, seed)
		for i := 0; i < setupsPerRep; i++ {
			start := time.Now()
			if err := w.setup(seed); err != nil {
				r.check.fail("set-up: %v", err)
				return r
			}
			r.add("setup_s", time.Since(start).Seconds())
		}
	}
	for _, s := range r.samples {
		reqs := float64(s.reqs)
		r.add("wall_s", s.wall.Seconds())
		r.add("sim_req_per_s", ratio(reqs, s.wall.Seconds()))
		r.add("allocs_per_req", ratio(float64(s.mallocs), reqs))
		r.add("alloc_bytes_per_req", ratio(float64(s.allocBytes), reqs))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.check.fail("getrusage: %v", err)
		return r
	}
	r.add("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports VmHWM in KiB
	return r
}

// measureLayers warms up with one checked untraced run, then alternates
// traced and untraced runs until the budget is spent (at least two of
// each). Layer metrics are medians over the traced passes; runtime and
// serve metrics come from the untraced runs.
func measureLayers(w workload, seed uint64, pin string, budget time.Duration) *result {
	r := newResult(pin)
	r.untraced(w, seed)
	r.samples = nil
	var tracedWall []float64
	deadline := time.Now().Add(budget)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		tr := newTracer()
		out, err := w.traced(seed, tr)
		if r.check.traced(out, err) {
			r.trace = tr
			tracedWall = append(tracedWall, out.wall.Seconds())
			for k, v := range tr.layerMetrics() {
				r.add(k, v)
			}
			for k, v := range out.front {
				r.add(k, v)
			}
		}
		r.untraced(w, seed)
	}
	var untracedWall []float64
	for _, s := range r.samples {
		untracedWall = append(untracedWall, s.wall.Seconds())
		r.add("runtime.gc_cycles", float64(s.gcCycles))
		r.add("runtime.gc_pause_ms", ms(s.gcPause))
		r.add("runtime.gc_cpu_frac", s.gcCPUFrac)
	}
	r.add("trace.overhead_frac", ratio(summarize(tracedWall).Median, summarize(untracedWall).Median)-1)
	r.addServe()
	return r
}

// addServe records the serve surface's metrics (0 for scenario workloads).
func (r *result) addServe() {
	var barriers, scrapes, lags []float64
	var busy, wall time.Duration
	bytes := 0
	nBarriers, nScrapes := []float64{}, []float64{}
	for _, s := range r.samples {
		if s.live == nil {
			continue
		}
		nBarriers = append(nBarriers, float64(len(s.live.barriers)))
		nScrapes = append(nScrapes, float64(len(s.live.scrapes)))
		barriers = append(barriers, s.live.barriers...)
		scrapes = append(scrapes, s.live.scrapes...)
		lags = append(lags, s.live.lags...)
		busy += s.live.scrapeBusy
		wall += s.wall
		bytes += s.live.scrapeBytes
	}
	if len(nBarriers) == 0 {
		nBarriers, nScrapes = []float64{0}, []float64{0}
	}
	r.values["serve.barriers"], r.values["serve.scrapes"] = nBarriers, nScrapes
	var lag float64
	for _, l := range lags {
		lag += l / float64(len(lags))
	}
	r.add("serve.scrape_bytes", ratio(float64(bytes), float64(len(scrapes))))
	r.add("serve.scrape_busy_frac", ratio(busy.Seconds(), wall.Seconds()))
	r.add("serve.barrier_tail_ratio", ratio(quantile(barriers, 0.99), quantile(barriers, 0.50)))
	r.add("serve.scraper_lag_frac", lag/ms(scrapePeriod))
	for _, d := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"serve.barrier_p50_ms", barriers, 0.50}, {"serve.barrier_p99_ms", barriers, 0.99},
		{"serve.scrape_p50_ms", scrapes, 0.50}, {"serve.scrape_p95_ms", scrapes, 0.95}} {
		// Absolute tails, reported in the detail line only (see README.md).
		r.add(d.name, quantile(d.xs, d.p))
	}
}

func writeTrace(dir, file string, tr *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printResult prints the detail line and then the result line.
func printResult(stdout, stderr io.Writer, name string, seed uint64, procs int, defs []metricDef, r *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	detail := map[string]summary{}
	for k, xs := range r.values {
		detail[k] = summarize(xs)
	}
	out := map[string]value{}
	for _, d := range defs {
		xs, ok := r.values[d.name]
		if !ok && len(r.check.failures) == 0 {
			r.check.fail("metric %s was not measured", d.name)
		}
		v := summarize(xs).Median
		if d.pick != nil && len(xs) > 0 {
			v = d.pick(xs)
		}
		out[d.name] = value{v, d.unit}
	}
	attempted := max(r.check.attempted, 1)
	failed := len(r.check.failures)
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, min(failed, attempted), out}
	lines := []any{
		map[string]any{"workload": name, "seed": seed, "gomaxprocs": procs, "digest": r.check.digest, "detail": detail},
		doc,
	}
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", b); err != nil {
			return 1
		}
	}
	return 0
}
