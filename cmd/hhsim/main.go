// Command hhsim runs the paper's experiments and prints the regenerated
// tables and figures.
//
// Usage:
//
//	hhsim -exp fig11                  # one experiment
//	hhsim -all                        # every experiment
//	hhsim -all -scale full            # paper-scale runs
//	hhsim -list                       # list experiment ids
//	hhsim -exp fig6 -trace t.json     # Perfetto/chrome://tracing span trace
//	hhsim -exp fig6 -timeseries o.csv # occupancy time series
//	hhsim -exp fig6 -counters         # harvest-event counters + latency hist
//	hhsim -all -cpuprofile cpu.pprof  # pprof CPU profile of the whole run
//	hhsim -all -memprofile mem.pprof  # pprof allocation profile
//	hhsim run -cpuprofile cpu.pprof scenarios/socialnet-dag.yaml
//	                                  # the same profiles of one scenario
//	hhsim -exp fig11 -faults examples/faultplan.json -resilience
//	                                  # inject a fault plan + default
//	                                  # timeout/retry/hedge/shed policies
//	hhsim -exp faultsweep -strict     # fault-intensity sweep, invariant
//	                                  # violations panic with replay info
//	hhsim -validate                   # simulation oracle: metamorphic +
//	                                  # analytic checks, exit 1 on failure
//	hhsim -validate -perturb partition-flush-wait=3
//	                                  # prove the oracle catches a
//	                                  # corrupted Table 1 constant
//	hhsim serve -addr :8377           # long-lived simulation server:
//	                                  # Prometheus /metrics, REST control
//	                                  # (/api/state, /api/config, pause/
//	                                  # resume/step), /api/timeseries
//	hhsim serve -actionlog run.jsonl  # log control actions for replay
//	hhsim serve -replay run.jsonl     # re-run a served session headless;
//	                                  # the summary is byte-identical
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hardharvest/internal/cluster"
	"hardharvest/internal/experiments"
	"hardharvest/internal/faults"
	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
	"hardharvest/internal/validate"
)

// collector hands out per-run observers and keeps them for export after the
// experiment finishes. It implements experiments.ObserverProvider; one fresh
// collector is used per experiment so -all writes one output set per id.
type collector struct {
	mu       sync.Mutex
	trace    bool
	sample   sim.Duration
	tracers  []*obs.SpanTracer
	samplers []*obs.Sampler
}

func (c *collector) ObserverFor(run string) cluster.Observer {
	c.mu.Lock()
	defer c.mu.Unlock()
	parts := make([]obs.Observer, 0, 2)
	if c.trace {
		// 64 pid slots per run keeps every (run, VM) pair on its own
		// Perfetto process track.
		t := obs.NewSpanTracer(run, len(c.tracers)*64)
		c.tracers = append(c.tracers, t)
		parts = append(parts, t)
	}
	if c.sample > 0 {
		s := obs.NewSampler(run, c.sample)
		c.samplers = append(c.samplers, s)
		parts = append(parts, s)
	}
	return obs.Multi(parts...)
}

func (c *collector) active() bool { return c.trace || c.sample > 0 }

// outPath derives the output file for one experiment: with -all the
// experiment id is spliced in before the extension so runs don't clobber
// each other (t.json -> t.fig6.json).
func outPath(base, id string, all bool) string {
	if !all {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + id + ext
}

func writeFile(path string, write func(f *os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err == nil {
		err = f.Close()
		if err == nil {
			return
		}
		fmt.Fprintln(os.Stderr, err)
	} else {
		fmt.Fprintln(os.Stderr, err)
		f.Close()
	}
	os.Exit(1)
}

func main() {
	// Subcommand dispatch happens before flag parsing: `hhsim serve`,
	// `hhsim run`, and `hhsim validate` have their own flag sets, and the
	// batch flags below do not apply to them. (`hhsim validate <file>` is
	// the scenario checker; the `-validate` flag is the simulation oracle.)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "run", "validate":
			os.Exit(scenarioMain(os.Args[1], os.Args[2:]))
		}
	}
	exp := flag.String("exp", "", "experiment id (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment ids")
	scaleName := flag.String("scale", "quick", "quick or full")
	seed := flag.Uint64("seed", 1, "random seed")
	measureMS := flag.Int("measure-ms", 0, "override measurement window [ms]")
	asJSON := flag.Bool("json", false, "emit tables as JSON")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON span trace (open in Perfetto)")
	tsPath := flag.String("timeseries", "", "write per-VM occupancy samples (.csv or .json)")
	counters := flag.Bool("counters", false, "print per-run harvest-event counters and latency histogram")
	sampleUS := flag.Int("sample-us", 100, "timeseries sampling cadence in simulated microseconds")
	parallel := flag.Int("parallel", 0, "max concurrent simulated server runs (0 = GOMAXPROCS, 1 = sequential)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	faultsPath := flag.String("faults", "", "inject faults from a JSON fault plan (see internal/faults)")
	strict := flag.Bool("strict", false, "panic on the first invariant violation with replay info")
	resilience := flag.Bool("resilience", false, "enable default request timeout/retry/hedge/shed policies")
	runValidate := flag.Bool("validate", false, "run the simulation oracle (metamorphic + analytic checks) and exit nonzero on failure")
	perturb := flag.String("perturb", "", "comma-separated field=factor corruptions for -validate (fields: "+
		strings.Join(validate.PerturbFields(), ", ")+")")
	flag.Parse()

	// Reject unusable numeric flags before any run construction: a zero
	// sampling cadence would silently disable -timeseries, and negative
	// windows or worker counts would surface as panics deep in the
	// scheduler. Exit 2 (usage), matching the documented code convention.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hhsim: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *sampleUS <= 0 {
		usageErr("-sample-us must be a positive number of simulated microseconds, got %d", *sampleUS)
	}
	if *parallel < 0 {
		usageErr("-parallel must be >= 0 (0 = GOMAXPROCS), got %d", *parallel)
	}
	if *measureMS < 0 {
		usageErr("-measure-ms must be >= 0 (0 = the scale's default window), got %d", *measureMS)
	}
	experiments.SetParallelism(*parallel)

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-8s %s\n", r.ID, r.Name)
		}
		return
	}
	sc := experiments.Quick()
	if *scaleName == "full" {
		sc = experiments.Full()
	}
	sc.Seed = *seed
	if *measureMS > 0 {
		sc.Measure = sim.Duration(*measureMS) * sim.Millisecond
	}
	if *faultsPath != "" {
		plan, err := faults.Load(*faultsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc.Faults = plan
	}
	sc.Strict = *strict
	if *resilience {
		sc.Resilience = cluster.DefaultResilience()
	}

	if *runValidate {
		os.Exit(runOracle(sc, *perturb))
	}
	if *perturb != "" {
		fmt.Fprintln(os.Stderr, "-perturb only applies to -validate")
		os.Exit(2)
	}

	// runExp executes one experiment: the rendered table goes to w, the
	// timing line and counters go to ew (stderr in the end — keeping them
	// off stdout means -json emits a single valid JSON document), and file
	// outputs (trace/timeseries) are written directly; with -all the id is
	// spliced into each filename so concurrent experiments never share a
	// path. Each experiment gets its own collector, so instrumented -all
	// runs stay per-experiment deterministic even when they overlap.
	runExp := func(r experiments.Runner, w, ew io.Writer) *experiments.Table {
		col := &collector{trace: *tracePath != "" || *counters}
		if *tsPath != "" {
			col.sample = sim.Duration(*sampleUS) * sim.Microsecond
		}
		scr := sc
		if col.active() {
			scr.Obs = col
		}
		start := time.Now()
		tbl := r.Run(scr)
		if *tracePath != "" {
			writeFile(outPath(*tracePath, r.ID, *all), func(f *os.File) error {
				return obs.WriteTraces(f, col.tracers...)
			})
		}
		if *tsPath != "" {
			writeFile(outPath(*tsPath, r.ID, *all), func(f *os.File) error {
				if filepath.Ext(*tsPath) == ".json" {
					return obs.WriteSamplesJSON(f, col.samplers...)
				}
				return obs.WriteSamplesCSV(f, col.samplers...)
			})
		}
		if !*asJSON {
			fmt.Fprintln(w, tbl.String())
		}
		fmt.Fprintf(ew, "  (%s in %.1fs)\n\n", r.ID, time.Since(start).Seconds())
		if *counters {
			printCounters(ew, r.ID, col.tracers)
		}
		return tbl
	}
	marshal := func(v any) {
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
	switch {
	case *all:
		// Experiments run concurrently (the scheduler's worker pool bounds
		// the actual simulation parallelism); each buffers its output, and
		// the printer drains the buffers in paper order as soon as every
		// earlier experiment has finished, so stdout is byte-identical to a
		// sequential run.
		runners := experiments.Runners()
		type expOutput struct {
			tbl      *experiments.Table
			out, err strings.Builder
		}
		outs := make([]*expOutput, len(runners))
		done := make([]chan struct{}, len(runners))
		for i := range runners {
			outs[i] = &expOutput{}
			done[i] = make(chan struct{})
		}
		for i, r := range runners {
			i, r := i, r
			go func() {
				defer close(done[i])
				outs[i].tbl = runExp(r, &outs[i].out, &outs[i].err)
			}()
		}
		var jsonTables []*experiments.Table
		for i := range runners {
			<-done[i]
			io.WriteString(os.Stdout, outs[i].out.String())
			io.WriteString(os.Stderr, outs[i].err.String())
			jsonTables = append(jsonTables, outs[i].tbl)
		}
		if *asJSON {
			marshal(jsonTables)
		}
	case *exp != "":
		r := experiments.ByID(*exp)
		if r == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(1)
		}
		tbl := runExp(*r, os.Stdout, os.Stderr)
		if *asJSON {
			marshal(tbl)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOracle executes the validate suite at the scale's parameters and
// prints every check. Exit codes: 0 all checks pass, 1 at least one check
// failed, 2 unusable parameters (malformed -perturb spec).
func runOracle(sc experiments.Scale, perturb string) int {
	p := validate.Params{
		Measure:    sc.Measure,
		Warmup:     sc.Warmup,
		Seed:       sc.Seed,
		Faults:     sc.Faults,
		Strict:     sc.Strict,
		Resilience: sc.Resilience,
	}
	if perturb != "" {
		p.Perturb = strings.Split(perturb, ",")
	}
	start := time.Now()
	checks, err := validate.Suite(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, c := range checks {
		fmt.Println(c)
	}
	failed := validate.Failed(checks)
	fmt.Fprintf(os.Stderr, "  (validate: %d checks, %d failed, in %.1fs)\n",
		len(checks), len(failed), time.Since(start).Seconds())
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// printCounters reports the harvest-event counters and the end-to-end
// latency histogram of every instrumented run, in run-name order. It writes
// to w — cmd wiring points that at stderr so table/JSON stdout stays clean.
func printCounters(w io.Writer, id string, tracers []*obs.SpanTracer) {
	sorted := append([]*obs.SpanTracer(nil), tracers...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Run() < sorted[j].Run() })
	fmt.Fprintf(w, "== %s: harvest-event counters ==\n", id)
	for _, t := range sorted {
		fmt.Fprintf(w, "%s\n  %s\n  latency %s\n", t.Run(), t.Counters(), t.Hist())
	}
	fmt.Fprintln(w)
}
