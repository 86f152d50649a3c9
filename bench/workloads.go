package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hardharvest/internal/scenario"
)

//go:embed workloads
var workloadFiles embed.FS

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"fleet-wide", "routed-failover", "dag-socialnet", "serve-live"}

// workload is one benchmark input, driven through its user path untraced
// and through the assembler traced.
type workload interface {
	// seed reports the workload file's own seed.
	seed() uint64
	// setup performs one set-up (parse, validate, build, start) and
	// discards it; the caller times it.
	setup(seed uint64) error
	// untraced runs the workload end to end through its user path.
	untraced(seed uint64) (*outcome, error)
	// traced rebuilds the workload from the layers' constructors and runs it
	// with every member's advance timed into tr.
	traced(seed uint64, tr *tracer) (*outcome, error)
}

// outcome is what one run produced: its host time, its simulated work, and
// what the correctness checks compare.
type outcome struct {
	wall    time.Duration      // host time of the run's user path
	reqs    uint64             // simulated requests completed (untraced runs)
	digest  string             // sha256 of the rendered summary (untraced runs)
	lines   []string           // per-server result/counters lines and the front's ledger
	failure string             // first failed oracle check or assertion; "" when all pass
	front   map[string]float64 // traced runs: the router's and dispatcher's work ratios
	live    *liveStats         // serve-live untraced runs
}

// lookup returns the named workload; shards is the shard-group worker count
// and durationMS, when positive, shortens the run (tests only).
func lookup(name string, shards, durationMS int) (workload, error) {
	for _, n := range workloadNames {
		if n != name {
			continue
		}
		if name == "serve-live" {
			return newServeWorkload(shards, durationMS)
		}
		src, err := workloadFiles.ReadFile("workloads/" + name + ".yaml")
		if err != nil {
			return nil, err
		}
		w := &scenarioWorkload{src: src, shards: shards, durationMS: durationMS}
		sc, err := w.load(0)
		if err != nil {
			return nil, err
		}
		w.fileSeed = sc.Seed
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// pinnedDigests reads the summary digests pinned at each workload's own seed.
func pinnedDigests() (map[string]string, error) {
	data, err := workloadFiles.ReadFile("workloads/digests.json")
	if err != nil {
		return nil, err
	}
	pins := map[string]string{}
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

func digest(summary string) string {
	sum := sha256.Sum256([]byte(summary))
	return hex.EncodeToString(sum[:])
}

// summaryLines keeps the summary lines that start with one of the prefixes.
func summaryLines(summary string, prefixes ...string) []string {
	var out []string
	for _, l := range strings.Split(summary, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(l, p) {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// scenarioWorkload is a scenario file run with scenario.RunShards.
type scenarioWorkload struct {
	src        []byte
	shards     int
	durationMS int
	fileSeed   uint64
}

func (w *scenarioWorkload) seed() uint64 { return w.fileSeed }

// load parses and validates the scenario (scenario.Load minus the file
// read: the workload files are embedded) and applies the run's seed.
func (w *scenarioWorkload) load(seed uint64) (*scenario.Scenario, error) {
	sc, err := scenario.Parse(w.src, false, "")
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		sc.Seed = seed
	}
	if w.durationMS > 0 {
		sc.DurationMS = w.durationMS
	}
	return sc, nil
}

func (w *scenarioWorkload) setup(seed uint64) error {
	sc, err := w.load(seed)
	if err != nil {
		return err
	}
	_, err = assembleScenario(sc, w.shards, nil)
	return err
}

// untraced times the user path from parse to rendered summary.
func (w *scenarioWorkload) untraced(seed uint64) (*outcome, error) {
	start := time.Now()
	sc, err := w.load(seed)
	if err != nil {
		return nil, err
	}
	rep, err := sc.RunShards(w.shards)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		wall:   time.Since(start),
		digest: digest(rep.Summary),
		lines:  append(summaryLines(rep.Summary, "  result: ", "  counters: "), ledger(rep.Fleet, rep.Graph)),
	}
	switch {
	case rep.Fleet != nil:
		out.reqs = rep.Fleet.Completions
	case rep.Graph != nil:
		out.reqs = rep.Graph.Completed
	default:
		for _, l := range summaryLines(rep.Summary, "  counters: ") {
			out.reqs += counterField(l, "completions")
		}
	}
	if !rep.OK() {
		out.failure = "scenario report not OK: " + strings.Join(summaryLines(rep.Summary, "oracle: ", "result: "), "; ")
	}
	return out, nil
}

// counterField reads "name=N" from a counters line that obs rendered
// (0 when absent).
func counterField(line, name string) uint64 {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, name+"="); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// traced times the same run rebuilt by the assembler, phase by phase.
func (w *scenarioWorkload) traced(seed uint64, tr *tracer) (*outcome, error) {
	start := time.Now()
	end := tr.begin("scenario.load")
	sc, err := w.load(seed)
	end()
	if err != nil {
		return nil, err
	}
	f, err := assembleScenario(sc, w.shards, tr)
	if err != nil {
		return nil, err
	}
	f.run(tr)
	if err := f.finish(tr); err != nil {
		return nil, err
	}
	failure := f.oracle(tr)
	return &outcome{
		wall:    time.Since(start),
		lines:   append(f.serverLines(), ledger(f.routeRes, f.graphRes)),
		failure: failure,
		front:   f.frontMetrics(),
	}, nil
}
