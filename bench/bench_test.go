package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hardharvest/internal/scenario"
)

// shortMS shortens each workload's measured window so the whole suite runs
// in seconds; routed-failover keeps its crash and recovery inside the run.
var shortMS = map[string]int{
	"fleet-wide":      30,
	"routed-failover": 250,
	"dag-socialnet":   200,
	"serve-live":      60,
}

func shortWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookup(name, 2, shortMS[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return w
}

func TestWorkloadsLoad(t *testing.T) {
	pins, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := lookup(name, 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.seed() == 0 {
			t.Errorf("%s: workload file has no seed", name)
		}
		if len(pins[name]) != 64 {
			t.Errorf("%s: no pinned summary digest", name)
		}
	}
	if _, err := lookup("nope", 2, 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestTracedReproducesUntraced runs every workload through its user path and
// through the assembler, and requires identical result/counters lines and
// front ledgers, passing oracles, and a deterministic summary.
func TestTracedReproducesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := shortWorkload(t, name)
			c := &checker{}
			for i := 0; i < 2; i++ {
				out, err := w.untraced(w.seed())
				if !c.untraced(out, err) {
					t.Fatal(c.failures)
				}
			}
			tr := newTracer()
			out, err := w.traced(w.seed(), tr)
			if !c.traced(out, err) {
				t.Fatal(c.failures)
			}
			if len(c.lines) < 2 {
				t.Fatalf("only %d result lines compared", len(c.lines))
			}
			m := tr.layerMetrics()
			if m["cluster.events"] == 0 || m["shard.run_s"] <= 0 || m["cluster.build_ms"] <= 0 {
				t.Errorf("layer metrics not measured: %v", m)
			}
		})
	}
}

// TestCheckerCatchesDivergence proves the reproduction check has teeth: one
// changed counter in a traced pass fails the run.
func TestCheckerCatchesDivergence(t *testing.T) {
	c := &checker{}
	c.untraced(&outcome{digest: "d", lines: []string{"  result: a", "  counters: completions=5"}}, nil)
	if c.traced(&outcome{lines: []string{"  result: a", "  counters: completions=6"}}, nil) {
		t.Fatal("diverging traced pass accepted")
	}
	if c.untraced(&outcome{digest: "e", lines: c.lines}, nil) {
		t.Fatal("changed summary digest accepted")
	}
	pinned := &checker{pin: "p"}
	if pinned.untraced(&outcome{digest: "d"}, nil) {
		t.Fatal("digest differing from the pin accepted")
	}
}

func TestAssemblerRejectsUnsupportedBlocks(t *testing.T) {
	const fleet = `
fleet:
  - group: a
    count: 2
`
	for name, doc := range map[string]string{
		"timeline": `name: x
duration_ms: 100
workload:
  - at_ms: 10
    kind: intensity
    intensity: 1.5
` + fleet,
		"generation": `name: x
duration_ms: 100
fleet:
  - group: a
    generation: gen1
`,
		"drain": `name: x
duration_ms: 100
routing:
  policy: round_robin
events:
  - at_ms: 10
    kind: drain
    server: 0
    deadline_ms: 5
` + fleet,
	} {
		sc, err := scenario.Parse([]byte(doc), false, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := assembleScenario(sc, 1, nil); err == nil {
			t.Errorf("%s: assembler accepted an unsupported block", name)
		}
	}
}

func TestCoveredUnionsOverlappingIntervals(t *testing.T) {
	iv := [][2]int64{{20, 30}, {0, 10}, {5, 15}, {25, 26}, {40, 40}, {15, 17}}
	// [0,17] + [20,30] + [40,40] = 17 + 10 + 0.
	if got := covered(iv); got != 27 {
		t.Fatalf("covered = %d, want 27", got)
	}
	if got := covered(nil); got != 0 {
		t.Fatalf("covered(nil) = %d", got)
	}

	// Self time is the run phase minus the union of every member's timed calls.
	tr := &tracer{phases: []span{{"shard.run", 0, 100}}}
	a := &member{layer: "cluster", calls: []call{{start: 10, end: 40, fired: 3}, {start: 50, end: 60, fired: 2}}, idle: 2}
	b := &member{layer: "route", calls: []call{{start: 30, end: 55, fired: 1}}}
	tr.members = []*member{a, b}
	m := tr.layerMetrics()
	if got, want := m["shard.self_s"], 50e-9; got != want {
		t.Errorf("shard.self_s = %g, want %g", got, want)
	}
	if got := m["cluster.idle_advance_frac"]; got != 0.5 {
		t.Errorf("cluster.idle_advance_frac = %g, want 0.5", got)
	}
	if got := m["shard.windows"]; got != 4 {
		t.Errorf("shard.windows = %g, want 4", got)
	}
	if got, want := m["shard.parallelism"], 65.0/100; got != want {
		t.Errorf("shard.parallelism = %g, want %g", got, want)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("summarize = %+v", s)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if s := summarize([]float64{1, 2}); s.Q1 != 0.75 || s.Q3 != 2.25 {
		t.Fatalf("two samples: %+v", s)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryBenchmarkMetricIsEmitted checks BENCHMARK.json against the
// program: every metric it names is printed, with its unit, by a run of the
// matching mode.
func TestEveryBenchmarkMetricIsEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		want  []struct{ Name, Unit string }
		defs  []metricDef
		trace bool
	}{{"end_to_end", spec.EndToEnd, endToEnd, false}, {"per_layer", spec.PerLayer, perLayer, true}} {
		w := shortWorkload(t, "serve-live")
		var r *result
		if mode.trace {
			r = measureLayers(w, w.seed(), "", time.Millisecond)
		} else {
			r = measureEndToEnd(w, w.seed(), "", time.Millisecond)
		}
		var out bytes.Buffer
		if code := printResult(&out, os.Stderr, "serve-live", w.seed(), 2, mode.defs, r); code != 0 {
			t.Fatalf("%s: exit %d", mode.name, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var doc struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
			t.Fatal(err)
		}
		if !doc.Correct || doc.Attempted < 1 {
			t.Fatalf("%s: run not correct: %v", mode.name, r.check.failures)
		}
		if len(doc.Metrics) != len(mode.want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", mode.name, len(doc.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := doc.Metrics[m.Name]
			switch {
			case !metricName.MatchString(m.Name):
				t.Errorf("%s: bad metric name %q", mode.name, m.Name)
			case !ok:
				t.Errorf("%s: %s not printed", mode.name, m.Name)
			case got.Unit == "" || got.Unit != m.Unit:
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", mode.name, m.Name, got.Unit, m.Unit)
			}
		}
	}
}
