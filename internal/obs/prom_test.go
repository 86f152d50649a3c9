package obs

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"hardharvest/internal/sim"
)

// fullCounters returns a Counters value with every field set to a distinct
// nonzero value, so name/field mix-ups cannot cancel out.
func fullCounters() Counters {
	return Counters{
		Arrivals: 1, Enqueues: 2, Dispatches: 3, Loans: 4, LendMoves: 5,
		Reclaims: 6, Preempts: 7, Flushes: 8, Aborts: 9, Pins: 10,
		Blocks: 11, Unblocks: 12, Completions: 13, JobsDone: 14,
		FaultsInjected: 15, Sheds: 16, Retries: 17, Hedges: 18,
		HedgesWon: 19, DeadlineMisses: 20,
	}
}

func TestCounterDefsCoverEveryField(t *testing.T) {
	defs := CounterDefs()
	if len(defs) != 20 {
		t.Fatalf("def table has %d entries, Counters has 20 fields", len(defs))
	}
	c := fullCounters()
	seen := map[uint64]string{}
	sum := uint64(0)
	for _, d := range defs {
		v := d.Get(&c)
		if v == 0 {
			t.Fatalf("def %q reads zero from a fully populated Counters (wrong field?)", d.Name)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("defs %q and %q read the same field", prev, d.Name)
		}
		seen[v] = d.Name
		sum += v
	}
	if sum != 20*21/2 {
		t.Fatalf("defs read values summing to %d, want 210 (1..20 exactly once)", sum)
	}
	for _, d := range defs {
		if d.Name == "" || d.Label == "" || d.Help == "" {
			t.Fatalf("def %+v has an empty name/label/help", d)
		}
		if strings.ContainsAny(d.Name, "- ") {
			t.Fatalf("def name %q is not snake_case", d.Name)
		}
	}
}

// TestCountersStringLegacyFormat pins the summary line byte-for-byte to the
// format that predates the def table: golden summaries across the repo
// depend on it.
func TestCountersStringLegacyFormat(t *testing.T) {
	c := fullCounters()
	want := fmt.Sprintf(
		"arrivals=%d completions=%d jobs=%d loans=%d reclaims=%d preempts=%d flushes=%d aborts=%d pins=%d blocks=%d",
		c.Arrivals, c.Completions, c.JobsDone, c.Loans, c.Reclaims,
		c.Preempts, c.Flushes, c.Aborts, c.Pins, c.Blocks) +
		fmt.Sprintf(
			" faults=%d sheds=%d retries=%d hedges=%d hedge-wins=%d deadline-misses=%d",
			c.FaultsInjected, c.Sheds, c.Retries, c.Hedges, c.HedgesWon, c.DeadlineMisses)
	if got := c.String(); got != want {
		t.Fatalf("String() drifted from the legacy format:\n got %q\nwant %q", got, want)
	}
	// Without robust counters the robustness section disappears entirely.
	c.FaultsInjected, c.Sheds, c.Retries, c.Hedges, c.HedgesWon, c.DeadlineMisses = 0, 0, 0, 0, 0, 0
	if got := c.String(); strings.Contains(got, "faults=") || strings.Contains(got, "sheds=") {
		t.Fatalf("robust section rendered for a fault-free run: %q", got)
	}
}

func TestPromWriterFormat(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Head("hhsim_events_total", "simulator transitions by kind", "counter")
	p.Uint("hhsim_events_total", 42, PromLabel{"kind", "arrivals"})
	p.Float("hhsim_sim_time_seconds", 1.5)
	p.Uint("hhsim_weird", 1, PromLabel{"v", "a\\b\"c\nd"})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP hhsim_events_total simulator transitions by kind\n" +
		"# TYPE hhsim_events_total counter\n" +
		`hhsim_events_total{kind="arrivals"} 42` + "\n" +
		"hhsim_sim_time_seconds 1.5\n" +
		`hhsim_weird{v="a\\b\"c\nd"} 1` + "\n"
	if b.String() != want {
		t.Fatalf("exposition output:\n got %q\nwant %q", b.String(), want)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := NewLatencyHist()
	h.Record(5 * sim.Microsecond)
	h.Record(5 * sim.Microsecond)
	h.Record(2 * sim.Millisecond)
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Histogram("hhsim_latency_seconds", "request latency", h,
		[]sim.Duration{10 * sim.Microsecond, 1 * sim.Millisecond, 1 * sim.Second})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# TYPE hhsim_latency_seconds histogram",
		`hhsim_latency_seconds_bucket{le="1e-05"} 2`,
		`hhsim_latency_seconds_bucket{le="0.001"} 2`,
		`hhsim_latency_seconds_bucket{le="1"} 3`,
		`hhsim_latency_seconds_bucket{le="+Inf"} 3`,
		"hhsim_latency_seconds_count 3",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("histogram exposition missing %q:\n%s", line, out)
		}
	}
	// _sum is the exact seconds total: 2*5µs + 2ms.
	if !strings.Contains(out, "hhsim_latency_seconds_sum 0.00201\n") {
		t.Fatalf("histogram _sum wrong:\n%s", out)
	}
}

// TestPromWriterLabelledHistogram: extra labels precede le on every bucket
// and label _sum and _count too.
func TestPromWriterLabelledHistogram(t *testing.T) {
	h := NewLatencyHist()
	h.Record(5 * sim.Microsecond)
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Histogram("lat_seconds", "latency", h, []sim.Duration{10 * sim.Microsecond},
		PromLabel{"svc", `q"t`}, PromLabel{"vm", "1"})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP lat_seconds latency\n" +
		"# TYPE lat_seconds histogram\n" +
		`lat_seconds_bucket{svc="q\"t",vm="1",le="1e-05"} 1` + "\n" +
		`lat_seconds_bucket{svc="q\"t",vm="1",le="+Inf"} 1` + "\n" +
		`lat_seconds_sum{svc="q\"t",vm="1"} 5e-06` + "\n" +
		`lat_seconds_count{svc="q\"t",vm="1"} 1` + "\n"
	if b.String() != want {
		t.Fatalf("labelled histogram:\n got %q\nwant %q", b.String(), want)
	}
}

// TestPromWriterSamplesAllocFree: once its scratch has grown, the writer
// renders heads and labelled samples (escaped values included) without
// allocating.
func TestPromWriterSamplesAllocFree(t *testing.T) {
	p := NewPromWriter(io.Discard)
	render := func() {
		p.Head("hhsim_events_total", "simulator transitions by kind", "counter")
		p.Uint("hhsim_events_total", 1<<40, PromLabel{"kind", "arrivals"}, PromLabel{"vm", "a\\b\"c\nd"})
		p.Float("hhsim_sim_time_seconds", 0.123456789, PromLabel{"quantile", "0.99"})
	}
	render()
	if n := testing.AllocsPerRun(100, render); n != 0 {
		t.Fatalf("rendering samples allocates %v per run, want 0", n)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestMeterBoundedAndCounting(t *testing.T) {
	m := NewMeter()
	m.SetTopology(Topology{Run: "X"})
	m.Observe(Event{Kind: KindArrival})
	m.Observe(Event{Kind: KindComplete, Dur: 3 * sim.Microsecond})
	m.Observe(Event{Kind: KindComplete, IsJob: true, Dur: sim.Duration(9 * sim.Second)})
	c := m.Counters()
	if c.Arrivals != 1 || c.Completions != 1 || c.JobsDone != 1 {
		t.Fatalf("meter counters: %+v", c)
	}
	// Job completions never pollute the request-latency histogram.
	if m.Hist().Count() != 1 || m.Hist().Max() != 3*sim.Microsecond {
		t.Fatalf("meter hist: n=%d max=%v", m.Hist().Count(), m.Hist().Max())
	}
	if m.Topology().Run != "X" {
		t.Fatalf("meter topology lost")
	}
}

// TestCountersAddCoversEveryField pins Counters.Add against reflection:
// every uint64 field must be summed, so adding a counter field without
// extending Add fails here instead of silently undercounting fleet
// aggregates.
func TestCountersAddCoversEveryField(t *testing.T) {
	a, b := fullCounters(), fullCounters()
	a.Add(&b)
	av := reflect.ValueOf(a)
	bv := reflect.ValueOf(fullCounters())
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		got, orig := av.Field(i).Uint(), bv.Field(i).Uint()
		if got != 2*orig {
			t.Errorf("Add missed field %s: got %d, want %d", name, got, 2*orig)
		}
	}
}
