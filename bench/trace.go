package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"hardharvest/internal/cluster"
	"hardharvest/internal/sim"
)

// The traced pass attributes host time to layers from outside the program.
// Every shard-group member's advance function is wrapped with a timer that
// appends one record per call to the member's own slice. A member never
// advances concurrently with itself and the group's window barriers order
// its calls, so the records need no lock. A call whose engine
// has no event at or below the window cap cannot fire anything and does O(1)
// work; it is counted but not timed, so its cost lands in the coordinator's
// self time (on dag-socialnet two calls in three are such idle calls, and
// timing them cost more than the work they do). Whole-phase spans (load,
// build, run, finish, oracle) are recorded around the calls into each layer.
// Everything stays in memory until the pass has ended.

// call is one timed advance of one member.
type call struct {
	start, end int64    // host ns since the tracer's origin
	to         sim.Time // the window cap the member advanced to
	fired      uint64   // engine events the call executed
}

// member is one traced shard-group member. It holds the open call's start
// so the wrapper closures keep no locals: a wrapper's stack frame must stay
// small, or the deep server call path it wraps overflows the initial stack
// of the shard group's per-window worker goroutines, and every window would
// pay a stack copy the untraced run does not.
type member struct {
	layer string // cluster | route | graph
	name  string
	t     *tracer
	eng   *sim.Engine
	calls []call
	idle  int  // untimed calls that could fire nothing
	open  call // the call in progress; start < 0 marks an idle one
}

//go:noinline
func (m *member) begin(to sim.Time) {
	if next, ok := m.eng.NextEventTime(); !ok || next > to {
		m.open.start = -1
		return
	}
	m.open.fired = m.eng.Fired()
	m.open.start = m.t.now()
}

//go:noinline
func (m *member) end(to sim.Time) {
	if m.open.start < 0 {
		m.idle++
		return
	}
	c := m.open
	c.end, c.to, c.fired = m.t.now(), to, m.eng.Fired()-c.fired
	m.calls = append(m.calls, c)
}

// span is one whole-phase interval.
type span struct {
	name       string
	start, end int64
}

// tracer collects one traced pass. A nil *tracer records nothing, so the
// assembly code runs unchanged with tracing off.
type tracer struct {
	origin  time.Time
	phases  []span
	members []*member
	horizon sim.Time // simulated end of the pass (picks the exported slice)
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a phase span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	start := t.now()
	return func() { t.phases = append(t.phases, span{name, start, t.now()}) }
}

// wrap times advance into a new member.
func (t *tracer) wrap(layer, name string, eng *sim.Engine, advance func(sim.Time)) func(sim.Time) {
	if t == nil {
		return advance
	}
	m := t.member(layer, name, eng)
	return func(to sim.Time) {
		m.begin(to)
		advance(to)
		m.end(to)
	}
}

// wrapServer is wrap for a server member, with the step inlined so the
// traced call path is no deeper than the untraced one. StepTo clamps to the
// server's horizon itself.
func (t *tracer) wrapServer(name string, srv *cluster.Server) func(sim.Time) {
	if t == nil {
		return func(to sim.Time) { srv.StepTo(to) }
	}
	m := t.member("cluster", name, srv.Engine())
	return func(to sim.Time) {
		m.begin(to)
		srv.StepTo(to)
		m.end(to)
	}
}

func (t *tracer) member(layer, name string, eng *sim.Engine) *member {
	m := &member{layer: layer, name: name, t: t, eng: eng}
	t.members = append(t.members, m)
	return m
}

// phase reports the total host time of every span with the given name.
func (t *tracer) phase(name string) time.Duration {
	var d int64
	for _, p := range t.phases {
		if p.name == name {
			d += p.end - p.start
		}
	}
	return time.Duration(d)
}

// layerTotals is one layer's aggregate over all of its members' calls.
type layerTotals struct {
	busy  time.Duration
	fired uint64
	calls int
	idle  int // calls that executed no event
}

// covered reports the total length of the union of intervals, which it
// sorts in place.
func covered(iv [][2]int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curStart, curEnd, open = x[0], x[1], true
		case x[0] > curEnd:
			total += curEnd - curStart
			curStart, curEnd = x[0], x[1]
		case x[1] > curEnd:
			curEnd = x[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// layerMetrics attributes the pass's host time to layers. The shard
// coordinator's self time is the part of the run phase that no timed advance
// covers: message delivery, floor computation, handing windows to worker
// goroutines, and calling members that have nothing to do.
func (t *tracer) layerMetrics() map[string]float64 {
	layers := map[string]*layerTotals{"cluster": {}, "route": {}, "graph": {}}
	var intervals [][2]int64
	windows := 0
	for _, m := range t.members {
		lt := layers[m.layer]
		for _, c := range m.calls {
			lt.busy += time.Duration(c.end - c.start)
			lt.fired += c.fired
			if c.fired == 0 {
				lt.idle++
			}
			intervals = append(intervals, [2]int64{c.start, c.end})
		}
		lt.calls += len(m.calls) + m.idle
		lt.idle += m.idle
		windows = max(windows, len(m.calls)+m.idle)
	}
	run := t.phase("shard.run")
	self := run - covered(intervals)
	cl := layers["cluster"]
	busy := cl.busy + layers["route"].busy + layers["graph"].busy
	out := map[string]float64{
		"scenario.load_ms":          ms(t.phase("scenario.load")),
		"cluster.build_ms":          ms(t.phase("cluster.build")),
		"cluster.busy_s":            cl.busy.Seconds(),
		"cluster.events":            float64(cl.fired),
		"cluster.ns_per_event":      ratio(float64(cl.busy.Nanoseconds()), float64(cl.fired)),
		"cluster.advance_calls":     float64(cl.calls),
		"cluster.idle_advance_frac": ratio(float64(cl.idle), float64(cl.calls)),
		"cluster.finish_ms":         ms(t.phase("cluster.finish")),
		"shard.run_s":               run.Seconds(),
		"shard.windows":             float64(windows),
		"shard.self_s":              self.Seconds(),
		"shard.self_frac":           ratio(self.Seconds(), run.Seconds()),
		"shard.parallelism":         ratio(busy.Seconds(), run.Seconds()),
		"validate.oracle_ms":        ms(t.phase("oracle")),
	}
	for _, name := range []string{"route", "graph"} {
		lt := layers[name]
		out[name+".busy_frac"] = ratio(lt.busy.Seconds(), run.Seconds())
		out[name+".events"] = float64(lt.fired)
		out[name+".advance_calls"] = float64(lt.calls)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chromeEvent is one Chrome trace-event record (Perfetto loads the format).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // host microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceSlice is the simulated time the exported advance spans cover: 20 ms
// in the middle of the run.
const traceSlice = 20 * sim.Millisecond

// writeChrome exports the pass as Chrome trace JSON: every phase span on
// thread 0, and on one thread per member the timed advance calls whose
// simulated interval overlaps the mid-run slice.
func (t *tracer) writeChrome(w io.Writer) error {
	from := t.horizon/2 - sim.Time(traceSlice/2)
	to := from.Add(traceSlice)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	events := []chromeEvent{{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "phases"}}}
	for _, p := range t.phases {
		events = append(events, chromeEvent{Name: p.name, Cat: "phase", Ph: "X",
			TS: us(p.start), Dur: us(p.end - p.start), PID: 1, TID: 0})
	}
	for i, m := range t.members {
		tid := i + 1
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": m.layer + " " + m.name}})
		prev := sim.Time(-1)
		for _, c := range m.calls {
			if c.to > from && prev < to {
				events = append(events, chromeEvent{Name: "advance", Cat: m.layer, Ph: "X",
					TS: us(c.start), Dur: us(c.end - c.start), PID: 1, TID: tid,
					Args: map[string]any{"to_us": float64(c.to) / float64(sim.Microsecond), "events": c.fired}})
			}
			prev = c.to
		}
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
