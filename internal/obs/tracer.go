package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hardharvest/internal/sim"
)

// lifecycleTid is the per-VM virtual thread carrying request-level events
// that have no core (arrival/enqueue/block/pin); physical cores use their
// core id as tid, and the server has at most a few dozen cores.
const lifecycleTid = 1000

// Counters aggregates the harvest-event counts of one traced run.
type Counters struct {
	Arrivals    uint64 // primary invocations entering the system
	Enqueues    uint64 // ready-queue insertions (jobs included)
	Dispatches  uint64 // core pickups
	Loans       uint64 // cross-VM dispatches (hw) + hypervisor lends (sw)
	LendMoves   uint64 // software hypervisor lend operations
	Reclaims    uint64 // hardware preempts + software reclaim operations
	Preempts    uint64 // hardware reclamation interrupts served
	Flushes     uint64 // cache/TLB flushes (critical-path and move-time)
	Aborts      uint64 // harvest jobs kicked off a core and re-queued
	Pins        uint64 // arrivals/resumes parked on unbacked vCPUs
	Blocks      uint64 // I/O blocking calls
	Unblocks    uint64 // I/O completions re-queued
	Completions uint64 // primary invocations finished
	JobsDone    uint64 // harvest batch jobs finished

	// Robustness counters (zero unless faults or resilience policies run).
	FaultsInjected uint64 // injected fault events fired
	Sheds          uint64 // attempts rejected by queue-depth load shedding
	Retries        uint64 // retry attempts launched
	Hedges         uint64 // hedged duplicate attempts launched
	HedgesWon      uint64 // calls resolved by a hedge attempt
	DeadlineMisses uint64 // calls that exhausted their timeout/retry budget
}

// CounterDef describes one Counters field. It is the single source of truth
// for counter naming: Name is the stable snake_case identifier used by
// machine-facing exports (Prometheus label values — renaming one is a
// breaking change to scrapers), Label is the short display form used by
// Counters.String, and Get reads the field. Robust marks the robustness
// group, which the summary line renders only when one of its members is
// nonzero; Summary marks membership in the one-line summary at all
// (enqueues/dispatches/lend-moves/unblocks are export-only).
type CounterDef struct {
	Name    string
	Label   string
	Help    string
	Robust  bool
	Summary bool
	Get     func(*Counters) uint64
}

// counterDefs lists every counter in render order: the summary group first
// (in Counters.String order), then the export-only counters, then the
// robustness group (in its String order).
var counterDefs = []CounterDef{
	{Name: "arrivals", Label: "arrivals", Help: "primary invocations entering the system", Summary: true, Get: func(c *Counters) uint64 { return c.Arrivals }},
	{Name: "completions", Label: "completions", Help: "primary invocations finished", Summary: true, Get: func(c *Counters) uint64 { return c.Completions }},
	{Name: "jobs_done", Label: "jobs", Help: "harvest batch jobs finished", Summary: true, Get: func(c *Counters) uint64 { return c.JobsDone }},
	{Name: "loans", Label: "loans", Help: "cross-VM dispatches (hw) plus hypervisor lends (sw)", Summary: true, Get: func(c *Counters) uint64 { return c.Loans }},
	{Name: "reclaims", Label: "reclaims", Help: "hardware preempts plus software reclaim operations", Summary: true, Get: func(c *Counters) uint64 { return c.Reclaims }},
	{Name: "preempts", Label: "preempts", Help: "hardware reclamation interrupts served", Summary: true, Get: func(c *Counters) uint64 { return c.Preempts }},
	{Name: "flushes", Label: "flushes", Help: "cache/TLB flushes (critical-path and move-time)", Summary: true, Get: func(c *Counters) uint64 { return c.Flushes }},
	{Name: "aborts", Label: "aborts", Help: "harvest jobs kicked off a core and re-queued", Summary: true, Get: func(c *Counters) uint64 { return c.Aborts }},
	{Name: "pins", Label: "pins", Help: "arrivals/resumes parked on unbacked vCPUs", Summary: true, Get: func(c *Counters) uint64 { return c.Pins }},
	{Name: "blocks", Label: "blocks", Help: "I/O blocking calls", Summary: true, Get: func(c *Counters) uint64 { return c.Blocks }},
	{Name: "enqueues", Label: "enqueues", Help: "ready-queue insertions (jobs included)", Get: func(c *Counters) uint64 { return c.Enqueues }},
	{Name: "dispatches", Label: "dispatches", Help: "core pickups", Get: func(c *Counters) uint64 { return c.Dispatches }},
	{Name: "lend_moves", Label: "lend-moves", Help: "software hypervisor lend operations", Get: func(c *Counters) uint64 { return c.LendMoves }},
	{Name: "unblocks", Label: "unblocks", Help: "I/O completions re-queued", Get: func(c *Counters) uint64 { return c.Unblocks }},
	{Name: "faults_injected", Label: "faults", Help: "injected fault events fired", Robust: true, Summary: true, Get: func(c *Counters) uint64 { return c.FaultsInjected }},
	{Name: "sheds", Label: "sheds", Help: "attempts rejected by queue-depth load shedding", Robust: true, Summary: true, Get: func(c *Counters) uint64 { return c.Sheds }},
	{Name: "retries", Label: "retries", Help: "retry attempts launched", Robust: true, Summary: true, Get: func(c *Counters) uint64 { return c.Retries }},
	{Name: "hedges", Label: "hedges", Help: "hedged duplicate attempts launched", Robust: true, Summary: true, Get: func(c *Counters) uint64 { return c.Hedges }},
	{Name: "hedges_won", Label: "hedge-wins", Help: "calls resolved by a hedge attempt", Robust: true, Summary: true, Get: func(c *Counters) uint64 { return c.HedgesWon }},
	{Name: "deadline_misses", Label: "deadline-misses", Help: "calls that exhausted their timeout/retry budget", Robust: true, Summary: true, Get: func(c *Counters) uint64 { return c.DeadlineMisses }},
}

// CounterDefs returns the counter definition table (a copy; the underlying
// defs are immutable program data).
func CounterDefs() []CounterDef {
	return append([]CounterDef(nil), counterDefs...)
}

// Add folds another counter set into this one (fleet aggregation for the
// routed serve endpoints). A reflection test pins that every Counters field
// is summed — adding a field without extending Add is a build-time-visible
// test failure, not a silent undercount.
func (c *Counters) Add(o *Counters) {
	c.Arrivals += o.Arrivals
	c.Enqueues += o.Enqueues
	c.Dispatches += o.Dispatches
	c.Loans += o.Loans
	c.LendMoves += o.LendMoves
	c.Reclaims += o.Reclaims
	c.Preempts += o.Preempts
	c.Flushes += o.Flushes
	c.Aborts += o.Aborts
	c.Pins += o.Pins
	c.Blocks += o.Blocks
	c.Unblocks += o.Unblocks
	c.Completions += o.Completions
	c.JobsDone += o.JobsDone
	c.FaultsInjected += o.FaultsInjected
	c.Sheds += o.Sheds
	c.Retries += o.Retries
	c.Hedges += o.Hedges
	c.HedgesWon += o.HedgesWon
	c.DeadlineMisses += o.DeadlineMisses
}

// countedKinds holds the kinds Count reads; every other kind leaves the
// counters unchanged.
var countedKinds = KindSetOf(KindArrival, KindEnqueue, KindDispatch,
	KindFlushStart, KindBlock, KindUnblock, KindComplete, KindPreempt,
	KindAbort, KindPin, KindLendStart, KindReclaimStart, KindFault, KindShed,
	KindRetry, KindHedge, KindHedgeWin, KindDeadlineMiss)

// Count folds one event into the counters. It is the single place event
// kinds map to counter fields; SpanTracer and Audit both delegate here so
// their counts can never disagree. It reads only countedKinds.
func (c *Counters) Count(ev Event) {
	switch ev.Kind {
	case KindArrival:
		c.Arrivals++
	case KindEnqueue:
		c.Enqueues++
	case KindDispatch:
		c.Dispatches++
		if ev.CrossVM {
			c.Loans++
		}
	case KindFlushStart:
		c.Flushes++
	case KindBlock:
		c.Blocks++
	case KindUnblock:
		c.Unblocks++
	case KindComplete:
		if ev.IsJob {
			c.JobsDone++
		} else {
			c.Completions++
		}
	case KindPreempt:
		c.Preempts++
		c.Reclaims++
	case KindAbort:
		c.Aborts++
	case KindPin:
		c.Pins++
	case KindLendStart:
		c.LendMoves++
		c.Loans++
	case KindReclaimStart:
		c.Reclaims++
	case KindFault:
		c.FaultsInjected++
	case KindShed:
		c.Sheds++
	case KindRetry:
		c.Retries++
	case KindHedge:
		c.Hedges++
	case KindHedgeWin:
		c.HedgesWon++
	case KindDeadlineMiss:
		c.DeadlineMisses++
	}
}

// String renders the counters as one summary line, driven by the counter
// definition table so the display can never drift from the export names.
// The robustness section is appended only when any of its counters is
// nonzero, so fault-free runs render identically to builds that predate
// fault injection.
func (c Counters) String() string {
	var b strings.Builder
	for _, d := range counterDefs {
		if !d.Summary || d.Robust {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", d.Label, d.Get(&c))
	}
	robust := false
	for _, d := range counterDefs {
		if d.Robust && d.Get(&c) != 0 {
			robust = true
			break
		}
	}
	if robust {
		for _, d := range counterDefs {
			if d.Robust {
				fmt.Fprintf(&b, " %s=%d", d.Label, d.Get(&c))
			}
		}
	}
	return b.String()
}

// SpanTracer records the full event stream of one server run and exports
// it as Chrome trace-event JSON (loadable in Perfetto or chrome://tracing):
// one "process" per VM, one "thread" per core, nested spans for dispatch
// overheads, flushes and CPU bursts, and async spans for request lifetimes
// and I/O waits. It also maintains harvest-event counters and a log-bucketed
// latency histogram of measured primary requests.
//
// A SpanTracer observes exactly one server run; it is not safe for
// concurrent use.
type SpanTracer struct {
	run     string
	pidBase int

	topo      Topology
	coreOwner map[int]int

	events []Event

	counters Counters
	hist     *LatencyHist

	// execByReq accumulates per-request executed burst time so the traced
	// total reconciles with metrics.Breakdown.Execution.
	execByReq    map[uint64]sim.Duration
	execMeasured sim.Duration
	// flushCritical sums critical-path flush waits (KindFlushStart durs).
	flushCritical sim.Duration
}

// NewSpanTracer returns a tracer for one run. pidBase offsets the VM
// process ids so several runs can share one trace file without colliding;
// use multiples of 64 (a server has at most a few dozen VMs).
func NewSpanTracer(run string, pidBase int) *SpanTracer {
	return &SpanTracer{
		run:       run,
		pidBase:   pidBase,
		coreOwner: make(map[int]int),
		hist:      NewLatencyHist(),
		execByReq: make(map[uint64]sim.Duration),
	}
}

// Run reports the run label the tracer was created with.
func (t *SpanTracer) Run() string { return t.run }

// SetTopology receives the server shape before the event stream starts.
func (t *SpanTracer) SetTopology(topo Topology) {
	t.topo = topo
	for _, vm := range topo.VMs {
		for _, c := range vm.Cores {
			t.coreOwner[c] = vm.Idx
		}
	}
}

// Observe implements Observer.
func (t *SpanTracer) Observe(ev Event) {
	t.events = append(t.events, ev)
	t.counters.Count(ev)
	switch ev.Kind {
	case KindFlushStart:
		t.flushCritical += ev.Dur
	case KindBurstEnd:
		if !ev.IsJob {
			t.execByReq[ev.Req] += ev.Dur
		}
	case KindComplete:
		if !ev.IsJob {
			if ev.Measured {
				t.execMeasured += t.execByReq[ev.Req]
				t.hist.Record(ev.Dur)
			}
			delete(t.execByReq, ev.Req)
		}
	}
}

// Counters reports the aggregated harvest-event counts.
func (t *SpanTracer) Counters() Counters { return t.counters }

// Hist reports the latency histogram of measured primary completions.
func (t *SpanTracer) Hist() *LatencyHist { return t.hist }

// ExecMeasured reports the total executed burst time of measured primary
// requests; it reconciles with metrics.Breakdown.Execution for the same run.
func (t *SpanTracer) ExecMeasured() sim.Duration { return t.execMeasured }

// FlushCritical reports the summed critical-path flush waits.
func (t *SpanTracer) FlushCritical() sim.Duration { return t.flushCritical }

// Events reports the number of recorded events.
func (t *SpanTracer) Events() int { return len(t.events) }

// traceEvent is one Chrome trace-event record. Field order (and json's
// sorted args keys) make the marshalled output deterministic.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// tsOf converts simulated time to trace microseconds.
func tsOf(tm sim.Time) float64 { return sim.Duration(tm).Microseconds() }

func (t *SpanTracer) pidOf(vm int) int { return t.pidBase + vm }

// pidOfCore places a core's thread under its owner VM's process; before a
// topology is known it falls back to the event's VM.
func (t *SpanTracer) pidOfCore(core, fallbackVM int) int {
	if owner, ok := t.coreOwner[core]; ok {
		return t.pidBase + owner
	}
	if fallbackVM >= 0 {
		return t.pidBase + fallbackVM
	}
	return t.pidBase
}

func reqID(req uint64) string { return fmt.Sprintf("0x%x", req) }

// appendTraceEvents renders the recorded stream into dst. Open spans
// (bursts still running or requests still in flight when the engine
// stopped) are closed at the last event timestamp so B/E pairs always
// balance.
func (t *SpanTracer) appendTraceEvents(dst []traceEvent) []traceEvent {
	// Metadata: process per VM, thread per core plus the lifecycle thread.
	for _, vm := range t.topo.VMs {
		role := "primary"
		if !vm.Primary {
			role = "harvest"
		}
		name := fmt.Sprintf("%s VM%d %s (%s)", t.run, vm.Idx, vm.Name, role)
		pid := t.pidOf(vm.Idx)
		dst = append(dst,
			traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}},
			traceEvent{Name: "process_sort_index", Ph: "M", Pid: pid, Args: map[string]any{"sort_index": t.pidBase + vm.Idx}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: lifecycleTid, Args: map[string]any{"name": "requests"}},
		)
		for _, c := range vm.Cores {
			dst = append(dst, traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: c,
				Args: map[string]any{"name": fmt.Sprintf("core %d", c)}})
		}
	}

	var last sim.Time
	openBurst := map[int]Event{} // core -> open KindBurstStart
	openReq := map[uint64]int{}  // in-flight request -> pid of its "b"
	openIO := map[uint64]int{}   // blocked request -> pid of its io "b"

	for _, ev := range t.events {
		if ev.Time > last {
			last = ev.Time
		}
		switch ev.Kind {
		case KindArrival:
			pid := t.pidOf(ev.VM)
			openReq[ev.Req] = pid
			dst = append(dst, traceEvent{Name: "request", Cat: "request", Ph: "b",
				Ts: tsOf(ev.Time), Pid: pid, Tid: lifecycleTid, ID: reqID(ev.Req),
				Args: map[string]any{"req": ev.Req, "measured": ev.Measured}})
		case KindEnqueue:
			dst = append(dst, traceEvent{Name: "enqueue", Ph: "i", Ts: tsOf(ev.Time),
				Pid: t.pidOf(ev.VM), Tid: lifecycleTid,
				Args: map[string]any{"req": ev.Req, "job": ev.IsJob}})
		case KindDispatch:
			name := "dispatch"
			if ev.CrossVM {
				name = "dispatch (loan)"
			}
			dst = append(dst, traceEvent{Name: name, Ph: "X", Ts: tsOf(ev.Time),
				Dur: ev.Dur.Microseconds(), Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"req": ev.Req, "cross_vm": ev.CrossVM}})
		case KindReassignStart:
			dst = append(dst, traceEvent{Name: "reassign", Ph: "X", Ts: tsOf(ev.Time),
				Dur: ev.Dur.Microseconds(), Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"req": ev.Req}})
		case KindFlushStart:
			dst = append(dst, traceEvent{Name: "flush", Ph: "X", Ts: tsOf(ev.Time),
				Dur: ev.Dur.Microseconds(), Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"req": ev.Req}})
		case KindBurstStart:
			name := "exec"
			if ev.IsJob {
				name = "exec (job)"
			}
			openBurst[ev.Core] = ev
			dst = append(dst, traceEvent{Name: name, Ph: "B", Ts: tsOf(ev.Time),
				Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"req": ev.Req, "vm": ev.VM}})
		case KindBurstEnd:
			if open, ok := openBurst[ev.Core]; ok && open.Req == ev.Req {
				delete(openBurst, ev.Core)
				dst = append(dst, traceEvent{Ph: "E", Ts: tsOf(ev.Time),
					Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core})
			}
		case KindAbort:
			if open, ok := openBurst[ev.Core]; ok && open.Req == ev.Req {
				delete(openBurst, ev.Core)
				dst = append(dst, traceEvent{Ph: "E", Ts: tsOf(ev.Time),
					Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core})
			}
			dst = append(dst, traceEvent{Name: "abort", Ph: "i", Ts: tsOf(ev.Time),
				Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"req": ev.Req}})
		case KindBlock:
			pid := t.pidOf(ev.VM)
			openIO[ev.Req] = pid
			dst = append(dst, traceEvent{Name: "io", Cat: "io", Ph: "b",
				Ts: tsOf(ev.Time), Pid: pid, Tid: lifecycleTid, ID: reqID(ev.Req),
				Args: map[string]any{"req": ev.Req}})
		case KindUnblock:
			if pid, ok := openIO[ev.Req]; ok {
				delete(openIO, ev.Req)
				dst = append(dst, traceEvent{Name: "io", Cat: "io", Ph: "e",
					Ts: tsOf(ev.Time), Pid: pid, Tid: lifecycleTid, ID: reqID(ev.Req)})
			}
		case KindComplete:
			if pid, ok := openReq[ev.Req]; ok {
				delete(openReq, ev.Req)
				dst = append(dst, traceEvent{Name: "request", Cat: "request", Ph: "e",
					Ts: tsOf(ev.Time), Pid: pid, Tid: lifecycleTid, ID: reqID(ev.Req),
					Args: map[string]any{"latency_us": ev.Dur.Microseconds()}})
			}
		case KindPreempt:
			dst = append(dst, traceEvent{Name: "preempt", Ph: "i", Ts: tsOf(ev.Time),
				Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"req": ev.Req}})
		case KindPin:
			dst = append(dst, traceEvent{Name: "pin", Ph: "i", Ts: tsOf(ev.Time),
				Pid: t.pidOf(ev.VM), Tid: lifecycleTid,
				Args: map[string]any{"req": ev.Req}})
		case KindUnpin:
			dst = append(dst, traceEvent{Name: "unpin", Ph: "i", Ts: tsOf(ev.Time),
				Pid: t.pidOf(ev.VM), Tid: lifecycleTid,
				Args: map[string]any{"req": ev.Req, "wait_us": ev.Dur.Microseconds()}})
		case KindLendStart:
			dst = append(dst, traceEvent{Name: "lend", Ph: "X", Ts: tsOf(ev.Time),
				Dur: ev.Dur.Microseconds(), Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"to": "harvest"}})
		case KindReclaimStart:
			dst = append(dst, traceEvent{Name: "reclaim", Ph: "X", Ts: tsOf(ev.Time),
				Dur: ev.Dur.Microseconds(), Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
				Args: map[string]any{"vm": ev.VM}})
		case KindFault:
			if ev.Core >= 0 {
				dst = append(dst, traceEvent{Name: "fault", Cat: "fault", Ph: "X",
					Ts: tsOf(ev.Time), Dur: ev.Dur.Microseconds(),
					Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core,
					Args: map[string]any{"dur_us": ev.Dur.Microseconds()}})
			} else {
				vm := ev.VM
				if vm < 0 {
					vm = 0
				}
				dst = append(dst, traceEvent{Name: "fault (server)", Cat: "fault", Ph: "i",
					Ts: tsOf(ev.Time), Pid: t.pidOf(vm), Tid: lifecycleTid,
					Args: map[string]any{"dur_us": ev.Dur.Microseconds()}})
			}
		case KindShed, KindRetry, KindHedge, KindHedgeWin, KindDeadlineMiss:
			dst = append(dst, traceEvent{Name: ev.Kind.String(), Ph: "i", Ts: tsOf(ev.Time),
				Pid: t.pidOf(ev.VM), Tid: lifecycleTid,
				Args: map[string]any{"req": ev.Req}})
		}
	}

	// Close spans the engine left open at the horizon. Iterate cores and
	// request ids in insertion-independent deterministic order by scanning
	// the event list again (maps would randomize the order).
	closed := map[int]bool{}
	closedReq := map[uint64]bool{}
	for _, ev := range t.events {
		if ev.Kind == KindBurstStart {
			if open, ok := openBurst[ev.Core]; ok && open.Req == ev.Req && !closed[ev.Core] {
				closed[ev.Core] = true
				dst = append(dst, traceEvent{Ph: "E", Ts: tsOf(last),
					Pid: t.pidOfCore(ev.Core, ev.VM), Tid: ev.Core})
			}
		}
		if ev.Kind == KindArrival {
			if pid, ok := openReq[ev.Req]; ok && !closedReq[ev.Req] {
				closedReq[ev.Req] = true
				dst = append(dst, traceEvent{Name: "request", Cat: "request", Ph: "e",
					Ts: tsOf(last), Pid: pid, Tid: lifecycleTid, ID: reqID(ev.Req),
					Args: map[string]any{"truncated": true}})
			}
		}
		if ev.Kind == KindBlock {
			if pid, ok := openIO[ev.Req]; ok && !closedReq[1<<63|ev.Req] {
				closedReq[1<<63|ev.Req] = true
				dst = append(dst, traceEvent{Name: "io", Cat: "io", Ph: "e",
					Ts: tsOf(last), Pid: pid, Tid: lifecycleTid, ID: reqID(ev.Req),
					Args: map[string]any{"truncated": true}})
			}
		}
	}
	return dst
}

// traceFile is the on-disk trace container (the "JSON object format" of the
// trace-event spec, which Perfetto and chrome://tracing both load).
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
}

// WriteTrace writes the tracer's run as a self-contained trace file.
func (t *SpanTracer) WriteTrace(w io.Writer) error {
	return WriteTraces(w, t)
}

// WriteTraces merges several tracers (distinct pidBase each) into one trace
// file. Output is deterministic for deterministic inputs.
func WriteTraces(w io.Writer, tracers ...*SpanTracer) error {
	var evs []traceEvent
	runs := ""
	for i, t := range tracers {
		if t == nil {
			continue
		}
		evs = t.appendTraceEvents(evs)
		if i > 0 {
			runs += ", "
		}
		runs += t.run
	}
	if evs == nil {
		evs = []traceEvent{}
	}
	f := traceFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]string{"source": "hardharvest simulator", "runs": runs},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
