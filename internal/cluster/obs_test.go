package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
)

// obsConfig keeps instrumented runs short.
func obsConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupDuration = 10 * sim.Millisecond
	cfg.MeasureDuration = 100 * sim.Millisecond
	return cfg
}

// traceRun simulates one server with a fresh tracer attached and returns
// both the result and the tracer.
func traceRun(t *testing.T, cfg Config, kind SystemKind) (*ServerResult, *obs.SpanTracer) {
	t.Helper()
	opts := SystemOptions(kind)
	tr := obs.NewSpanTracer(opts.Name, 0)
	opts.Observer = tr
	return RunServer(cfg, opts, bfs(t)), tr
}

// TestTraceDeterminism is the regression test for byte-identical trace
// output: two runs with the same seed must render the same bytes.
func TestTraceDeterminism(t *testing.T) {
	for _, kind := range []SystemKind{HardHarvestBlock, HarvestBlock} {
		var buf1, buf2 bytes.Buffer
		_, tr1 := traceRun(t, obsConfig(), kind)
		_, tr2 := traceRun(t, obsConfig(), kind)
		if err := tr1.WriteTrace(&buf1); err != nil {
			t.Fatal(err)
		}
		if err := tr2.WriteTrace(&buf2); err != nil {
			t.Fatal(err)
		}
		if tr1.Events() == 0 {
			t.Fatalf("%v: tracer saw no events", kind)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("%v: same-seed runs produced different trace bytes (%d vs %d)",
				kind, buf1.Len(), buf2.Len())
		}
	}
}

// TestTraceWellFormed checks the exported JSON against the trace-event
// contract Perfetto relies on: it parses, every VM has a named process,
// every core a named thread, and B/E spans balance per thread.
func TestTraceWellFormed(t *testing.T) {
	cfg := obsConfig()
	_, tr := traceRun(t, cfg, HardHarvestBlock)
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	depth := map[[2]int]int{}
	for _, ev := range f.TraceEvents {
		key := [2]int{ev.Pid, ev.Tid}
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procs[ev.Pid], _ = ev.Args["name"].(string)
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads[key], _ = ev.Args["name"].(string)
		case ev.Ph == "B":
			depth[key]++
		case ev.Ph == "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("E before B on pid=%d tid=%d", ev.Pid, ev.Tid)
			}
		}
		if ev.Ts < 0 {
			t.Fatalf("negative timestamp %v", ev.Ts)
		}
	}
	for key, d := range depth {
		if d != 0 {
			t.Fatalf("unbalanced spans on pid=%d tid=%d: %d left open", key[0], key[1], d)
		}
	}
	// One process per VM (primaries + harvest VM), one thread per core plus
	// the per-VM lifecycle thread.
	if len(procs) != cfg.PrimaryVMs+1 {
		t.Fatalf("processes = %d, want %d VMs", len(procs), cfg.PrimaryVMs+1)
	}
	coreThreads := 0
	for key, name := range threads {
		if key[1] != 1000 { // lifecycleTid
			coreThreads++
			if name == "" {
				t.Fatalf("core thread pid=%d tid=%d unnamed", key[0], key[1])
			}
		}
	}
	if coreThreads != cfg.CoresPerServer {
		t.Fatalf("core threads = %d, want %d", coreThreads, cfg.CoresPerServer)
	}
}

// TestCountersReconcile cross-checks the tracer's independent accounting
// against the simulator's own aggregates for a hardware and a software
// system.
func TestCountersReconcile(t *testing.T) {
	for _, kind := range []SystemKind{HardHarvestBlock, HarvestBlock} {
		res, tr := traceRun(t, obsConfig(), kind)
		c := tr.Counters()
		if c.Arrivals != uint64(res.Arrivals) {
			t.Errorf("%v: traced arrivals %d != result %d", kind, c.Arrivals, res.Arrivals)
		}
		if c.Completions != uint64(res.Requests) {
			t.Errorf("%v: traced completions %d != result %d", kind, c.Completions, res.Requests)
		}
		if c.Pins != res.Pins {
			t.Errorf("%v: traced pins %d != result %d", kind, c.Pins, res.Pins)
		}
		// Reassignments have exactly three sources: hardware preempts,
		// hypervisor lends, and hypervisor reclaims. Reclaims already
		// includes preempts.
		if c.LendMoves+c.Reclaims != res.Reassigns {
			t.Errorf("%v: lends %d + reclaims %d != reassigns %d",
				kind, c.LendMoves, c.Reclaims, res.Reassigns)
		}
		if got, want := tr.Hist().Count(), res.Breakdown.Requests; got != want {
			t.Errorf("%v: hist count %d != measured requests %d", kind, got, want)
		}
		// The traced execution time of measured requests must match the
		// breakdown's execution component exactly: both sum the same scaled
		// burst lengths.
		if got, want := tr.ExecMeasured(), res.Breakdown.Execution; got != want {
			t.Errorf("%v: traced exec %v != breakdown exec %v", kind, got, want)
		}
		if kind == HardHarvestBlock {
			if c.Loans == 0 || c.Preempts == 0 {
				t.Errorf("%v: hardware run saw no loans/preempts: %+v", kind, c)
			}
			if c.LendMoves != 0 {
				t.Errorf("%v: hardware run used hypervisor lends: %d", kind, c.LendMoves)
			}
		} else {
			if c.LendMoves == 0 {
				t.Errorf("%v: software run made no hypervisor lends", kind)
			}
			if c.Preempts != 0 {
				t.Errorf("%v: software run served hardware preempts: %d", kind, c.Preempts)
			}
		}
	}
}

// TestSamplerOnServer drives a Sampler through a real run and checks the
// time series shape.
func TestSamplerOnServer(t *testing.T) {
	cfg := obsConfig()
	opts := SystemOptions(HardHarvestBlock)
	sp := obs.NewSampler(opts.Name, 50*sim.Microsecond)
	opts.Observer = sp
	RunServer(cfg, opts, bfs(t))
	rows := sp.Rows()
	if len(rows) < 100 {
		t.Fatalf("samples = %d, want a dense series", len(rows))
	}
	var sawBusy bool
	for i, sn := range rows {
		if i > 0 && sn.Time <= rows[i-1].Time {
			t.Fatalf("sample %d: time %v not increasing", i, sn.Time)
		}
		if len(sn.VMs) != cfg.PrimaryVMs+1 {
			t.Fatalf("sample %d: %d VMs", i, len(sn.VMs))
		}
		for _, v := range sn.VMs {
			if v.Running < 0 || v.Queued < 0 || v.BusyCores < 0 {
				t.Fatalf("sample %d: negative occupancy %+v", i, v)
			}
			if v.BusyCores > 0 {
				sawBusy = true
			}
		}
	}
	if !sawBusy {
		t.Fatal("no sample ever saw a busy core")
	}
}

// TestMultiObserverOnServer runs tracer + sampler composed, as hhsim does.
func TestMultiObserverOnServer(t *testing.T) {
	cfg := obsConfig()
	opts := SystemOptions(HarvestBlock)
	tr := obs.NewSpanTracer(opts.Name, 0)
	sp := obs.NewSampler(opts.Name, 100*sim.Microsecond)
	opts.Observer = obs.Multi(tr, sp)
	res := RunServer(cfg, opts, bfs(t))
	if tr.Counters().Completions != uint64(res.Requests) {
		t.Fatalf("tracer under multi lost events: %d != %d", tr.Counters().Completions, res.Requests)
	}
	if len(sp.Rows()) == 0 {
		t.Fatal("sampler under multi got no snapshots")
	}
}

// TestServerObserverParallelTraceDeterminism exercises the instrumented
// parallel-cluster path: each server gets its own tracer through
// ServerObserver, the servers run concurrently, and the merged trace export
// must stay byte-identical across same-seed runs. ServerObserver is called
// on the RunCluster goroutine in server order, so appending to the tracer
// slice needs no locking and pid slots are stable.
func TestServerObserverParallelTraceDeterminism(t *testing.T) {
	const servers = 3
	run := func() ([]byte, *ClusterResult) {
		t.Helper()
		opts := SystemOptions(HardHarvestBlock)
		var tracers []*obs.SpanTracer
		opts.ServerObserver = func(server int, workload string) Observer {
			tr := obs.NewSpanTracer(fmt.Sprintf("srv%d/%s", server, workload), server*64)
			tracers = append(tracers, tr)
			return tr
		}
		cr := RunCluster(obsConfig(), opts, servers)
		if len(tracers) != servers {
			t.Fatalf("ServerObserver called %d times, want %d", len(tracers), servers)
		}
		for i, tr := range tracers {
			if tr.Events() == 0 {
				t.Fatalf("server %d tracer saw no events", i)
			}
		}
		var buf bytes.Buffer
		if err := obs.WriteTraces(&buf, tracers...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), cr
	}
	b1, cr1 := run()
	b2, _ := run()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same-seed parallel clusters produced different trace bytes (%d vs %d)",
			len(b1), len(b2))
	}
	// Observers must not perturb the simulation: the instrumented cluster
	// matches an uninstrumented run exactly.
	plain := RunCluster(obsConfig(), SystemOptions(HardHarvestBlock), servers)
	if cr1.AvgP99() != plain.AvgP99() || cr1.BusyCores != plain.BusyCores {
		t.Fatalf("instrumented cluster diverged: P99 %v vs %v, busy %v vs %v",
			cr1.AvgP99(), plain.AvgP99(), cr1.BusyCores, plain.BusyCores)
	}
}

// TestNilObserverNoAllocs pins the disabled-path contract: with no observer
// the hook helpers allocate nothing.
func TestNilObserverNoAllocs(t *testing.T) {
	s := NewServer(obsConfig(), SystemOptions(HardHarvestBlock), bfs(t))
	r := &request{id: 1, vmIdx: 0}
	c := &s.cores[0]
	if n := testing.AllocsPerRun(1000, func() {
		s.ev(obs.KindArrival, r, -1, 0)
		s.evCore(obs.KindCoreIdle, c, 0)
	}); n != 0 {
		t.Fatalf("nil-observer hooks allocate %v per run", n)
	}
}

// eventRecorder records every event it is handed.
type eventRecorder struct{ evs []obs.Event }

func (k *eventRecorder) Observe(e obs.Event) { k.evs = append(k.evs, e) }

// selectiveRecorder is an eventRecorder that declares it reads only set.
type selectiveRecorder struct {
	eventRecorder
	set obs.KindSet
}

func (k *selectiveRecorder) Kinds() obs.KindSet { return k.set }

// TestSelectiveObserverSeesItsKinds: a Selective observer receives exactly
// the events of its kinds, in the order and with the fields an observer of
// every kind sees, and nothing else; the run itself does not change.
func TestSelectiveObserverSeesItsKinds(t *testing.T) {
	set := obs.KindSetOf(obs.KindDispatch, obs.KindFlushStart, obs.KindPin,
		obs.KindLendStart, obs.KindComplete)
	for _, kind := range []SystemKind{HardHarvestBlock, HarvestBlock} {
		run := func(o obs.Observer) *ServerResult {
			opts := SystemOptions(kind)
			opts.Observer = o
			return RunServer(obsConfig(), opts, bfs(t))
		}
		all := &eventRecorder{}
		sel := &selectiveRecorder{set: set}
		ra, rs := run(all), run(sel)
		if ra.Requests != rs.Requests || ra.Arrivals != rs.Arrivals || ra.HarvestJobs != rs.HarvestJobs || ra.Pins != rs.Pins || ra.Breakdown != rs.Breakdown {
			t.Fatalf("%v: selective observer changed the run", kind)
		}
		var want []obs.Event
		for _, e := range all.evs {
			if set.Has(e.Kind) {
				want = append(want, e)
			}
		}
		if len(want) == 0 || len(want) == len(all.evs) {
			t.Fatalf("%v: %d of %d events in the set; want a proper subset", kind, len(want), len(all.evs))
		}
		if len(sel.evs) != len(want) {
			t.Fatalf("%v: selective observer got %d events, want %d", kind, len(sel.evs), len(want))
		}
		for i := range want {
			if sel.evs[i] != want[i] {
				t.Fatalf("%v: event %d = %+v, want %+v", kind, i, sel.evs[i], want[i])
			}
		}
	}
}
