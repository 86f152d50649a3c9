package front

import (
	"fmt"
	"strings"
	"testing"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/sim"
)

// stub is a minimal front door: it dispatches every arrival to backend 0
// and counts replies, so the core's plumbing runs end to end on its own.
type stub struct {
	Core[*stub, sim.Time]
	admitted, done, shed int
	lastRec              sim.Time
}

func newStub(t *testing.T, n int, edit func(i int, cfg *cluster.Config)) (*stub, []*cluster.Server) {
	t.Helper()
	work, err := batch.WorkloadByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Backend
	var servers []*cluster.Server
	for i := 0; i < n; i++ {
		cfg := cluster.DefaultConfig()
		cfg.Seed = 40 + uint64(i)*7919
		cfg.WarmupDuration = 2 * sim.Millisecond
		cfg.MeasureDuration = 20 * sim.Millisecond
		if edit != nil {
			edit(i, &cfg)
		}
		opts := cluster.SystemOptions(cluster.HardHarvestBlock)
		opts.RemoteAdmission = true
		srv := cluster.NewServer(cfg, opts, work)
		servers = append(servers, srv)
		specs = append(specs, Backend{Server: srv, Cfg: cfg})
	}
	s := &stub{}
	s.Init("stub", s, 20*sim.Microsecond, specs, Handlers[sim.Time]{
		Admit: func(g *Gen) {
			s.admitted++
			s.Dispatch(s.Port(0), g.VM, s.Now())
		},
		Reply: func(_ uint64, rec sim.Time, shed bool) {
			s.lastRec = rec
			if shed {
				s.shed++
			} else {
				s.done++
			}
		},
	})
	for i, spec := range specs {
		s.AddSource(i, spec.Cfg, 0x1234, []int{0, 1})
	}
	return s, servers
}

// TestCoreRunsAFleet: a stub front door wired by Wire generates, dispatches
// and resolves traffic, and every attempt it sent comes back.
func TestCoreRunsAFleet(t *testing.T) {
	s, servers := newStub(t, 2, nil)
	g := sim.NewShardGroup(1)
	horizon := Wire(g, s, servers)
	if horizon != s.Horizon() {
		t.Fatalf("Wire horizon %v, core horizon %v", horizon, s.Horizon())
	}
	g.Run(horizon)
	if s.admitted == 0 {
		t.Fatal("no arrivals generated")
	}
	if s.done+s.shed != s.admitted || s.Outstanding() != 0 {
		t.Fatalf("admitted %d, resolved %d+%d, outstanding %d",
			s.admitted, s.done, s.shed, s.Outstanding())
	}
	if got := s.Port(1).Name; got != "backend[1]" {
		t.Fatalf("default backend name %q", got)
	}
}

// TestIntensityKnobs: the per-source, per-VM and fleet-wide knobs reach
// exactly the generators they name.
func TestIntensityKnobs(t *testing.T) {
	s, _ := newStub(t, 2, nil)
	s.SetIntensity(0, 2)
	s.SetVMIntensity(1, 1, 3)
	for _, c := range []struct {
		src, vm int
		want    float64
	}{{0, 0, 2}, {0, 1, 2}, {1, 0, 1}, {1, 1, 3}, {9, 0, 0}} {
		if got := s.Intensity(c.src, c.vm); got != c.want {
			t.Errorf("Intensity(%d,%d) = %v, want %v", c.src, c.vm, got, c.want)
		}
	}
	s.SetIntensityAll(0.5)
	if s.Intensity(0, 1) != 0.5 || s.Intensity(1, 0) != 0.5 {
		t.Error("SetIntensityAll missed a generator")
	}
}

// TestActionsRunInOrder: scheduled actions fire as engine events, at their
// time, with the owner as argument.
func TestActionsRunInOrder(t *testing.T) {
	s, servers := newStub(t, 1, nil)
	var log []string
	g := sim.NewShardGroup(1)
	horizon := Wire(g, s, servers)
	at := func(ms int) sim.Time { return sim.Time(sim.Duration(ms) * sim.Millisecond) }
	s.SetActions([]Action[*stub]{
		{At: at(3), Fn: func(f *stub) { log = append(log, fmt.Sprintf("a@%v", f.Now())) }},
		{At: at(5), Seq: 1, Fn: func(f *stub) { log = append(log, fmt.Sprintf("b@%v", f.Now())) }},
	})
	g.Run(horizon)
	want := []string{fmt.Sprintf("a@%v", at(3)), fmt.Sprintf("b@%v", at(5))}
	if strings.Join(log, ",") != strings.Join(want, ",") {
		t.Fatalf("actions fired %v, want %v", log, want)
	}
}

// TestCorePanics: construction and ledger invariants fail loudly with the
// owner's package prefix.
func TestCorePanics(t *testing.T) {
	mustPanic := func(name, frag string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), frag) {
				t.Fatalf("%s: panic %v, want one containing %q", name, r, frag)
			}
		}()
		fn()
	}
	mustPanic("no backends", "stub: no backends", func() {
		var s stub
		s.Init("stub", &s, sim.Microsecond, nil, Handlers[sim.Time]{})
	})
	mustPanic("window", "stub: backends disagree on run window", func() {
		newStub(t, 2, func(i int, cfg *cluster.Config) {
			cfg.MeasureDuration += sim.Duration(i) * sim.Millisecond
		})
	})
	s, _ := newStub(t, 1, nil)
	mustPanic("members", "stub: member count mismatch", func() {
		s.Bind(sim.NewShardGroup(1), 0, nil)
	})
	mustPanic("unknown attempt", "stub: reply for unknown attempt 7", func() {
		s.doneRx.OnEvent(7, nil, nil)
	})

	w, servers := newStub(t, 1, nil)
	Wire(sim.NewShardGroup(1), w, servers)
	id := w.Dispatch(w.Port(0), 0, 0)
	w.doneRx.OnEvent(int32(id), nil, nil)
	mustPanic("double reply", fmt.Sprintf("stub: reply for unknown attempt %d", id), func() {
		w.shedRx.OnEvent(int32(id), nil, nil)
	})
	mustPanic("out-of-range slot", "stub: reply for unknown attempt 2", func() {
		w.doneRx.OnEvent(2, nil, nil)
	})
	mustPanic("zero id", "stub: reply for unknown attempt 0", func() {
		w.doneRx.OnEvent(0, nil, nil)
	})
}

// TestLedgerReusesSlots: a reply frees its slot, the next dispatch reuses
// it under the same id, and Attempt and Outstanding track every step.
func TestLedgerReusesSlots(t *testing.T) {
	s, servers := newStub(t, 1, nil)
	Wire(sim.NewShardGroup(1), s, servers)
	p := s.Port(0)
	check := func(step string, outstanding uint64, recs map[uint64]sim.Time) {
		t.Helper()
		if got := s.Outstanding(); got != outstanding {
			t.Fatalf("%s: Outstanding() = %d, want %d", step, got, outstanding)
		}
		for id, want := range recs {
			if got := s.Attempt(id); got != want {
				t.Fatalf("%s: Attempt(%d) = %v, want %v", step, id, got, want)
			}
		}
	}
	a, b := s.Dispatch(p, 0, 10), s.Dispatch(p, 1, 20)
	if a != 1 || b != 2 {
		t.Fatalf("first ids %d, %d, want 1, 2", a, b)
	}
	check("two dispatched", 2, map[uint64]sim.Time{a: 10, b: 20})

	s.doneRx.OnEvent(int32(a), nil, nil)
	if s.done != 1 || s.lastRec != 10 {
		t.Fatalf("done reply: done=%d rec=%v, want 1 and 10", s.done, s.lastRec)
	}
	check("a replied", 1, map[uint64]sim.Time{a: 0, b: 20})

	c := s.Dispatch(p, 0, 30)
	if c != a {
		t.Fatalf("freed slot not reused: got id %d, want %d", c, a)
	}
	check("slot reused", 2, map[uint64]sim.Time{c: 30, b: 20})

	s.shedRx.OnEvent(int32(b), nil, nil)
	if s.shed != 1 || s.lastRec != 20 {
		t.Fatalf("shed reply: shed=%d rec=%v, want 1 and 20", s.shed, s.lastRec)
	}
	s.doneRx.OnEvent(int32(c), nil, nil)
	check("all replied", 0, map[uint64]sim.Time{a: 0, b: 0})
	if d := s.Dispatch(p, 1, 40); d != c {
		t.Fatalf("dispatch after drain got id %d, want the last freed slot %d", d, c)
	}
}

// kick dispatches one attempt for VM op from inside a front event, where
// the front's clock is current (sim.Callback, front engine).
type kick struct{ s *stub }

func (k kick) OnEvent(op int32, _, _ any) { k.s.Dispatch(k.s.Port(0), int(op), k.s.Now()) }

// TestRoundTripAllocFree: once warm, one attempt's trip through the fleet's
// message path — ledger slot, dispatch send, cross-member delivery, server
// admission, the done reply and its ledger resolution — allocates nothing.
// The generators are muted so that each measured step carries exactly one
// round trip. AllocsPerRun reports whole allocations per run, so the
// server model's amortised pool growth (well under one per step once warm)
// rounds away, while any per-message allocation would show as at least 1.
func TestRoundTripAllocFree(t *testing.T) {
	s, servers := newStub(t, 1, func(_ int, cfg *cluster.Config) {
		cfg.MeasureDuration = sim.Second
	})
	s.SetIntensityAll(1e-9)
	g := sim.NewShardGroup(1)
	Wire(g, s, servers)
	now, vm := sim.Time(0), int32(0)
	step := func() {
		s.Engine().CallAt(now, kick{s}, vm, nil, nil)
		vm ^= 1
		now = now.Add(sim.Millisecond)
		g.Run(now)
	}
	for i := 0; i < 200; i++ {
		step() // warm: slabs, inboxes, the ledger and the server pools
	}
	const runs = 100
	before := s.done
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("warm round trip allocates %.0f per attempt, want 0", avg)
	}
	if got := s.done - before; got < runs {
		t.Fatalf("only %d round trips completed in %d steps", got, runs+1)
	}
}
