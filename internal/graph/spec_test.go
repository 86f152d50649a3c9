package graph

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// twoTier builds a minimal valid spec (a -> b) to mutate in error cases.
func twoTier() *Spec {
	return &Spec{
		NetDelay: 20 * sim.Microsecond,
		Tiers: []Tier{
			{Name: "a", Group: "g", Calls: []Call{{Tier: 1, Fanout: 1}}},
			{Name: "b", Group: "g"},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := twoTier().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := SocialNet(20 * sim.Microsecond).Validate(); err != nil {
		t.Fatalf("SocialNet rejected: %v", err)
	}
}

// TestValidateErrors pins every Validate failure mode to a positioned
// *FieldError: the scenario layer maps Path back to a file:line diagnostic,
// so both the path and the message are part of the contract.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		path string
		msg  string
	}{
		{"no tiers", func(s *Spec) { s.Tiers = nil },
			"tiers", "at least one tier"},
		{"too many tiers", func(s *Spec) {
			s.Tiers = s.Tiers[:1]
			s.Tiers[0].Calls = nil
			for i := 0; i < MaxTiers; i++ {
				s.Tiers = append(s.Tiers, Tier{Name: string(rune('c' + i))})
			}
		}, "tiers", "exceeds the maximum"},
		{"zero net delay", func(s *Spec) { s.NetDelay = 0 },
			"rpc_delay_us", "must be positive"},
		{"negative net delay", func(s *Spec) { s.NetDelay = -sim.Microsecond },
			"rpc_delay_us", "must be positive"},
		{"root below range", func(s *Spec) { s.Root = -1 },
			"root", "out of range"},
		{"root past range", func(s *Spec) { s.Root = 2 },
			"root", "out of range"},
		{"empty tier name", func(s *Spec) { s.Tiers[1].Name = "" },
			"tiers[1].tier", "required"},
		{"duplicate tier name", func(s *Spec) { s.Tiers[1].Name = "a" },
			"tiers[1].tier", `duplicate tier name "a"`},
		{"negative vm", func(s *Spec) { s.Tiers[0].VM = -1 },
			"tiers[0].vm", "must be non-negative"},
		{"dangling call tier", func(s *Spec) { s.Tiers[0].Calls[0].Tier = 7 },
			"tiers[0].calls[0].tier", "out of range"},
		{"negative call tier", func(s *Spec) { s.Tiers[0].Calls[0].Tier = -1 },
			"tiers[0].calls[0].tier", "out of range"},
		{"zero fanout", func(s *Spec) { s.Tiers[0].Calls[0].Fanout = 0 },
			"tiers[0].calls[0].fanout", "must be in [1, 64]"},
		{"fanout over bound", func(s *Spec) { s.Tiers[0].Calls[0].Fanout = MaxFanout + 1 },
			"tiers[0].calls[0].fanout", "must be in [1, 64]"},
		{"unknown call mode", func(s *Spec) { s.Tiers[0].Calls[0].Mode = CallMode(9) },
			"tiers[0].calls[0].mode", "unknown call mode"},
		{"self cycle", func(s *Spec) { s.Tiers[1].Calls = []Call{{Tier: 1, Fanout: 1}} },
			"tiers[1].calls[0].tier", "call cycle: b -> b"},
		{"two-hop cycle", func(s *Spec) { s.Tiers[1].Calls = []Call{{Tier: 0, Fanout: 1}} },
			"tiers[1].calls[0].tier", "call cycle: a -> b -> a"},
		{"unreachable tier", func(s *Spec) { s.Tiers[0].Calls = nil },
			"tiers[1].tier", `tier "b" is unreachable from root tier "a"`},
		{"expansion explosion", func(s *Spec) {
			// 64^3 invocations in a three-level fan-out tower.
			s.Tiers = []Tier{
				{Name: "a", Calls: []Call{{Tier: 1, Fanout: MaxFanout}}},
				{Name: "b", Calls: []Call{{Tier: 2, Fanout: MaxFanout}}},
				{Name: "c"},
			}
		}, "tiers", "invocations (max 512)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := twoTier()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("damaged spec validated")
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a *FieldError: %v", err)
			}
			if fe.Path != tc.path {
				t.Errorf("path = %q, want %q (err: %v)", fe.Path, tc.path, err)
			}
			if !strings.Contains(fe.Msg, tc.msg) {
				t.Errorf("msg %q missing %q", fe.Msg, tc.msg)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Errorf("Error() %q does not lead with the path", err)
			}
		})
	}
}

func TestCallModeRoundTrip(t *testing.T) {
	for _, m := range []CallMode{Parallel, Sequential} {
		got, err := ParseCallMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseCallMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseCallMode("bursty"); err == nil ||
		!strings.Contains(err.Error(), "want parallel or sequential") {
		t.Errorf("bad mode error = %v", err)
	}
	if s := CallMode(9).String(); s != "CallMode(9)" {
		t.Errorf("unknown mode String() = %q", s)
	}
}

func TestStagesOf(t *testing.T) {
	tier := &Tier{Name: "x", Calls: []Call{
		{Tier: 1, Mode: Parallel, Fanout: 2},
		{Tier: 2, Mode: Parallel, Fanout: 1},
		{Tier: 3, Mode: Sequential, Fanout: 3},
		{Tier: 4, Mode: Parallel, Fanout: 1},
	}}
	st := stagesOf(tier)
	if len(st) != 3 {
		t.Fatalf("want 3 stages, got %d: %+v", len(st), st)
	}
	if len(st[0].par) != 2 || st[0].par[0].Tier != 1 || st[0].par[1].Tier != 2 {
		t.Errorf("stage 0 should merge the two consecutive parallel calls: %+v", st[0])
	}
	if st[1].par != nil || st[1].seq.Tier != 3 || st[1].seq.Fanout != 3 {
		t.Errorf("stage 1 should be the sequential call alone: %+v", st[1])
	}
	if len(st[2].par) != 1 || st[2].par[0].Tier != 4 {
		t.Errorf("stage 2 should restart a parallel stage after the sequential one: %+v", st[2])
	}
	if got := stagesOf(&Tier{Name: "leaf"}); got != nil {
		t.Errorf("leaf tier stages = %+v, want none", got)
	}
}

func TestNodesAndTierByName(t *testing.T) {
	sn := SocialNet(20 * sim.Microsecond)
	// frontend + 2x(logic + cache + db) = 7 invocations per request.
	if n := sn.Nodes(); n != 7 {
		t.Errorf("SocialNet Nodes() = %d, want 7", n)
	}
	if i := sn.TierByName("db"); i != 3 {
		t.Errorf("TierByName(db) = %d, want 3", i)
	}
	if i := sn.TierByName("nope"); i != -1 {
		t.Errorf("TierByName(nope) = %d, want -1", i)
	}
	chain := &Spec{NetDelay: sim.Microsecond, Tiers: []Tier{
		{Name: "a", Calls: []Call{{Tier: 1, Mode: Sequential, Fanout: 3}}},
		{Name: "b"},
	}}
	if n := chain.Nodes(); n != 4 {
		t.Errorf("sequential chain Nodes() = %d, want 4 (fan-out counts invocations)", n)
	}
}

// TestTierServers: each tier gets its group's servers in fleet order, and
// tiers sharing a group share its servers.
func TestTierServers(t *testing.T) {
	sn := SocialNet(20 * sim.Microsecond) // cache and db share the leaf group
	got := sn.TierServers([]string{"leaf", "frontend", "logic", "leaf", "frontend"})
	want := [][]int{{1, 4}, {2}, {0, 3}, {0, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TierServers = %v, want %v", got, want)
	}
}

// constHops samples every service at a fixed latency — the degenerate
// distribution under which Monte-Carlo composition is exact arithmetic.
type constHops sim.Duration

func (c constHops) SampleLatency(string, float64) (sim.Duration, bool) {
	return sim.Duration(c), true
}

// TestToAppComposition checks ToApp's expansion against hand-computed
// critical paths under constant hop latencies: parallel subtrees overlap
// (max), sequential chains and nested tiers add.
func TestToAppComposition(t *testing.T) {
	const hop = 2 * sim.Millisecond
	cases := []struct {
		name   string
		spec   *Spec
		stages int
		want   sim.Duration // e2e critical path at constant hop latency
	}{
		{"single tier", &Spec{NetDelay: sim.Microsecond,
			Tiers: []Tier{{Name: "a"}}}, 1, hop},
		{"socialnet", SocialNet(20 * sim.Microsecond), 7,
			// frontend, then two parallel logic subtrees of depth 2.
			3 * hop},
		{"sequential chain", &Spec{NetDelay: sim.Microsecond, Tiers: []Tier{
			{Name: "a", Calls: []Call{{Tier: 1, Mode: Sequential, Fanout: 3}}},
			{Name: "b"},
		}}, 4, 4 * hop},
		{"parallel fanout", &Spec{NetDelay: sim.Microsecond, Tiers: []Tier{
			{Name: "a", Calls: []Call{{Tier: 1, Mode: Parallel, Fanout: 8}}},
			{Name: "b"},
		}}, 9, 2 * hop},
		{"staged mix", &Spec{NetDelay: sim.Microsecond, Tiers: []Tier{
			// a: parallel {b}, then sequential c x2 — stages serialize.
			{Name: "a", Calls: []Call{
				{Tier: 1, Mode: Parallel, Fanout: 2},
				{Tier: 2, Mode: Sequential, Fanout: 2},
			}},
			{Name: "b"},
			{Name: "c"},
		}}, 5, 4 * hop},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatalf("fixture invalid: %v", err)
			}
			a := tc.spec.ToApp(tc.name)
			if err := a.Validate(); err != nil {
				t.Fatalf("ToApp produced an invalid app: %v", err)
			}
			if len(a.Stages) != tc.stages {
				t.Fatalf("ToApp stages = %d, want %d (= Nodes())", len(a.Stages), tc.stages)
			}
			if len(a.Stages) != tc.spec.Nodes() {
				t.Errorf("ToApp stage count %d != Nodes() %d", len(a.Stages), tc.spec.Nodes())
			}
			rec, err := a.SimulateE2E(constHops(2*sim.Millisecond), stats.NewRNG(1), 64)
			if err != nil {
				t.Fatalf("SimulateE2E: %v", err)
			}
			if rec.P50() != tc.want || rec.P99() != tc.want {
				t.Errorf("constant-hop e2e = p50 %v / p99 %v, want exactly %v",
					rec.P50(), rec.P99(), tc.want)
			}
		})
	}
}

// TestToAppRootDeps: the root invocation must have no dependencies, and
// every other stage at least one — otherwise composed requests would start
// mid-tree.
func TestToAppRootDeps(t *testing.T) {
	a := SocialNet(20 * sim.Microsecond).ToApp("sn")
	if len(a.Stages[0].Deps) != 0 {
		t.Errorf("root stage has deps: %+v", a.Stages[0].Deps)
	}
	for i := 1; i < len(a.Stages); i++ {
		if len(a.Stages[i].Deps) == 0 {
			t.Errorf("stage %d (%s) has no deps", i, a.Stages[i].Service)
		}
	}
}
