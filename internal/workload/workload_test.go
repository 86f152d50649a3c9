package workload

import (
	"math"
	"reflect"
	"testing"

	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

func TestProfilesShape(t *testing.T) {
	ps := Profiles()
	if len(ps) != 8 {
		t.Fatalf("profiles = %d, want 8", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		// Microservices run for 100s of microseconds to ~1 ms of CPU.
		if p.MeanCPU < 100*sim.Microsecond || p.MeanCPU > 1500*sim.Microsecond {
			t.Errorf("%s MeanCPU = %v outside microservice range", p.Name, p.MeanCPU)
		}
		// Paper's load range: 65-250 RPS per core.
		if p.BaseRPSPerCore < 65 || p.BaseRPSPerCore > 250 {
			t.Errorf("%s RPS = %v outside 65-250", p.Name, p.BaseRPSPerCore)
		}
		if p.SharedFrac <= 0 || p.SharedFrac >= 1 {
			t.Errorf("%s SharedFrac = %v", p.Name, p.SharedFrac)
		}
	}
	// Character checks from the paper's text.
	user := profileNamed(t, "User")
	homet := profileNamed(t, "HomeT")
	for _, p := range ps {
		if p.Name != "User" && p.MeanIOCalls > user.MeanIOCalls {
			t.Errorf("User should block most frequently; %s has %v calls", p.Name, p.MeanIOCalls)
		}
		if p.Name != "HomeT" && p.SharedFrac > homet.SharedFrac {
			t.Errorf("HomeT should be the most shared-heavy; %s = %v", p.Name, p.SharedFrac)
		}
	}
}

// profileNamed returns the named service profile.
func profileNamed(t *testing.T, name string) *Profile {
	t.Helper()
	for _, p := range Profiles() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no service %q", name)
	return nil
}

func TestSampleMeans(t *testing.T) {
	p := profileNamed(t, "Text")
	rng := stats.NewRNG(1)
	var cpu, io float64
	var calls int
	const n = 20000
	for i := 0; i < n; i++ {
		inv := p.Sample(rng)
		cpu += float64(inv.TotalCPU())
		io += float64(inv.TotalIO())
		calls += inv.IOCalls()
	}
	meanCPU := cpu / n
	if math.Abs(meanCPU-float64(p.MeanCPU))/float64(p.MeanCPU) > 0.05 {
		t.Fatalf("mean CPU = %v, want ~%v", sim.Duration(meanCPU), p.MeanCPU)
	}
	meanCalls := float64(calls) / n
	if math.Abs(meanCalls-p.MeanIOCalls) > 0.1 {
		t.Fatalf("mean IO calls = %v, want ~%v", meanCalls, p.MeanIOCalls)
	}
	wantIO := p.MeanIOCalls * float64(p.IOMean)
	meanIO := io / n
	if math.Abs(meanIO-wantIO)/wantIO > 0.08 {
		t.Fatalf("mean IO = %v, want ~%v", sim.Duration(meanIO), sim.Duration(wantIO))
	}
}

func TestSampleStructure(t *testing.T) {
	p := profileNamed(t, "User")
	rng := stats.NewRNG(2)
	for i := 0; i < 1000; i++ {
		inv := p.Sample(rng)
		if len(inv.Phases) != inv.IOCalls()+1 {
			t.Fatalf("phases %d vs IO calls %d", len(inv.Phases), inv.IOCalls())
		}
		// The final phase never blocks.
		if inv.Phases[len(inv.Phases)-1].IO != 0 {
			t.Fatal("final phase has IO")
		}
		for _, ph := range inv.Phases {
			if ph.CPU <= 0 {
				t.Fatal("non-positive CPU burst")
			}
		}
		if inv.Service != p {
			t.Fatal("service back-pointer wrong")
		}
	}
}

func TestGeneratorRate(t *testing.T) {
	p := profileNamed(t, "UrlShort") // 250 RPS/core
	rng := stats.NewRNG(3)
	g := NewGenerator(p, 4, nil, 0, rng)
	// 1000 RPS expected; count arrivals in 2 simulated seconds.
	n := 0
	for {
		a := g.Next()
		if a.At > sim.Time(2*sim.Second) {
			break
		}
		n++
	}
	rate := float64(n) / 2
	if math.Abs(rate-1000)/1000 > 0.1 {
		t.Fatalf("arrival rate = %v, want ~1000", rate)
	}
}

func TestGeneratorArrivalsMonotone(t *testing.T) {
	p := profileNamed(t, "Text")
	g := NewGenerator(p, 4, nil, 0, stats.NewRNG(4))
	prev := sim.Time(0)
	for i := 0; i < 1000; i++ {
		a := g.Next()
		if a.At <= prev {
			t.Fatalf("non-monotone arrival at %d", i)
		}
		prev = a.At
	}
}

func TestGeneratorModulation(t *testing.T) {
	p := profileNamed(t, "Text")
	rng := stats.NewRNG(5)
	// Two-step series: quiet then burst, 100 ms per step.
	series := []float64{0.1, 0.9}
	g := NewGenerator(p, 4, series, 100*sim.Millisecond, rng)
	quiet, burst := 0, 0
	for {
		a := g.Next()
		if a.At >= sim.Time(200*sim.Millisecond) {
			break
		}
		if int64(a.At)/int64(100*sim.Millisecond)%2 == 0 {
			quiet++
		} else {
			burst++
		}
	}
	if burst <= quiet*3 {
		t.Fatalf("modulation weak: quiet=%d burst=%d", quiet, burst)
	}
}

// TestGeneratorVanishingRateSaturates: an intensity so small that the
// exponential gap overflows sim.Duration used to wrap the gap negative,
// clamp it to 1 ns and flood the run with arrivals. The gap and the cursor
// now saturate: every arrival lands past any reachable horizon, and
// further calls stay there instead of wrapping.
func TestGeneratorVanishingRateSaturates(t *testing.T) {
	p := profileNamed(t, "Text")
	g := NewGenerator(p, 4, nil, 0, stats.NewRNG(7))
	g.SetIntensity(1e-300)
	for i := 0; i < 4; i++ {
		if a := g.Next(); a.At < sim.Time(1<<62) {
			t.Fatalf("call %d: arrival at %d ps, want past the clock's span", i, a.At)
		}
	}
}

func TestCheckIntensity(t *testing.T) {
	for _, x := range []float64{MinIntensity, 0.25, 1, 40} {
		if err := CheckIntensity(x); err != nil {
			t.Errorf("CheckIntensity(%g) = %v, want nil", x, err)
		}
	}
	for _, x := range []float64{0, -1, 1e-300, MinIntensity / 2, math.Inf(1), math.NaN()} {
		if err := CheckIntensity(x); err == nil {
			t.Errorf("CheckIntensity(%g) accepted", x)
		}
	}
}

func TestGeneratorReset(t *testing.T) {
	p := profileNamed(t, "Text")
	g := NewGenerator(p, 4, nil, 0, stats.NewRNG(6))
	g.Next()
	g.Reset()
	a := g.Next()
	if a.At > sim.Time(sim.Second) {
		t.Fatalf("reset did not rewind cursor: %v", a.At)
	}
	if g.Profile() != p {
		t.Fatal("Profile() mismatch")
	}
}

func TestPoissonSampler(t *testing.T) {
	rng := stats.NewRNG(7)
	var sum int
	const n = 50000
	for i := 0; i < n; i++ {
		sum += samplePoisson(rng, math.Exp(-2.5))
	}
	mean := float64(sum) / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("poisson mean = %v", mean)
	}
	// A zero or negative mean draws no I/O call at all.
	for _, calls := range []float64{0, -1} {
		p := Profile{MeanCPU: 100 * sim.Microsecond, CPUSigma: 0.3, MeanIOCalls: calls,
			IOMean: 100 * sim.Microsecond, IOSigma: 0.3}
		if inv := p.Sample(rng); inv.IOCalls() != 0 || len(inv.Phases) != 1 {
			t.Fatalf("poisson(%v): %d phases, %d I/O calls; want 1 and 0", calls, len(inv.Phases), inv.IOCalls())
		}
	}
}

// TestSampleIntoRemembersConstants: a scratch that keeps log(MeanCPU),
// log(IOMean) and exp(-MeanIOCalls) between draws gives the same draws as a
// fresh one, while it alternates between profiles and after a profile's
// fields change.
func TestSampleIntoRemembersConstants(t *testing.T) {
	a, b := *profileNamed(t, "Text"), *profileNamed(t, "CPost")
	warm, cold := stats.NewRNG(3), stats.NewRNG(3)
	var s SampleScratch
	for i := 0; i < 2000; i++ {
		p := &a
		if i%3 == 0 {
			p = &b
		}
		if i == 1000 {
			a.MeanCPU *= 2
			a.IOMean /= 2
			a.MeanIOCalls = 0
		}
		got := p.SampleInto(warm, &s)
		want := p.Sample(cold)
		if !reflect.DeepEqual(got.Phases, want.Phases) {
			t.Fatalf("draw %d: warm scratch %v, fresh %v", i, got.Phases, want.Phases)
		}
	}
}

func TestLognormalWithMean(t *testing.T) {
	rng := stats.NewRNG(8)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += lognormalWithMean(rng, math.Log(250), 0.5)
	}
	mean := sum / n
	if math.Abs(mean-250)/250 > 0.02 {
		t.Fatalf("lognormal mean = %v, want 250", mean)
	}
}

func TestSuitesRoster(t *testing.T) {
	suites := Suites()
	if len(suites) != 3 {
		t.Fatalf("suites = %d", len(suites))
	}
	names := map[string]bool{}
	for _, s := range suites {
		if len(s.Services) < 4 {
			t.Errorf("%s has only %d services", s.Name, len(s.Services))
		}
		for _, p := range s.Services {
			if names[p.Name] {
				t.Errorf("duplicate service %q across suites", p.Name)
			}
			names[p.Name] = true
			if p.SharedFrac <= 0.4 || p.SharedFrac >= 0.9 {
				t.Errorf("%s shared fraction %v implausible", p.Name, p.SharedFrac)
			}
		}
	}
}

func TestProfileAllocationsMatchesSharedFrac(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, s := range Suites() {
		for _, p := range s.Services {
			r := ProfileAllocations(p, rng.Split(uint64(p.FootprintKB)), 20)
			if r.SharedPages == 0 || r.PrivatePages == 0 {
				t.Errorf("%s: degenerate page counts %d/%d", p.Name, r.SharedPages, r.PrivatePages)
				continue
			}
			// The access-level shared fraction must track the profile's
			// SharedFrac: pre-serve pages receive the reuse.
			if d := r.SharedAccessFrac - p.SharedFrac; d < -0.08 || d > 0.08 {
				t.Errorf("%s: measured shared access %.3f vs profile %.2f", p.Name, r.SharedAccessFrac, p.SharedFrac)
			}
			if r.FootprintKB <= 0 {
				t.Errorf("%s: empty footprint", p.Name)
			}
		}
	}
}
