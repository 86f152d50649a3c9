package workload

import (
	"fmt"
	"math"

	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

func mathLog(x float64) float64 { return math.Log(x) }
func mathExp(x float64) float64 { return math.Exp(x) }

// Arrival is one generated request arrival.
type Arrival struct {
	At  sim.Time
	Inv Invocation
}

// Generator produces an open-loop Poisson arrival stream for one Primary VM,
// optionally modulated by a utilization time series (the client is
// independent of the server: the offered load never adapts to latency, as in
// the paper's load generator [73]).
type Generator struct {
	profile *Profile
	rng     *stats.RNG
	cursor  sim.Time

	baseRate float64 // requests per second at series mean
	series   []float64
	seriesMu float64 // mean of series
	stepDur  sim.Duration

	// intensity scales the instantaneous rate (live-control surface).
	// It starts at exactly 1.0: x*1.0 is an IEEE-754 identity, so a run
	// that never calls SetIntensity samples bit-identical gaps.
	intensity float64

	// scratch backs each Next invocation's phases; see Next's aliasing
	// contract.
	scratch SampleScratch
}

// NewGenerator builds a generator for one VM with the given core count. The
// series (from the trace package) modulates the instantaneous rate around
// the profile's base RPS; pass nil for a constant rate. stepDur maps one
// series step to simulated time.
func NewGenerator(p *Profile, cores int, series []float64, stepDur sim.Duration, rng *stats.RNG) *Generator {
	g := &Generator{
		profile:   p,
		rng:       rng,
		baseRate:  p.BaseRPSPerCore * float64(cores),
		stepDur:   stepDur,
		intensity: 1.0,
	}
	if len(series) > 0 && stepDur > 0 {
		g.series = series
		sum := 0.0
		for _, v := range series {
			sum += v
		}
		g.seriesMu = sum / float64(len(series))
		if g.seriesMu <= 0 {
			g.series = nil
		}
	}
	return g
}

// Profile reports the generator's service profile.
func (g *Generator) Profile() *Profile { return g.profile }

// SetIntensity scales the generator's offered load by x (1.0 restores the
// configured rate). Panics if x is not positive: a zero rate would make the
// next exponential gap infinite.
func (g *Generator) SetIntensity(x float64) {
	if !(x > 0) {
		panic("workload: intensity must be positive")
	}
	g.intensity = x
}

// Intensity reports the current offered-load multiplier.
func (g *Generator) Intensity() float64 { return g.intensity }

// rateAt reports the instantaneous arrival rate (req/s) at time t.
func (g *Generator) rateAt(t sim.Time) float64 {
	if g.series == nil {
		return g.baseRate * g.intensity
	}
	step := int(int64(t)/int64(g.stepDur)) % len(g.series)
	r := g.baseRate * g.series[step] / g.seriesMu
	if r < g.baseRate*0.02 {
		r = g.baseRate * 0.02 // traces never go fully silent
	}
	return r * g.intensity
}

// Next returns the next arrival. The exponential gap is sampled at the
// current cursor's rate (a standard non-homogeneous approximation that is
// exact within a series step for our step sizes).
//
// The returned invocation's phases alias a generator-owned scratch buffer
// and stay valid only until the following Next call; consumers that keep an
// invocation across arrivals must copy the phases out.
//
// A gap too long for the simulated clock (a vanishing rate) saturates
// (sim.Span) instead of wrapping negative, and so does the cursor, so such
// an arrival lands past every horizon.
func (g *Generator) Next() Arrival {
	rate := g.rateAt(g.cursor)
	gapSec := g.rng.Exp(1 / rate)
	gap := sim.Span(gapSec * float64(sim.Second))
	if gap < sim.Nanosecond {
		gap = sim.Nanosecond
	}
	if g.cursor <= math.MaxInt64-sim.Time(gap) {
		g.cursor = g.cursor.Add(gap)
	} else {
		g.cursor = math.MaxInt64
	}
	return Arrival{At: g.cursor, Inv: g.profile.SampleInto(g.rng, &g.scratch)}
}

// MinIntensity is the smallest offered-load multiplier the external
// control surfaces (scenario timelines, hhsim serve's config and replay)
// accept. At the lowest rate a generator can run (a trace trough at 2% of
// a one-core VM's base rate of at least 60 req/s), the mean inter-arrival
// gap at MinIntensity is already about ten simulated days; much below it,
// draws past the simulated clock's range become common and the VM is as
// good as silent.
const MinIntensity = 1e-6

// CheckIntensity reports why x cannot be an offered-load multiplier set
// from outside the program, or nil.
func CheckIntensity(x float64) error {
	if !(x >= MinIntensity) || math.IsInf(x, 1) {
		return fmt.Errorf("must be positive, finite and at least %g, got %g", MinIntensity, x)
	}
	return nil
}

// Reset rewinds the generator's clock without reseeding.
func (g *Generator) Reset() { g.cursor = 0 }
