// Package workload models the latency-critical microservices that run in
// Primary VMs: per-service execution profiles (CPU bursts separated by
// blocking I/O to backend services), and an open-loop load generator whose
// arrival rate follows Alibaba-like utilization traces. The eight services
// mirror the SocialNetwork microservices the paper evaluates (Text, SGraph,
// User, PstStr, UsrMnt, HomeT, CPost, UrlShort), with execution-time scale
// (100s of microseconds), blocking frequency, and working-set character
// taken from the paper's descriptions.
package workload

import (
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// Profile describes one microservice's request behaviour.
type Profile struct {
	// Name is the service's short name as used in the paper's figures.
	Name string
	// MeanCPU is the mean total CPU time of a request across all bursts.
	MeanCPU sim.Duration
	// CPUSigma is the log-normal sigma of the total CPU time.
	CPUSigma float64
	// MeanIOCalls is the mean number of blocking I/O calls per request
	// (synchronous RPCs to caches, key-value stores, databases).
	MeanIOCalls float64
	// IOMean is the mean duration of one blocking I/O call, including the
	// 1 us inter-server round trip and the profiled backend time.
	IOMean sim.Duration
	// IOSigma is the log-normal sigma of each I/O duration.
	IOSigma float64
	// SharedFrac is the fraction of the service's memory accesses that
	// touch pages shared across invocations (code, libraries, read-only
	// data); services like HomeT operate mostly on shared pages.
	SharedFrac float64
	// FootprintKB is the approximate per-invocation working set.
	FootprintKB int
	// BaseRPSPerCore is the average request rate per allocated core
	// (the paper's load range is 65-250 RPS per Primary VM core).
	BaseRPSPerCore float64
}

// Profiles returns the eight evaluated services. The relative shapes follow
// the paper: User blocks on I/O most frequently; HomeT is shared-page-heavy;
// CPost is the orchestrating service with the longest path; UrlShort is the
// smallest.
func Profiles() []*Profile {
	return []*Profile{
		{Name: "Text", MeanCPU: 720 * sim.Microsecond, CPUSigma: 0.35,
			MeanIOCalls: 1.0, IOMean: 360 * sim.Microsecond, IOSigma: 0.4,
			SharedFrac: 0.60, FootprintKB: 260, BaseRPSPerCore: 160},
		{Name: "SGraph", MeanCPU: 450 * sim.Microsecond, CPUSigma: 0.40,
			MeanIOCalls: 2.2, IOMean: 480 * sim.Microsecond, IOSigma: 0.5,
			SharedFrac: 0.55, FootprintKB: 300, BaseRPSPerCore: 140},
		{Name: "User", MeanCPU: 360 * sim.Microsecond, CPUSigma: 0.35,
			MeanIOCalls: 3.4, IOMean: 440 * sim.Microsecond, IOSigma: 0.5,
			SharedFrac: 0.55, FootprintKB: 220, BaseRPSPerCore: 180},
		{Name: "PstStr", MeanCPU: 540 * sim.Microsecond, CPUSigma: 0.40,
			MeanIOCalls: 1.8, IOMean: 600 * sim.Microsecond, IOSigma: 0.5,
			SharedFrac: 0.50, FootprintKB: 340, BaseRPSPerCore: 120},
		{Name: "UsrMnt", MeanCPU: 420 * sim.Microsecond, CPUSigma: 0.35,
			MeanIOCalls: 1.2, IOMean: 320 * sim.Microsecond, IOSigma: 0.4,
			SharedFrac: 0.58, FootprintKB: 200, BaseRPSPerCore: 200},
		{Name: "HomeT", MeanCPU: 900 * sim.Microsecond, CPUSigma: 0.35,
			MeanIOCalls: 2.0, IOMean: 400 * sim.Microsecond, IOSigma: 0.4,
			SharedFrac: 0.78, FootprintKB: 420, BaseRPSPerCore: 90},
		{Name: "CPost", MeanCPU: 1140 * sim.Microsecond, CPUSigma: 0.40,
			MeanIOCalls: 3.0, IOMean: 480 * sim.Microsecond, IOSigma: 0.5,
			SharedFrac: 0.62, FootprintKB: 480, BaseRPSPerCore: 65},
		{Name: "UrlShort", MeanCPU: 240 * sim.Microsecond, CPUSigma: 0.30,
			MeanIOCalls: 0.6, IOMean: 280 * sim.Microsecond, IOSigma: 0.4,
			SharedFrac: 0.65, FootprintKB: 120, BaseRPSPerCore: 250},
	}
}

// MeanDemand is the mean end-to-end service demand of one request: total
// CPU plus the expected blocking time (MeanIOCalls draws of IOMean). It is
// the natural unit for SLO-derived resilience deadlines.
func (p *Profile) MeanDemand() sim.Duration {
	return p.MeanCPU + sim.Duration(p.MeanIOCalls*float64(p.IOMean))
}

// RandomProfile draws a bounded random service shape for fuzzing: every
// field stays inside the envelope spanned by the eight real services, so a
// random profile stresses scheduling without producing degenerate (zero- or
// hour-long) requests.
func RandomProfile(rng *stats.RNG, name string) *Profile {
	return &Profile{
		Name:           name,
		MeanCPU:        sim.Duration(100+rng.Intn(1200)) * sim.Microsecond,
		CPUSigma:       0.2 + 0.4*rng.Float64(),
		MeanIOCalls:    4 * rng.Float64(),
		IOMean:         sim.Duration(100+rng.Intn(600)) * sim.Microsecond,
		IOSigma:        0.2 + 0.4*rng.Float64(),
		SharedFrac:     0.4 + 0.4*rng.Float64(),
		FootprintKB:    100 + rng.Intn(400),
		BaseRPSPerCore: 60 + 200*rng.Float64(),
	}
}

// Phase is one CPU burst optionally followed by a blocking I/O call
// (IO == 0 for the final burst).
type Phase struct {
	CPU sim.Duration
	IO  sim.Duration
}

// Invocation is one sampled request: a sequence of phases.
type Invocation struct {
	Service *Profile
	Phases  []Phase
}

// TotalCPU sums the CPU time across phases.
func (inv Invocation) TotalCPU() sim.Duration {
	var d sim.Duration
	for _, ph := range inv.Phases {
		d += ph.CPU
	}
	return d
}

// TotalIO sums the blocking time across phases.
func (inv Invocation) TotalIO() sim.Duration {
	var d sim.Duration
	for _, ph := range inv.Phases {
		d += ph.IO
	}
	return d
}

// IOCalls counts the blocking calls.
func (inv Invocation) IOCalls() int {
	n := 0
	for _, ph := range inv.Phases {
		if ph.IO > 0 {
			n++
		}
	}
	return n
}

// SampleScratch holds the reusable buffers SampleInto draws into. One
// scratch serves one sampling stream: the returned Invocation aliases the
// scratch, so each call invalidates the previous call's phases. It also
// remembers the per-draw constants of the profile values it last sampled,
// so a stream takes no logarithm or exponential per draw while those
// values stay the same.
type SampleScratch struct {
	phases  []Phase
	weights []float64 // same capacity as phases
	// cpuLog, ioLog and ioZero hold log(MeanCPU), log(IOMean) and
	// exp(-MeanIOCalls).
	cpuLog, ioLog, ioZero memo
}

// memo remembers f(x) for the last x it was given. A profile's fields may
// differ from draw to draw (a scratch can serve several profiles), so the
// value is checked, not assumed; the cache lives in the scratch, never in
// the profile that servers on several goroutines share.
type memo struct {
	x, fx float64
	set   bool
}

func (m *memo) of(x float64, f func(float64) float64) float64 {
	if !m.set || m.x != x {
		m.x, m.fx, m.set = x, f(x), true
	}
	return m.fx
}

// Sample draws one invocation: the total CPU time is log-normal around
// MeanCPU, split across bursts separated by a Poisson-ish number of I/O
// calls with log-normal durations. The returned phases are freshly
// allocated; hot callers that copy the phases out anyway should use
// SampleInto with a long-lived scratch instead.
func (p *Profile) Sample(rng *stats.RNG) Invocation {
	var s SampleScratch
	return p.SampleInto(rng, &s)
}

// SampleInto is Sample drawing into caller-owned scratch buffers, so a warm
// sampling loop allocates nothing. The RNG consumption is identical to
// Sample draw for draw — a run keeps its exact event sequence no matter
// which entry point generated its invocations.
func (p *Profile) SampleInto(rng *stats.RNG, s *SampleScratch) Invocation {
	totalCPU := lognormalWithMean(rng, s.cpuLog.of(float64(p.MeanCPU), mathLog), p.CPUSigma)
	nIO := 0
	if p.MeanIOCalls > 0 {
		nIO = samplePoisson(rng, s.ioZero.of(-p.MeanIOCalls, mathExp))
	}
	if cap(s.phases) < nIO+1 {
		// Headroom: growing to exactly nIO+1 would reallocate on every
		// new maximum the Poisson draw reaches.
		s.phases = make([]Phase, 2*(nIO+1))
		s.weights = make([]float64, 2*(nIO+1))
	}
	phases := s.phases[:nIO+1]
	weights := s.weights[:nIO+1]
	// Split CPU across bursts with a light imbalance so bursts differ.
	wsum := 0.0
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
		wsum += weights[i]
	}
	for i := range phases {
		ph := Phase{CPU: sim.Duration(totalCPU * weights[i] / wsum)}
		if ph.CPU < sim.Microsecond {
			ph.CPU = sim.Microsecond
		}
		if i < nIO {
			ph.IO = sim.Duration(lognormalWithMean(rng, s.ioLog.of(float64(p.IOMean), mathLog), p.IOSigma))
			if ph.IO < sim.Microsecond {
				ph.IO = sim.Microsecond
			}
		}
		phases[i] = ph
	}
	return Invocation{Service: p, Phases: phases}
}

// lognormalWithMean samples a log-normal with the requested arithmetic mean
// (not median) and sigma, given the mean's logarithm.
func lognormalWithMean(rng *stats.RNG, logMean, sigma float64) float64 {
	mu := logMean - sigma*sigma/2
	return rng.LogNormal(mu, sigma)
}

// samplePoisson draws a small Poisson count via inversion, given
// l = exp(-mean) for a positive mean; means here are tiny (< 5), so the
// loop is short.
func samplePoisson(rng *stats.RNG, l float64) int {
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 64 {
			return 64
		}
	}
}
