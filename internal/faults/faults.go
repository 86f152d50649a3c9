// Package faults defines deterministic, seed-driven fault plans for the
// cluster simulator: server crash/restart, per-core degradation and
// offlining, I/O straggler multipliers, harvest-preemption storms, and
// correlated burst faults. A Plan is either loaded from JSON (hhsim
// -faults plan.json) or built programmatically; Expand turns it into a
// sorted, fully concrete event schedule for one server, so the simulator
// can pre-register every injection through its allocation-free typed
// event path. Expansion is a pure function of (plan, seed, cores,
// horizon): the same inputs always produce the same schedule.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"hardharvest/internal/jsonx"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// CoreDegrade multiplies a core's execution time by Factor for Dur
	// (thermal throttling, co-located interference, faulty DIMM channel).
	CoreDegrade Kind = iota
	// CoreOffline removes a core for Dur: its running work is interrupted
	// and requeued, and the core accepts no dispatches until the fault ends.
	CoreOffline
	// IOStraggler multiplies the duration of blocking I/O calls issued
	// while the fault is active by Factor (slow backend, packet loss).
	IOStraggler
	// PreemptStorm fires reclamation preempts at up to Count cores that are
	// currently running loaned harvest work (a burst of Primary VM demand).
	PreemptStorm
	// ServerCrash takes every core offline for Dur (fail-stop restart with
	// durable queues: in-flight work is requeued, nothing is lost).
	ServerCrash
)

var kindNames = [...]string{
	CoreDegrade:  "core_degrade",
	CoreOffline:  "core_offline",
	IOStraggler:  "io_straggler",
	PreemptStorm: "preempt_storm",
	ServerCrash:  "crash",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind resolves a fault-plan kind name as used in scripted events.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q (want one of %s)", s, strings.Join(kindNames[:], ", "))
}

// Event is one concrete, expanded injection.
type Event struct {
	At   sim.Time
	Dur  sim.Duration
	Kind Kind
	// Core is the victim core index (-1 for server-wide kinds).
	Core int
	// Factor is the degradation/straggler multiplier.
	Factor float64
	// Count is the storm width (PreemptStorm).
	Count int
}

// Spec parameterizes one random fault generator. Zero-valued optional
// fields take the kind's defaults at expansion time.
type Spec struct {
	// RatePerSec is the Poisson rate of this fault class, scaled by the
	// plan's Intensity.
	RatePerSec float64 `json:"rate_per_s"`
	// DurationMS is the mean fault duration in simulated milliseconds.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Factor is the execution/I/O multiplier (CoreDegrade, IOStraggler).
	Factor float64 `json:"factor,omitempty"`
	// Count is the number of victims (PreemptStorm width, Burst size).
	Count int `json:"count,omitempty"`
	// SpanMS staggers a Burst's correlated core-offline events over this
	// many milliseconds.
	SpanMS float64 `json:"span_ms,omitempty"`
	// Jitter in [0,1) spreads each duration uniformly by ±Jitter.
	Jitter float64 `json:"jitter,omitempty"`
}

// ScriptedEvent is one hand-placed injection in a JSON plan.
type ScriptedEvent struct {
	AtMS       float64 `json:"at_ms"`
	Kind       string  `json:"kind"`
	Core       int     `json:"core,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	Factor     float64 `json:"factor,omitempty"`
	Count      int     `json:"count,omitempty"`
}

// Plan is a complete fault scenario: random generators per fault class
// plus scripted one-off events. The zero Plan injects nothing.
type Plan struct {
	// Seed decorrelates the plan's randomness; it is mixed with the
	// server's own seed at expansion time.
	Seed uint64 `json:"seed,omitempty"`
	// Intensity scales every generator rate; 0 means 1 (the faultsweep
	// experiment sweeps it).
	Intensity float64 `json:"intensity,omitempty"`

	CoreDegrade  *Spec `json:"core_degrade,omitempty"`
	CoreOffline  *Spec `json:"core_offline,omitempty"`
	IOStraggler  *Spec `json:"io_straggler,omitempty"`
	PreemptStorm *Spec `json:"preempt_storm,omitempty"`
	Crash        *Spec `json:"crash,omitempty"`
	// Burst emits correlated groups: each burst takes Count distinct cores
	// offline within SpanMS (correlated rack/PSU-style failures).
	Burst *Spec `json:"burst,omitempty"`

	Events []ScriptedEvent `json:"events,omitempty"`
}

// maxRatePerSec bounds generator rates so a malformed plan cannot expand
// into an unbounded event schedule.
const maxRatePerSec = 20000

// maxFactor bounds the core_degrade and io_straggler multipliers: a
// millisecond-scale service time scaled by it stays many orders of
// magnitude inside the simulated clock, where a factor like 1e300 would
// carry it past int64.
const maxFactor = 1000

func validFactor(f float64) bool { return f >= 1 && f <= maxFactor }

// Parse decodes and validates a JSON plan. Unknown fields, type
// mismatches, and semantic errors are reported with field- or
// offset-level context so a bad plan fails fast, before any simulation.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("fault plan: %s", describeJSONError(data, err))
	}
	// A plan is exactly one JSON document: content after it is a malformed
	// file (e.g. two concatenated plans), not something to silently ignore.
	if dec.More() {
		line, col := jsonx.LineCol(data, dec.InputOffset())
		return nil, fmt.Errorf("fault plan: line %d, column %d: trailing data after the plan document", line, col)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	return p, nil
}

// Load reads and parses a JSON plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// describeJSONError augments a decode error with line:column position when
// the error carries a byte offset. It delegates to the shared ingestion
// helper so fault plans, action logs, and scenario files all report
// positions identically.
func describeJSONError(data []byte, err error) string {
	return jsonx.DescribeError(data, err)
}

// Validate checks every field and returns the first problem with its
// field path (e.g. "core_degrade.factor: must be >= 1").
func (p *Plan) Validate() error {
	if p.Intensity < 0 {
		return fmt.Errorf("intensity: must be non-negative, got %g", p.Intensity)
	}
	type fieldSpec struct {
		name        string
		spec        *Spec
		needsDur    bool
		needsFactor bool
		needsCount  bool
	}
	for _, fs := range []fieldSpec{
		{"core_degrade", p.CoreDegrade, true, true, false},
		{"core_offline", p.CoreOffline, true, false, false},
		{"io_straggler", p.IOStraggler, true, true, false},
		{"preempt_storm", p.PreemptStorm, false, false, true},
		{"crash", p.Crash, true, false, false},
		{"burst", p.Burst, true, false, true},
	} {
		if fs.spec == nil {
			continue
		}
		s := fs.spec
		switch {
		case s.RatePerSec <= 0:
			return fmt.Errorf("%s.rate_per_s: must be positive, got %g", fs.name, s.RatePerSec)
		case s.RatePerSec > maxRatePerSec:
			return fmt.Errorf("%s.rate_per_s: must be <= %d, got %g", fs.name, maxRatePerSec, s.RatePerSec)
		case fs.needsDur && s.DurationMS <= 0:
			return fmt.Errorf("%s.duration_ms: must be positive, got %g", fs.name, s.DurationMS)
		case fs.needsFactor && !validFactor(s.Factor):
			return fmt.Errorf("%s.factor: must be in [1, %d], got %g", fs.name, maxFactor, s.Factor)
		case fs.needsCount && s.Count < 1:
			return fmt.Errorf("%s.count: must be >= 1, got %d", fs.name, s.Count)
		case s.SpanMS < 0:
			return fmt.Errorf("%s.span_ms: must be non-negative, got %g", fs.name, s.SpanMS)
		case !fitsClock(s.DurationMS):
			return fmt.Errorf("%s.duration_ms: %g ms does not fit the simulated clock", fs.name, s.DurationMS)
		case !fitsClock(s.SpanMS):
			return fmt.Errorf("%s.span_ms: %g ms does not fit the simulated clock", fs.name, s.SpanMS)
		case s.Jitter < 0 || s.Jitter >= 1:
			return fmt.Errorf("%s.jitter: must be in [0,1), got %g", fs.name, s.Jitter)
		}
	}
	for i, ev := range p.Events {
		k, err := ParseKind(ev.Kind)
		if err != nil {
			return fmt.Errorf("events[%d].kind: %w", i, err)
		}
		if ev.AtMS < 0 {
			return fmt.Errorf("events[%d].at_ms: must be non-negative, got %g", i, ev.AtMS)
		}
		if !fitsClock(ev.AtMS) {
			return fmt.Errorf("events[%d].at_ms: %g ms does not fit the simulated clock", i, ev.AtMS)
		}
		if !fitsClock(ev.DurationMS) {
			return fmt.Errorf("events[%d].duration_ms: %g ms does not fit the simulated clock", i, ev.DurationMS)
		}
		switch k {
		case CoreDegrade, CoreOffline, IOStraggler, ServerCrash:
			if ev.DurationMS <= 0 {
				return fmt.Errorf("events[%d].duration_ms: must be positive for %s, got %g", i, k, ev.DurationMS)
			}
		}
		switch k {
		case CoreDegrade, IOStraggler:
			if !validFactor(ev.Factor) {
				return fmt.Errorf("events[%d].factor: must be in [1, %d] for %s, got %g", i, maxFactor, k, ev.Factor)
			}
		}
		if (k == CoreDegrade || k == CoreOffline) && ev.Core < 0 {
			return fmt.Errorf("events[%d].core: must be non-negative for %s, got %d", i, k, ev.Core)
		}
	}
	return nil
}

// Scaled returns a copy of the plan with its intensity multiplied by x
// (an unset intensity counts as 1). Spec pointers are shared; Specs are
// read-only after validation.
func (p *Plan) Scaled(x float64) *Plan {
	q := *p
	base := p.Intensity
	if base <= 0 {
		base = 1
	}
	q.Intensity = base * x
	return &q
}

func ms(v float64) sim.Duration { return sim.Duration(v * float64(sim.Millisecond)) }

// fitsClock reports whether a millisecond field converts to a Duration
// without wrapping; Validate refuses the ones that do not, which ms would
// otherwise turn into negative delays.
func fitsClock(v float64) bool {
	_, ok := sim.FromMilliseconds(v)
	return ok
}

// Expand turns the plan into the concrete, time-sorted injection schedule
// for one server: seed is the server's own seed (mixed with the plan's),
// cores is the server core count, horizon bounds the schedule. The result
// is deterministic in its inputs.
func (p *Plan) Expand(seed uint64, cores int, horizon sim.Duration) []Event {
	if p == nil || cores <= 0 || horizon <= 0 {
		return nil
	}
	intensity := p.Intensity
	if intensity <= 0 {
		intensity = 1
	}
	root := stats.NewRNG(p.Seed ^ (seed * 0x9E3779B97F4A7C15))
	var evs []Event

	jitterDur := func(rng *stats.RNG, s *Spec) sim.Duration {
		d := ms(s.DurationMS)
		if s.Jitter > 0 {
			d = sim.Duration(float64(d) * (1 + s.Jitter*(2*rng.Float64()-1)))
		}
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		return d
	}
	// Each generator draws from its own split stream, so adding or removing
	// one fault class never perturbs the others' schedules.
	gen := func(label uint64, spec *Spec, emit func(rng *stats.RNG, at sim.Time, s *Spec)) {
		if spec == nil || spec.RatePerSec <= 0 {
			return
		}
		rng := root.Split(label)
		meanGap := float64(sim.Second) / (spec.RatePerSec * intensity)
		t := sim.Time(0)
		for {
			t = t.Add(sim.Duration(rng.Exp(meanGap)))
			if t >= sim.Time(horizon) {
				return
			}
			emit(rng, t, spec)
		}
	}
	gen(1, p.CoreDegrade, func(rng *stats.RNG, at sim.Time, s *Spec) {
		evs = append(evs, Event{At: at, Kind: CoreDegrade, Core: rng.Intn(cores),
			Factor: s.Factor, Dur: jitterDur(rng, s)})
	})
	gen(2, p.CoreOffline, func(rng *stats.RNG, at sim.Time, s *Spec) {
		evs = append(evs, Event{At: at, Kind: CoreOffline, Core: rng.Intn(cores),
			Dur: jitterDur(rng, s)})
	})
	gen(3, p.IOStraggler, func(rng *stats.RNG, at sim.Time, s *Spec) {
		evs = append(evs, Event{At: at, Kind: IOStraggler, Core: -1,
			Factor: s.Factor, Dur: jitterDur(rng, s)})
	})
	gen(4, p.PreemptStorm, func(rng *stats.RNG, at sim.Time, s *Spec) {
		evs = append(evs, Event{At: at, Kind: PreemptStorm, Core: -1, Count: s.Count})
	})
	gen(5, p.Crash, func(rng *stats.RNG, at sim.Time, s *Spec) {
		evs = append(evs, Event{At: at, Kind: ServerCrash, Core: -1, Dur: jitterDur(rng, s)})
	})
	gen(6, p.Burst, func(rng *stats.RNG, at sim.Time, s *Spec) {
		n := s.Count
		if n > cores {
			n = cores
		}
		victims := rng.Perm(cores)[:n]
		span := ms(s.SpanMS)
		for _, core := range victims {
			off := sim.Duration(0)
			if span > 0 {
				off = sim.Duration(rng.Float64() * float64(span))
			}
			evs = append(evs, Event{At: at.Add(off), Kind: CoreOffline, Core: core,
				Dur: jitterDur(rng, s)})
		}
	})
	for _, se := range p.Events {
		k, err := ParseKind(se.Kind)
		if err != nil {
			continue // Validate rejects these; tolerate hand-built plans
		}
		at := sim.Time(ms(se.AtMS))
		if at >= sim.Time(horizon) {
			continue
		}
		core := se.Core
		if k == IOStraggler || k == PreemptStorm || k == ServerCrash {
			core = -1
		} else if core >= cores {
			core %= cores
		}
		count := se.Count
		if k == PreemptStorm && count < 1 {
			count = 1
		}
		evs = append(evs, Event{At: at, Kind: k, Core: core, Dur: ms(se.DurationMS),
			Factor: se.Factor, Count: count})
	}
	// A full-field tiebreak keeps the order independent of generator
	// emission order for coincident events.
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Count < b.Count
	})
	return evs
}

// DefaultPlan returns a moderate mixed-fault scenario at intensity 1: a
// few crashes per second of simulated time, steady per-core degradation
// and offlining, I/O stragglers, preemption storms, and occasional
// correlated bursts. The faultsweep experiment scales it.
func DefaultPlan() *Plan {
	return &Plan{
		Seed:         0x5EED,
		Intensity:    1,
		CoreOffline:  &Spec{RatePerSec: 40, DurationMS: 2, Jitter: 0.5},
		CoreDegrade:  &Spec{RatePerSec: 80, DurationMS: 4, Factor: 5, Jitter: 0.5},
		IOStraggler:  &Spec{RatePerSec: 50, DurationMS: 2, Factor: 6, Jitter: 0.5},
		PreemptStorm: &Spec{RatePerSec: 15, Count: 4},
		Crash:        &Spec{RatePerSec: 1.5, DurationMS: 3, Jitter: 0.3},
		Burst:        &Spec{RatePerSec: 3, Count: 6, SpanMS: 0.5, DurationMS: 2, Jitter: 0.3},
	}
}

// RandomPlan draws a structurally valid random plan (for fuzzing): a
// random subset of generators with bounded parameters. The result always
// passes Validate.
func RandomPlan(rng *stats.RNG) *Plan {
	p := &Plan{Seed: rng.Uint64(), Intensity: 0.25 + 2*rng.Float64()}
	if rng.Bool(0.7) {
		p.CoreOffline = &Spec{RatePerSec: 1 + rng.Float64()*150, DurationMS: 0.05 + rng.Float64()*6, Jitter: rng.Float64() * 0.9}
	}
	if rng.Bool(0.7) {
		p.CoreDegrade = &Spec{RatePerSec: 1 + rng.Float64()*200, DurationMS: 0.05 + rng.Float64()*4, Factor: 1 + rng.Float64()*9, Jitter: rng.Float64() * 0.9}
	}
	if rng.Bool(0.6) {
		p.IOStraggler = &Spec{RatePerSec: 1 + rng.Float64()*100, DurationMS: 0.05 + rng.Float64()*3, Factor: 1 + rng.Float64()*7}
	}
	if rng.Bool(0.6) {
		p.PreemptStorm = &Spec{RatePerSec: 1 + rng.Float64()*60, Count: 1 + rng.Intn(8)}
	}
	if rng.Bool(0.4) {
		p.Crash = &Spec{RatePerSec: 0.5 + rng.Float64()*4, DurationMS: 0.2 + rng.Float64()*5, Jitter: rng.Float64() * 0.5}
	}
	if rng.Bool(0.4) {
		p.Burst = &Spec{RatePerSec: 0.5 + rng.Float64()*8, Count: 1 + rng.Intn(10), SpanMS: rng.Float64(), DurationMS: 0.1 + rng.Float64()*4}
	}
	return p
}
