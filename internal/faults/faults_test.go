package faults

import (
	"reflect"
	"strings"
	"testing"

	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

func TestParseValidPlan(t *testing.T) {
	data := []byte(`{
		"seed": 7,
		"intensity": 1.5,
		"core_offline": {"rate_per_s": 40, "duration_ms": 2, "jitter": 0.5},
		"io_straggler": {"rate_per_s": 10, "duration_ms": 1, "factor": 4},
		"events": [{"at_ms": 5, "kind": "crash", "duration_ms": 3}]
	}`)
	p, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Seed != 7 || p.Intensity != 1.5 {
		t.Fatalf("header fields wrong: %+v", p)
	}
	if p.CoreOffline == nil || p.CoreOffline.RatePerSec != 40 {
		t.Fatalf("core_offline wrong: %+v", p.CoreOffline)
	}
	if len(p.Events) != 1 || p.Events[0].Kind != "crash" {
		t.Fatalf("events wrong: %+v", p.Events)
	}
}

func TestParseUnknownField(t *testing.T) {
	_, err := Parse([]byte(`{"core_offline": {"rate_per_s": 1, "duration_ms": 1, "bogus": 2}}`))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want unknown-field error mentioning bogus, got %v", err)
	}
}

func TestParseSyntaxErrorHasPosition(t *testing.T) {
	_, err := Parse([]byte("{\n  \"intensity\": oops\n}"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-positioned syntax error, got %v", err)
	}
}

// TestParseErrorLineColumnExact pins the exact line and column reported
// for decode errors on multi-line plan documents. The decoder reads
// straight from the input bytes (bytes.NewReader — no copy), so the
// offsets it reports must land precisely on the offending token of the
// document the user wrote.
func TestParseErrorLineColumnExact(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			name: "syntax error on line 3",
			doc:  "{\n  \"intensity\": 1,\n  \"crash\": nope\n}",
			want: "line 3, column 14",
		},
		{
			name: "type error mid-document",
			doc: "{\n  \"core_offline\": {\n    \"rate_per_s\": \"fast\",\n" +
				"    \"duration_ms\": 1\n  }\n}",
			want: "line 3, column 25",
		},
		{
			name: "type error after blank lines",
			doc:  "{\n\n\n  \"events\": {}\n}",
			want: "line 4, column 14",
		},
		{
			name: "trailing garbage",
			doc:  "{\n  \"intensity\": 1\n}\ntrailing",
			want: "line 4, column 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatal("plan unexpectedly parsed")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not pin position %q", err, tc.want)
			}
		})
	}
}

func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"negative intensity", Plan{Intensity: -1}, "intensity"},
		{"zero rate", Plan{CoreOffline: &Spec{RatePerSec: 0, DurationMS: 1}}, "core_offline.rate_per_s"},
		{"huge rate", Plan{Crash: &Spec{RatePerSec: 1e6, DurationMS: 1}}, "crash.rate_per_s"},
		{"missing duration", Plan{CoreOffline: &Spec{RatePerSec: 1}}, "core_offline.duration_ms"},
		{"bad factor", Plan{CoreDegrade: &Spec{RatePerSec: 1, DurationMS: 1, Factor: 0.5}}, "core_degrade.factor"},
		{"bad count", Plan{PreemptStorm: &Spec{RatePerSec: 1}}, "preempt_storm.count"},
		{"bad jitter", Plan{IOStraggler: &Spec{RatePerSec: 1, DurationMS: 1, Factor: 2, Jitter: 1}}, "io_straggler.jitter"},
		{"bad event kind", Plan{Events: []ScriptedEvent{{Kind: "meteor"}}}, "events[0].kind"},
		{"event missing dur", Plan{Events: []ScriptedEvent{{Kind: "core_offline"}}}, "events[0].duration_ms"},
		{"event bad factor", Plan{Events: []ScriptedEvent{{Kind: "io_straggler", DurationMS: 1, Factor: 0.2}}}, "events[0].factor"},
		{"huge factor", Plan{CoreDegrade: &Spec{RatePerSec: 1, DurationMS: 1, Factor: 1e300}}, "core_degrade.factor: must be in [1, 1000], got 1e+300"},
		{"huge straggler factor", Plan{IOStraggler: &Spec{RatePerSec: 1, DurationMS: 1, Factor: 1001}}, "io_straggler.factor: must be in [1, 1000]"},
		{"event huge factor", Plan{Events: []ScriptedEvent{{Kind: "core_degrade", DurationMS: 1, Factor: 1e300}}}, "events[0].factor: must be in [1, 1000] for core_degrade, got 1e+300"},
		{"event huge straggler factor", Plan{Events: []ScriptedEvent{{Kind: "io_straggler", DurationMS: 1, Factor: 2e3}}}, "events[0].factor: must be in [1, 1000] for io_straggler"},
		{"event negative time", Plan{Events: []ScriptedEvent{{Kind: "preempt_storm", AtMS: -1}}}, "events[0].at_ms"},
		{"duration past the clock", Plan{CoreOffline: &Spec{RatePerSec: 1, DurationMS: 1e10}}, "core_offline.duration_ms: 1e+10 ms does not fit"},
		{"span past the clock", Plan{Burst: &Spec{RatePerSec: 1, DurationMS: 1, Count: 2, SpanMS: 1e10}}, "burst.span_ms: 1e+10 ms does not fit"},
		{"event time past the clock", Plan{Events: []ScriptedEvent{{Kind: "preempt_storm", AtMS: 1e10}}}, "events[0].at_ms: 1e+10 ms does not fit"},
		{"event duration past the clock", Plan{Events: []ScriptedEvent{{Kind: "core_offline", AtMS: 5, DurationMS: 1e10}}}, "events[0].duration_ms: 1e+10 ms does not fit"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}
	if err := (&Plan{}).Validate(); err != nil {
		t.Errorf("empty plan should validate, got %v", err)
	}
	if err := DefaultPlan().Validate(); err != nil {
		t.Errorf("DefaultPlan should validate, got %v", err)
	}
}

func TestExpandDeterministicSortedBounded(t *testing.T) {
	p := DefaultPlan()
	horizon := 200 * sim.Millisecond
	a := p.Expand(42, 36, horizon)
	b := p.Expand(42, 36, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Expand not deterministic for identical inputs")
	}
	if len(a) == 0 {
		t.Fatal("DefaultPlan expanded to zero events over 200ms")
	}
	c := p.Expand(43, 36, horizon)
	if reflect.DeepEqual(a, c) {
		t.Fatal("Expand should differ across server seeds")
	}
	for i, ev := range a {
		if ev.At >= sim.Time(horizon) {
			t.Fatalf("event %d at %v beyond horizon", i, ev.At)
		}
		if ev.Core >= 36 {
			t.Fatalf("event %d core %d out of range", i, ev.Core)
		}
		switch ev.Kind {
		case CoreDegrade, CoreOffline:
			if ev.Core < 0 {
				t.Fatalf("event %d (%v) needs a core", i, ev.Kind)
			}
			if ev.Dur <= 0 {
				t.Fatalf("event %d (%v) needs a duration", i, ev.Kind)
			}
		case IOStraggler, PreemptStorm, ServerCrash:
			if ev.Core != -1 {
				t.Fatalf("event %d (%v) should be server-wide, core=%d", i, ev.Kind, ev.Core)
			}
		}
		if i > 0 && a[i-1].At > ev.At {
			t.Fatalf("events not sorted at %d", i)
		}
	}
}

func TestExpandIntensityScalesRate(t *testing.T) {
	p := &Plan{CoreOffline: &Spec{RatePerSec: 100, DurationMS: 1}}
	horizon := 500 * sim.Millisecond
	base := len(p.Expand(1, 8, horizon))
	hot := len(p.Scaled(4).Expand(1, 8, horizon))
	if hot < base*2 {
		t.Fatalf("intensity 4x should at least double events: base=%d hot=%d", base, hot)
	}
}

func TestScaled(t *testing.T) {
	p := &Plan{Intensity: 2}
	if got := p.Scaled(3).Intensity; got != 6 {
		t.Fatalf("Scaled: want 6, got %g", got)
	}
	q := &Plan{} // unset intensity counts as 1
	if got := q.Scaled(0.5).Intensity; got != 0.5 {
		t.Fatalf("Scaled unset: want 0.5, got %g", got)
	}
	if p.Intensity != 2 {
		t.Fatal("Scaled must not mutate the receiver")
	}
}

func TestExpandNilAndEmpty(t *testing.T) {
	var p *Plan
	if got := p.Expand(1, 8, sim.Second); got != nil {
		t.Fatalf("nil plan: want nil, got %d events", len(got))
	}
	if got := (&Plan{}).Expand(1, 8, sim.Second); len(got) != 0 {
		t.Fatalf("empty plan: want no events, got %d", len(got))
	}
}

func TestRandomPlanAlwaysValid(t *testing.T) {
	rng := stats.NewRNG(99)
	for i := 0; i < 200; i++ {
		p := RandomPlan(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("RandomPlan #%d invalid: %v\n%+v", i, err, p)
		}
		p.Expand(uint64(i), 8, 50*sim.Millisecond)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := CoreDegrade; k <= ServerCrash; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("want error for unknown kind")
	}
}
