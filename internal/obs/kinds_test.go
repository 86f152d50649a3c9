package obs

import (
	"reflect"
	"testing"

	"hardharvest/internal/sim"
)

// kindStream is a mixed event stream that leaves a Meter and an Audit with
// counters, histogram buckets, in-flight requests and open queue waits.
func kindStream() []Event {
	var evs []Event
	at := sim.Time(0)
	for i := 0; i < 40; i++ {
		for k := Kind(0); k < numKinds; k++ {
			at = at.Add(sim.Microsecond)
			evs = append(evs, Event{Kind: k, Time: at, Req: uint64(i % 7), VM: i % 3,
				Core: i % 5, Dur: sim.Duration(i+1) * sim.Microsecond,
				IsJob: i%4 == 3, CrossVM: i%2 == 1, Measured: i%3 != 0})
		}
	}
	return evs
}

// TestSelectiveKindsAreTheOnlyOnesRead: for every kind outside Kinds(),
// Observe leaves a Meter and an Audit exactly as they were, whatever the
// event's other fields say. Two observers fed the same stream must stay
// reflect.DeepEqual after one of them sees an outside kind.
func TestSelectiveKindsAreTheOnlyOnesRead(t *testing.T) {
	build := map[string]func() Observer{
		"meter": func() Observer { return NewMeter() },
		"audit": func() Observer { return NewAudit() },
	}
	stream := kindStream()
	for name, mk := range build {
		ref := mk()
		kinds := ref.(Selective).Kinds()
		if kinds == 0 || kinds == AllKinds {
			t.Fatalf("%s: Kinds() = %#x, want a proper subset", name, kinds)
		}
		a, b := mk(), mk()
		for _, ev := range stream {
			a.Observe(ev)
			b.Observe(ev)
		}
		end := stream[len(stream)-1].Time
		for k := Kind(0); k < numKinds; k++ {
			if kinds.Has(k) {
				continue
			}
			// Only a sees the probes; while none changes it, a stays
			// equal to b.
			for _, probe := range stream {
				probe.Kind = k
				probe.Time = end.Add(sim.Microsecond)
				a.Observe(probe)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: Observe(%+v) changed state, but %v is outside Kinds()", name, probe, k)
				}
			}
		}
	}
}

// TestKindsOf: nil reads nothing, an observer without Kinds reads
// everything, and a composition reads the union of its members' kinds.
func TestKindsOf(t *testing.T) {
	if got := KindsOf(nil); got != 0 {
		t.Fatalf("KindsOf(nil) = %#x, want 0", got)
	}
	if got := KindsOf(NewSpanTracer("x", 0)); got != AllKinds {
		t.Fatalf("SpanTracer kinds = %#x, want all %#x", got, AllKinds)
	}
	if got := KindsOf(Multi(NewMeter(), NewAudit())); got != countedKinds {
		t.Fatalf("meter+audit kinds = %#x, want the counted kinds %#x", got, countedKinds)
	}
	if got := KindsOf(Multi(NewMeter(), NewSampler("x", sim.Millisecond))); got != countedKinds {
		t.Fatalf("meter+sampler kinds = %#x, want the counted kinds %#x", got, countedKinds)
	}
	if got := KindsOf(Multi(NewMeter(), &countingObserver{})); got != AllKinds {
		t.Fatalf("meter+plain observer kinds = %#x, want all", got)
	}
	s := KindSetOf(KindPin, KindFault)
	if !s.Has(KindPin) || !s.Has(KindFault) || s.Has(KindArrival) || s.Has(KindDeadlineMiss) {
		t.Fatalf("KindSetOf(pin, fault) = %#x", s)
	}
	for k := Kind(0); k < numKinds; k++ {
		if !AllKinds.Has(k) {
			t.Fatalf("AllKinds misses %v", k)
		}
	}
}
