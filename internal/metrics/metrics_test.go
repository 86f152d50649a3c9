package metrics

import (
	"testing"

	"hardharvest/internal/sim"
)

func TestLatencyRecorder(t *testing.T) {
	l := NewLatencyRecorder()
	for i := 1; i <= 100; i++ {
		l.Add(sim.Duration(i) * sim.Microsecond)
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	if p := l.P50(); p < 50*sim.Microsecond || p > 51*sim.Microsecond {
		t.Fatalf("P50 = %v", p)
	}
	if p := l.P99(); p < 99*sim.Microsecond || p > 100*sim.Microsecond {
		t.Fatalf("P99 = %v", p)
	}
	if l.Max() != 100*sim.Microsecond {
		t.Fatalf("Max = %v", l.Max())
	}
	if m := l.Mean(); m < 50*sim.Microsecond || m > 51*sim.Microsecond {
		t.Fatalf("Mean = %v", m)
	}
}

func TestUtilizationIntegration(t *testing.T) {
	u := NewUtilization(2)
	// Core 0 busy for 60 of 100 us; core 1 busy for 100.
	u.SetBusy(0, 0, true)
	u.SetBusy(1, 0, true)
	u.SetBusy(0, sim.Time(60*sim.Microsecond), false)
	u.Finish(sim.Time(100 * sim.Microsecond))
	got := u.BusyCores(100 * sim.Microsecond)
	if got < 1.59 || got > 1.61 {
		t.Fatalf("busy cores = %v, want 1.6", got)
	}
	if f := u.CoreBusyFraction(0, 100*sim.Microsecond); f < 0.59 || f > 0.61 {
		t.Fatalf("core 0 fraction = %v", f)
	}
}

func TestUtilizationRedundantTransitions(t *testing.T) {
	u := NewUtilization(1)
	u.SetBusy(0, 0, true)
	u.SetBusy(0, sim.Time(10*sim.Microsecond), true) // redundant
	u.SetBusy(0, sim.Time(50*sim.Microsecond), false)
	u.SetBusy(0, sim.Time(60*sim.Microsecond), false) // redundant
	u.Finish(sim.Time(100 * sim.Microsecond))
	if f := u.CoreBusyFraction(0, 100*sim.Microsecond); f < 0.49 || f > 0.51 {
		t.Fatalf("fraction = %v, want 0.5", f)
	}
}

func TestUtilizationFinishFreezes(t *testing.T) {
	u := NewUtilization(1)
	u.SetBusy(0, 0, true)
	u.Finish(sim.Time(100 * sim.Microsecond))
	// Post-window activity (the engine's grace period) must not leak in.
	u.SetBusy(0, sim.Time(100*sim.Microsecond), false)
	u.SetBusy(0, sim.Time(150*sim.Microsecond), true)
	u.SetBusy(0, sim.Time(200*sim.Microsecond), false)
	if f := u.CoreBusyFraction(0, 100*sim.Microsecond); f != 1.0 {
		t.Fatalf("fraction = %v, want exactly 1.0 after freeze", f)
	}
	if got := u.BusyCores(100 * sim.Microsecond); got != 1.0 {
		t.Fatalf("busy cores = %v, want 1.0", got)
	}
}

func TestUtilizationZeroElapsed(t *testing.T) {
	u := NewUtilization(1)
	if u.BusyCores(0) != 0 || u.CoreBusyFraction(0, 0) != 0 {
		t.Fatal("zero elapsed should report zero")
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.AddRequest(100*sim.Microsecond, 200*sim.Microsecond, 700*sim.Microsecond)
	b.AddRequest(300*sim.Microsecond, 0, 500*sim.Microsecond)
	r, f, e := b.Mean()
	if r != 200*sim.Microsecond || f != 100*sim.Microsecond || e != 600*sim.Microsecond {
		t.Fatalf("means = %v %v %v", r, f, e)
	}
	if b.MeanTotal() != 900*sim.Microsecond {
		t.Fatalf("mean total = %v", b.MeanTotal())
	}
	var empty Breakdown
	if empty.MeanTotal() != 0 {
		t.Fatal("empty breakdown should be zero")
	}
}

func TestBreakdownMeanZeroRequests(t *testing.T) {
	var b Breakdown
	r, f, e := b.Mean()
	if r != 0 || f != 0 || e != 0 {
		t.Fatalf("zero-request means = %v %v %v", r, f, e)
	}
	// Accumulated components without completions must not divide by zero.
	b.Reassign = 100 * sim.Microsecond
	if r, f, e = b.Mean(); r != 0 || f != 0 || e != 0 {
		t.Fatal("Mean must stay zero while Requests == 0")
	}
}

func TestLatencyRecorderEmpty(t *testing.T) {
	l := NewLatencyRecorder()
	if l.Count() != 0 {
		t.Fatalf("count = %d", l.Count())
	}
	if l.SampleLatency(0.5) != 0 {
		t.Fatal("sampling an empty recorder must report 0")
	}
	if l.P50() != 0 || l.P99() != 0 || l.Mean() != 0 || l.Max() != 0 {
		t.Fatal("empty recorder statistics must be zero")
	}
}

// TestLatencySketchMode drives the sketch-backed recorder through the same
// interface the exact one implements: quantiles within the sketch's bounded
// relative error, exact count/mean/max.
func TestLatencySketchMode(t *testing.T) {
	l := NewLatencySketch()
	if !l.Sketched() {
		t.Fatal("NewLatencySketch not in sketch mode")
	}
	if NewLatencyRecorder().Sketched() {
		t.Fatal("NewLatencyRecorder reports sketch mode")
	}
	for i := 1; i <= 100; i++ {
		l.Add(sim.Duration(i) * sim.Microsecond)
	}
	l.Freeze() // no-op in sketch mode, must not panic
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	if p := l.P50(); p < 49*sim.Microsecond || p > 52*sim.Microsecond {
		t.Fatalf("P50 = %v", p)
	}
	if p := l.P99(); p < 97*sim.Microsecond || p > 101*sim.Microsecond {
		t.Fatalf("P99 = %v", p)
	}
	if l.Max() != 100*sim.Microsecond {
		t.Fatalf("Max = %v (sketch max is exact)", l.Max())
	}
	if m := l.Mean(); m < 50*sim.Microsecond || m > 51*sim.Microsecond {
		t.Fatalf("Mean = %v (sketch mean is exact)", m)
	}
	if s := l.SampleLatency(0); s != 1*sim.Microsecond {
		t.Fatalf("SampleLatency(0) = %v, want exact min", s)
	}
	if s := l.SampleLatency(0.999999); s != 100*sim.Microsecond {
		t.Fatalf("SampleLatency(~1) = %v, want exact max", s)
	}
}

// TestLatencyMergeModes pins the cross-mode merge contract: exact recorders
// fold into sketches losslessly (identical to adding the samples directly);
// folding a sketch into an exact recorder panics.
func TestLatencyMergeModes(t *testing.T) {
	exact := NewLatencyRecorder()
	direct := NewLatencySketch()
	for i := 1; i <= 1000; i++ {
		d := sim.Duration(i*i) * sim.Nanosecond
		exact.Add(d)
		direct.Add(d)
	}

	viaMerge := NewLatencySketch()
	viaMerge.Merge(exact)
	if viaMerge.Count() != direct.Count() ||
		viaMerge.P50() != direct.P50() ||
		viaMerge.P99() != direct.P99() ||
		viaMerge.Max() != direct.Max() {
		t.Fatalf("exact->sketch merge differs from direct adds: merged p99=%v direct p99=%v",
			viaMerge.P99(), direct.P99())
	}

	skA, skB := NewLatencySketch(), NewLatencySketch()
	skA.Add(10 * sim.Microsecond)
	skB.Add(30 * sim.Microsecond)
	skA.Merge(skB)
	if skA.Count() != 2 || skA.Max() != 30*sim.Microsecond {
		t.Fatalf("sketch-sketch merge wrong: n=%d max=%v", skA.Count(), skA.Max())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("merging a sketch into an exact recorder did not panic")
		}
	}()
	NewLatencyRecorder().Merge(skA)
}
