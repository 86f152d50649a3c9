package sim

import (
	"math"
	"testing"
	"time"
)

func TestCyclesConversion(t *testing.T) {
	// 3 cycles at 3 GHz = 1 ns.
	if got := Cycles(3); got != Nanosecond {
		t.Fatalf("Cycles(3) = %v, want 1ns", got)
	}
	if got := Cycles(1); got != 333*Picosecond {
		t.Fatalf("Cycles(1) = %v, want 333ps", got)
	}
	if got := (2 * Nanosecond).ToCycles(); got != 6 {
		t.Fatalf("2ns.ToCycles() = %d, want 6", got)
	}
	if got := CyclesAt(5, 1_000_000_000); got != 5*Nanosecond {
		t.Fatalf("CyclesAt(5, 1GHz) = %v, want 5ns", got)
	}
}

func TestDurationUnits(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	d := 1500 * Microsecond
	if d.Milliseconds() != 1.5 {
		t.Fatalf("Milliseconds = %v", d.Milliseconds())
	}
	if d.Std() != 1500*time.Microsecond {
		t.Fatalf("Std = %v", d.Std())
	}
}

// TestFromMilliseconds: user-supplied millisecond spans convert exactly
// while they fit, and are refused (never wrapped) once they reach maxSpan
// or are NaN.
func TestFromMilliseconds(t *testing.T) {
	for _, c := range []struct {
		ms   float64
		want Duration
		ok   bool
	}{
		{5, 5 * Millisecond, true},
		{0.25, 250 * Microsecond, true},
		{-3, -3 * Millisecond, true},
		{4e6, 4_000_000 * Millisecond, true},
		{float64(maxSpan) / float64(Millisecond), 0, false},
		{1e10, 0, false},
		{-1e10, 0, false},
		{math.Inf(1), 0, false},
		{math.NaN(), 0, false},
	} {
		got, ok := FromMilliseconds(c.ms)
		if got != c.want || ok != c.ok {
			t.Errorf("FromMilliseconds(%g) = %d, %v; want %d, %v", c.ms, got, ok, c.want, c.ok)
		}
	}
}

// TestSpan: scaled picosecond counts convert exactly while they fit and
// saturate at maxSpan, never wrapping negative, once they do not.
func TestSpan(t *testing.T) {
	for _, c := range []struct {
		ps   float64
		want Duration
	}{
		{0, 0},
		{1.5e9, 1_500_000_000},
		{float64(maxSpan) / 2, maxSpan / 2},
		{float64(maxSpan), maxSpan},
		{1e300, maxSpan},
		{math.Inf(1), maxSpan},
		{math.NaN(), maxSpan},
	} {
		if got := Span(c.ps); got != c.want {
			t.Errorf("Span(%g) = %d, want %d", c.ps, got, c.want)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10*Nanosecond, func() { order = append(order, 2) })
	e.Schedule(5*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 3) }) // FIFO tie-break
	e.Schedule(20*Nanosecond, func() { order = append(order, 4) })
	e.RunAll()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Fired() != 4 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Schedule(Nanosecond, func() {
		at = append(at, e.Now())
		e.Schedule(Nanosecond, func() {
			at = append(at, e.Now())
		})
	})
	e.RunAll()
	if len(at) != 2 || at[0] != Time(Nanosecond) || at[1] != Time(2*Nanosecond) {
		t.Fatalf("at = %v", at)
	}
}

func TestEngineZeroDelaySameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(0, func() {
		order = append(order, 1)
		e.Schedule(0, func() { order = append(order, 3) })
	})
	e.Schedule(0, func() { order = append(order, 2) })
	e.RunAll()
	if e.Now() != 0 {
		t.Fatalf("clock moved: %v", e.Now())
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(Microsecond, func() { ran++ })
	e.Schedule(2*Microsecond, func() { ran++ })
	e.Schedule(5*Microsecond, func() { ran++ })
	e.Run(Time(3 * Microsecond))
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.RunAll()
	if ran != 3 {
		t.Fatalf("ran = %d after RunAll", ran)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(Nanosecond, func() { ran = true })
	if e.State(ev) != StatePending {
		t.Fatalf("state = %v, want pending", e.State(ev))
	}
	if !e.Cancel(ev) {
		t.Fatal("Cancel reported false for a pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double-cancel reported true")
	}
	if e.Cancel(Event{}) {
		t.Fatal("cancelling the zero handle reported true")
	}
	e.RunAll()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.State(ev) != StateCancelled {
		t.Fatalf("state = %v, want cancelled", e.State(ev))
	}
}

func TestEngineEventStates(t *testing.T) {
	e := NewEngine()
	var inside Event
	ev := e.Schedule(Nanosecond, func() {})
	inside = e.Schedule(2*Nanosecond, func() {
		if got := e.State(inside); got != StateFiring {
			t.Errorf("state during fire = %v, want firing", got)
		}
		if e.Cancel(inside) {
			t.Error("an event cancelled itself mid-fire")
		}
	})
	if !ev.Valid() || !inside.Valid() {
		t.Fatal("handles not valid")
	}
	if (Event{}).Valid() {
		t.Fatal("zero handle reports valid")
	}
	if when, ok := e.EventTime(ev); !ok || when != Time(Nanosecond) {
		t.Fatalf("EventTime = %v, %v", when, ok)
	}
	e.RunAll()
	if got := e.State(ev); got != StateFired {
		t.Fatalf("state after fire = %v, want fired", got)
	}
	if _, ok := e.EventTime(ev); ok {
		t.Fatal("EventTime answered for a settled event")
	}
}

// TestEngineStaleHandleAfterReuse pins the pooling safety contract: once a
// settled event's slot is recycled, the old handle expires — its state reads
// StateNone and Cancel cannot touch (resurrect or kill) the new occupant.
func TestEngineStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine()
	old := e.Schedule(Nanosecond, func() {})
	e.Cancel(old)
	// The freed slot is the only one, so this reuses it.
	ran := false
	fresh := e.Schedule(Nanosecond, func() { ran = true })
	if e.State(old) != StateNone {
		t.Fatalf("stale state = %v, want none", e.State(old))
	}
	if e.Cancel(old) {
		t.Fatal("stale handle cancelled the recycled slot")
	}
	e.RunAll()
	if !ran {
		t.Fatal("fresh event did not run (stale handle disturbed it)")
	}
	if e.State(fresh) != StateFired {
		t.Fatalf("fresh state = %v, want fired", e.State(fresh))
	}
}

// TestEngineScheduleCall covers the typed-callback path: op and payloads
// arrive intact, in (when, seq) order, interleaved with closure events.
type callRecorder struct {
	t    *testing.T
	e    *Engine
	ops  []int32
	args []any
}

func (c *callRecorder) OnEvent(op int32, a, b any) {
	c.ops = append(c.ops, op)
	c.args = append(c.args, a, b)
	if op == 7 {
		// Nested typed scheduling from inside a typed callback.
		c.e.ScheduleCall(Nanosecond, c, 8, nil, nil)
	}
}

func TestEngineScheduleCall(t *testing.T) {
	e := NewEngine()
	rec := &callRecorder{t: t, e: e}
	payload := &struct{ x int }{42}
	order := []int32{}
	e.ScheduleCall(2*Nanosecond, rec, 7, payload, nil)
	e.Schedule(Nanosecond, func() { order = append(order, -1) })
	e.CallAt(Time(3*Nanosecond), rec, 9, nil, payload)
	e.RunAll()
	if len(rec.ops) != 3 || rec.ops[0] != 7 || rec.ops[1] != 9 || rec.ops[2] != 8 {
		t.Fatalf("ops = %v", rec.ops)
	}
	if rec.args[0] != payload || rec.args[3] != payload {
		t.Fatalf("payloads lost: %v", rec.args)
	}
	if len(order) != 1 {
		t.Fatalf("closure event fired %d times", len(order))
	}
}

// TestEngineCancelDuringFire cancels a pending event from inside another
// event firing at the same instant.
func TestEngineCancelDuringFire(t *testing.T) {
	e := NewEngine()
	ran := false
	var victim Event
	e.Schedule(0, func() { e.Cancel(victim) })
	victim = e.Schedule(0, func() { ran = true })
	e.RunAll()
	if ran {
		t.Fatal("event cancelled during a same-instant fire still ran")
	}
	if e.State(victim) != StateCancelled {
		t.Fatalf("state = %v, want cancelled", e.State(victim))
	}
}

// TestEngineAtPast verifies At with a timestamp in the past panics, and that
// At exactly at the current instant is allowed.
func TestEngineAtPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(Microsecond, func() {
		// Exactly "now" is legal (fires later this instant)...
		e.At(e.Now(), func() {})
		// ...one tick earlier is not.
		defer func() {
			if recover() == nil {
				t.Error("want panic for At in the past")
			}
		}()
		e.At(e.Now()-1, func() {})
	})
	e.RunAll()
}

// checkHeap verifies the heap's structure: every entry sorts after its
// parent, every pending entry's record knows its position, and a vacant
// root holds the entry of the event now firing.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.heap {
		x := &e.heap[i]
		if i > 0 && !e.heap[(i-1)/4].before(x) {
			t.Fatalf("heap entry %d (%v, %d) sorts before its parent", i, x.when, x.seq)
		}
		rec := &e.slab[x.slot]
		if i == 0 && e.vacant {
			if rec.state != StateFiring || rec.heapIdx != -1 {
				t.Fatalf("vacant root holds a %v record at heap position %d", rec.state, rec.heapIdx)
			}
			continue
		}
		if rec.state != StatePending || rec.heapIdx != int32(i) {
			t.Fatalf("heap entry %d: record %v at heap position %d", i, rec.state, rec.heapIdx)
		}
	}
	if e.vacant && !e.firing {
		t.Fatal("root vacant outside a callback")
	}
}

// TestEngineRandomizedHeapInvariants drives a long random sequence of
// direct events and events on two lanes (same delay, so lane events tie
// with each other and with direct events at the same instant), cancels
// (direct events, lane heads, entries in the middle of a lane, settled
// events), partial runs, Stop, and lanes drained and refilled. Callbacks
// schedule and cancel too, and query the engine, while the firing event
// still holds the heap's root. A reference that orders every scheduled
// event by (when, seq) checks each fire is the earliest pending event, and
// checks Pending, State, EventTime, NextEventTime and the heap's structure
// against it, inside callbacks and between runs.
func TestEngineRandomizedHeapInvariants(t *testing.T) {
	e := NewEngine()
	x := uint64(99)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 17) % n
	}
	const laneDelay = 200 * Nanosecond
	lanes := []*Lane{e.NewLane(laneDelay), e.NewLane(laneDelay)}

	type refEv struct {
		ev    Event
		when  Time
		seq   uint64
		lane  int // 0 direct, else lanes[lane-1]
		state EventState
	}
	var all, pending []*refEv
	var seq uint64
	// Coverage counters: the run must reach every case it is meant to.
	var laneFires, ties, headCancels, midCancels int
	// ... and every way a vacant root is filled or closed.
	var laneFills, directFills, cancelFills, emptyCloses, stops, vacantChecks int
	var lastFire Time = -1
	drop := func(r *refEv) {
		for i, p := range pending {
			if p == r {
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				return
			}
		}
		t.Fatalf("event seq %d missing from the reference", r.seq)
	}
	earliest := func() *refEv {
		var m *refEv
		for _, p := range pending {
			if m == nil || p.when < m.when || (p.when == m.when && p.seq < m.seq) {
				m = p
			}
		}
		return m
	}
	laneHead := func(lane int) *refEv {
		var h *refEv
		for _, p := range pending {
			if p.lane == lane && (h == nil || p.seq < h.seq) {
				h = p
			}
		}
		return h
	}
	check := func() {
		checkHeap(t, e)
		if e.Pending() != len(pending) {
			t.Fatalf("Pending() = %d, reference holds %d", e.Pending(), len(pending))
		}
		at, ok := e.NextEventTime()
		if m := earliest(); ok != (m != nil) || (ok && at != m.when) {
			t.Fatalf("NextEventTime = %v, %v; reference's earliest %+v", at, ok, m)
		}
		for _, r := range all {
			st := e.State(r.ev)
			at, ok := e.EventTime(r.ev)
			switch r.state {
			case StatePending:
				if st != StatePending || !ok || at != r.when {
					t.Fatalf("pending event seq %d: state %v, EventTime %v, %v; want %v", r.seq, st, at, ok, r.when)
				}
			case StateFiring:
				if st != StateFiring || !ok || at != r.when {
					t.Fatalf("firing event seq %d: state %v, EventTime %v, %v; want %v", r.seq, st, at, ok, r.when)
				}
			default:
				// A settled handle answers until its slot is reused.
				if (st != r.state && st != StateNone) || ok {
					t.Fatalf("%v event seq %d: state %v, EventTime ok %v", r.state, r.seq, st, ok)
				}
			}
		}
	}
	var act func(op uint64)
	fire := func(r *refEv) {
		if m := earliest(); m != r {
			t.Fatalf("fired (%v, %d), want earliest pending (%v, %d)", r.when, r.seq, m.when, m.seq)
		}
		if e.Now() != r.when {
			t.Fatalf("fired at %v, scheduled for %v", e.Now(), r.when)
		}
		if r.state != StatePending {
			t.Fatalf("event seq %d fired in state %v", r.seq, r.state)
		}
		r.state = StateFiring
		drop(r)
		if r.lane != 0 {
			laneFires++
			if !e.vacant {
				laneFills++ // the lane's next head took the root
			}
		}
		if r.when == lastFire {
			ties++
		}
		lastFire = r.when
		if next(16) == 0 {
			if e.vacant {
				vacantChecks++
			}
			check()
		}
		// Schedule, cancel, query or stop, any number of times, with the
		// root vacant or filled.
		for n := next(4); n > 0; n-- {
			act(next(13))
		}
		if next(32) == 0 {
			e.Stop()
			stops++
		}
		if e.vacant {
			emptyCloses++ // Run moves the last entry to the root
		}
		r.state = StateFired
	}
	schedule := func(lane int) {
		r := &refEv{seq: seq, lane: lane, state: StatePending}
		seq++
		cb := funcCall(func() { fire(r) })
		// A schedule fills a vacant root unless it waits behind a lane's
		// head.
		was := e.vacant
		fills := was && (lane == 0 || laneHead(lane) == nil)
		if lane == 0 {
			d := Duration(next(500)) * Nanosecond
			if next(4) == 0 {
				d = laneDelay // ties with lane events scheduled now
			}
			r.when = e.Now().Add(d)
			r.ev = e.CallAt(r.when, cb, 0, nil, nil)
			if fills {
				directFills++
			}
		} else {
			r.when = e.Now().Add(laneDelay)
			r.ev = lanes[lane-1].Call(cb, 0, nil, nil)
			if fills {
				laneFills++ // the call started an empty lane
			}
		}
		if e.vacant != (was && !fills) {
			t.Fatalf("root vacant = %v after scheduling seq %d on lane %d, was %v", e.vacant, r.seq, lane, was)
		}
		all = append(all, r)
		pending = append(pending, r)
	}
	cancel := func(r *refEv) {
		was := e.vacant
		got := e.Cancel(r.ev)
		if got != (r.state == StatePending) {
			t.Fatalf("Cancel of a %v event seq %d reported %v", r.state, r.seq, got)
		}
		if got && r.lane != 0 {
			if laneHead(r.lane) == r {
				headCancels++
			} else {
				midCancels++
			}
		}
		if got {
			r.state = StateCancelled
			drop(r)
		}
		if was && !e.vacant {
			cancelFills++ // a cancelled lane head's successor took the root
		}
	}
	act = func(op uint64) {
		switch {
		case op < 4:
			schedule(0)
		case op < 8:
			schedule(1 + int(op%2))
		case op < 10: // cancel a random event, in any state
			if len(all) > 0 {
				cancel(all[next(uint64(len(all)))])
			}
		case op == 10: // cancel a lane's head or an event behind it
			lane := 1 + int(next(2))
			var on []*refEv
			for _, p := range pending {
				if p.lane == lane {
					on = append(on, p)
				}
			}
			if len(on) > 0 {
				if next(3) == 0 {
					cancel(laneHead(lane))
				} else {
					cancel(on[next(uint64(len(on)))])
				}
			}
		case op == 11: // cancel every event on a lane, then refill it
			if next(8) == 0 {
				lane := 1 + int(next(2))
				for h := laneHead(lane); h != nil; h = laneHead(lane) {
					cancel(h)
				}
				schedule(lane)
				schedule(lane)
			}
		default: // cancel the earliest pending event, whatever it is
			if m := earliest(); m != nil {
				cancel(m)
			}
		}
	}
	run := func(horizon Time) {
		e.Run(horizon)
		if e.vacant || e.firing {
			t.Fatalf("Run returned with the root vacant (%v) or a callback marked running (%v)", e.vacant, e.firing)
		}
		check()
	}

	for i := 0; i < 4000; i++ {
		act(next(13))
		if next(10) == 0 {
			// Partial drain keeps schedule/fire interleaved.
			run(e.Now().Add(Duration(next(200)) * Nanosecond))
		}
		if next(500) == 0 {
			run(1<<62 - 1) // drain both lanes; later calls refill them
		}
		if i%50 == 0 {
			check()
		}
	}
	// Stop may end a drain early; run until nothing is left.
	for e.Pending() > 0 {
		run(1<<62 - 1)
	}
	if len(pending) != 0 {
		t.Fatalf("reference holds %d events after the drain", len(pending))
	}
	for _, l := range lanes {
		if l.n != 0 {
			t.Fatalf("lane ring holds %d entries after RunAll", l.n)
		}
	}
	counts := []struct {
		name string
		n    int
	}{
		{"lane fires", laneFires}, {"same-instant fires", ties},
		{"lane head cancels", headCancels}, {"mid-lane cancels", midCancels},
		{"roots filled by a lane head", laneFills}, {"roots filled by a direct schedule", directFills},
		{"roots filled by a cancel's lane advance", cancelFills},
		{"roots closed with nothing scheduled", emptyCloses}, {"Stop calls from a callback", stops},
		{"checks under a vacant root", vacantChecks},
	}
	for _, c := range counts {
		if c.n == 0 {
			t.Errorf("coverage: no %s", c.name)
		}
	}
	t.Logf("%d events: %+v", len(all), counts)
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	evs := make([]Event, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, e.Schedule(Duration(i+1)*Nanosecond, func() { order = append(order, i) }))
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.RunAll()
	if len(order) != 8 {
		t.Fatalf("order = %v", order)
	}
	for _, v := range order {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(Nanosecond, func() { ran++; e.Stop() })
	e.Schedule(2*Nanosecond, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (stopped)", ran)
	}
	// Run can resume afterwards.
	e.RunAll()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 after resume", ran)
	}
}

func TestEnginePanicsOnPastScheduling(t *testing.T) {
	e := NewEngine()
	e.Schedule(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic scheduling into the past")
			}
		}()
		e.At(Time(Nanosecond), func() {})
	})
	e.RunAll()
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(Time(5 * Microsecond))
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("Now = %v", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic advancing into the past")
		}
	}()
	e.AdvanceTo(Time(Microsecond))
}

// TestEngineVacantRootPeeks: inside a callback, before and after it
// schedules anything, Pending and NextEventTime answer for the pending
// events only, never for the firing event that still holds the root.
func TestEngineVacantRootPeeks(t *testing.T) {
	e := NewEngine()
	lane := e.NewLane(50)
	type peek struct {
		at      Time
		ok      bool
		pending int
	}
	var got []peek
	look := func() {
		at, ok := e.NextEventTime()
		got = append(got, peek{at, ok, e.Pending()})
	}
	e.CallAt(10, funcCall(func() {
		look() // root vacant: the earliest pending event is a child
		e.CallAt(15, funcCall(func() {}), 0, nil, nil)
		look() // root filled by the direct schedule
	}), 0, nil, nil)
	for _, at := range []Time{30, 20, 40, 25, 35} {
		e.CallAt(at, funcCall(func() {}), 0, nil, nil)
	}
	e.Run(10)
	e.Run(40) // drain the direct events
	e.CallAt(100, funcCall(func() {
		look() // root vacant, heap otherwise empty
		lane.Call(funcCall(func() { look() }), 0, nil, nil)
		look() // root filled by a lane head
	}), 0, nil, nil)
	e.RunAll()
	want := []peek{
		{20, true, 5}, {15, true, 6},
		{0, false, 0}, {150, true, 1},
		{0, false, 0}, // the lane event, firing with nothing else pending
	}
	if len(got) != len(want) {
		t.Fatalf("peeks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peek %d = %+v, want %+v (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestEngineRunClosesVacantRoot: Run returns with a whole heap however the
// last callback ended: having scheduled nothing, with other events pending
// or none, after Stop, or after cancelling the only other event.
func TestEngineRunClosesVacantRoot(t *testing.T) {
	cases := map[string]func(e *Engine){
		"nothing scheduled, others pending": func(e *Engine) {
			e.CallAt(5, funcCall(func() {}), 0, nil, nil)
			e.CallAt(7, funcCall(func() {}), 0, nil, nil)
			e.CallAt(9, funcCall(func() {}), 0, nil, nil)
			e.Run(5)
		},
		"nothing scheduled, nothing pending": func(e *Engine) {
			e.CallAt(5, funcCall(func() {}), 0, nil, nil)
			e.RunAll()
		},
		"stop without scheduling": func(e *Engine) {
			e.CallAt(5, funcCall(func() { e.Stop() }), 0, nil, nil)
			e.CallAt(6, funcCall(func() {}), 0, nil, nil)
			e.CallAt(7, funcCall(func() {}), 0, nil, nil)
			e.RunAll()
		},
		"cancel the only other event": func(e *Engine) {
			var other Event
			e.CallAt(5, funcCall(func() { e.Cancel(other) }), 0, nil, nil)
			other = e.CallAt(6, funcCall(func() {}), 0, nil, nil)
			e.RunAll()
		},
		"cancel a lane head, then stop": func(e *Engine) {
			l := e.NewLane(3)
			var head Event
			e.CallAt(1, funcCall(func() {
				e.Cancel(head) // its successor takes the root
				e.Stop()
			}), 0, nil, nil)
			head = l.Call(funcCall(func() {}), 0, nil, nil)
			l.Call(funcCall(func() {}), 0, nil, nil)
			e.RunAll()
		},
	}
	for name, run := range cases {
		e := NewEngine()
		run(e)
		if e.vacant || e.firing {
			t.Errorf("%s: Run returned with the root vacant (%v) or a callback marked running (%v)", name, e.vacant, e.firing)
		}
		checkHeap(t, e)
		if len(e.heap) != e.Pending()-e.parked {
			t.Errorf("%s: heap holds %d entries for %d pending events", name, len(e.heap), e.Pending())
		}
		e.RunAll()
		if e.Pending() != 0 || len(e.heap) != 0 {
			t.Errorf("%s: %d pending, heap %d after a drain", name, e.Pending(), len(e.heap))
		}
	}
}

// TestEngineCallbackMisuse: a callback may not run the engine or move its
// clock; both panic, naming the mistake.
func TestEngineCallbackMisuse(t *testing.T) {
	for name, misuse := range map[string]func(e *Engine){
		"Run":       func(e *Engine) { e.Run(100) },
		"AdvanceTo": func(e *Engine) { e.AdvanceTo(e.Now()) },
	} {
		e := NewEngine()
		var got any
		e.CallAt(5, funcCall(func() {
			defer func() { got = recover() }()
			misuse(e)
		}), 0, nil, nil)
		e.CallAt(8, funcCall(func() {}), 0, nil, nil)
		e.RunAll()
		if msg, ok := got.(string); !ok || msg != "sim: "+name+" called from an event callback" {
			t.Errorf("%s from a callback: panic %v", name, got)
		}
		if e.Fired() != 2 || e.Now() != 8 {
			t.Errorf("%s: engine at %v after %d events, want 8 and 2", name, e.Now(), e.Fired())
		}
	}
}

func TestEngineManyEventsDeterministic(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var ts []Time
		// A fixed pseudo-random pattern of delays without package deps.
		x := uint64(12345)
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			d := Duration(x%1000) * Nanosecond
			e.Schedule(d, func() { ts = append(ts, e.Now()) })
		}
		e.RunAll()
		return ts
	}
	a, b := run(), run()
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("out of order at %d", i)
		}
	}
}
