package sim

import "testing"

// TestLaneTiesKeepScheduleOrder: lane events and direct events due at the
// same instant fire in the order they were scheduled, across two lanes,
// and a lane refilled after draining picks up where it left off.
func TestLaneTiesKeepScheduleOrder(t *testing.T) {
	e := NewEngine()
	const d = 10 * Nanosecond
	l1, l2 := e.NewLane(d), e.NewLane(d)
	var order []int
	mark := func(i int) Callback { return funcCall(func() { order = append(order, i) }) }
	l1.Call(mark(0), 0, nil, nil)
	e.CallAt(Time(d), mark(1), 0, nil, nil)
	l2.Call(mark(2), 0, nil, nil)
	l1.Call(mark(3), 0, nil, nil)
	e.CallAt(Time(d)-1, mark(4), 0, nil, nil)
	e.RunAll()
	l2.Call(mark(5), 0, nil, nil) // both lanes drained: refill
	l1.Call(mark(6), 0, nil, nil)
	e.RunAll()
	want := []int{4, 0, 1, 2, 3, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != Time(2*d) {
		t.Fatalf("refilled lane fired at %v, want %v", e.Now(), Time(2*d))
	}
}

// TestLaneAllocFreeAndBounded: once warm, lane calls and fires allocate
// nothing, and the ring stays at the size of the most events the lane held
// at once, however many pass through it.
func TestLaneAllocFreeAndBounded(t *testing.T) {
	e := NewEngine()
	sink := &benchSink{e: e}
	l := e.NewLane(Microsecond)
	// One cycle holds up to 100 events in the lane: one is scheduled every
	// 10 ns and each fires 1 us later.
	cycle := func() {
		for i := 0; i < 300; i++ {
			ev := l.Call(sink, 0, nil, sink)
			if i%3 == 1 {
				e.Cancel(ev) // cancelled behind the head
			}
			e.ScheduleCall(10*Nanosecond, sink, 0, nil, nil) // moves the clock
			e.Run(e.Now().Add(10 * Nanosecond))
		}
		e.RunAll()
	}
	cycle() // warm the slab, the free list and the ring
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("warm lane cycle allocates %.1f times, want 0", avg)
	}
	if want := 2 * laneFirstRing; len(l.ring) != want {
		t.Fatalf("ring of %d slots for at most 101 events, want %d", len(l.ring), want)
	}
	if e.Pending() != 0 || l.n != 0 {
		t.Fatalf("%d events pending, %d in the ring after RunAll", e.Pending(), l.n)
	}
}
