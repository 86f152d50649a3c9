package sim

import (
	"testing"
	"unsafe"
)

// The engine benchmarks pin the allocation contract of the hot path: once
// the slab and free list are warm, ScheduleCall/fire cycles must not
// allocate at all, and closure-based Schedule must only pay for the closure
// the caller builds.

type benchSink struct {
	n     int
	e     *Engine
	depth int
}

func (s *benchSink) OnEvent(op int32, a, b any) {
	s.n++
	if s.depth > 0 {
		s.depth--
		s.e.ScheduleCall(Nanosecond, s, op, a, b)
	}
}

// BenchmarkEngineScheduleCall measures one typed schedule+fire cycle with a
// warm free list (the steady state of a server simulation).
func BenchmarkEngineScheduleCall(b *testing.B) {
	e := NewEngine()
	sink := &benchSink{e: e}
	payload := &benchSink{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleCall(Nanosecond, sink, 1, payload, nil)
		e.RunAll()
	}
	if sink.n != b.N {
		b.Fatalf("fired %d, want %d", sink.n, b.N)
	}
}

// BenchmarkEngineScheduleClosure is the same cycle through the closure API.
func BenchmarkEngineScheduleClosure(b *testing.B) {
	e := NewEngine()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Nanosecond, func() { n++ })
		e.RunAll()
	}
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}

// BenchmarkEngineHeapChurn keeps a deep queue alive so every push/remove
// pays full heap depth, the regime the 4-ary layout targets.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine()
	sink := &benchSink{e: e}
	const depth = 4096
	x := uint64(7)
	delay := func() Duration {
		x = x*6364136223846793005 + 1442695040888963407
		return Duration(1+(x>>33)%10000) * Nanosecond
	}
	ring := make([]Event, depth)
	for i := range ring {
		ring[i] = e.ScheduleCall(delay(), sink, 0, nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(ring[i%depth])
		ring[i%depth] = e.ScheduleCall(delay(), sink, 0, nil, nil)
	}
}

// TestEngineScheduleCallAllocFree is the pinned contract behind the
// benchmarks: a warm engine performs typed schedule/fire cycles with zero
// heap allocations.
func TestEngineScheduleCallAllocFree(t *testing.T) {
	e := NewEngine()
	sink := &benchSink{e: e}
	// Warm the slab and free list.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Nanosecond, sink, 0, nil, nil)
	}
	e.RunAll()
	avg := testing.AllocsPerRun(200, func() {
		e.ScheduleCall(Nanosecond, sink, 0, sink, nil)
		e.ScheduleCall(2*Nanosecond, sink, 1, nil, sink)
		e.RunAll()
	})
	if avg != 0 {
		t.Fatalf("warm ScheduleCall allocates %.1f per cycle, want 0", avg)
	}
}

// TestEngineCancelAllocFree pins the same contract for Cancel.
func TestEngineCancelAllocFree(t *testing.T) {
	e := NewEngine()
	sink := &benchSink{e: e}
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Nanosecond, sink, 0, nil, nil)
	}
	e.RunAll()
	avg := testing.AllocsPerRun(200, func() {
		ev := e.ScheduleCall(Nanosecond, sink, 0, nil, nil)
		e.Cancel(ev)
	})
	if avg != 0 {
		t.Fatalf("warm Schedule+Cancel allocates %.1f per cycle, want 0", avg)
	}
}

// holdSink reschedules itself at a pseudo-random delay each time it fires,
// so the queue keeps a constant depth: the classic hold model of
// event-queue benchmarks.
type holdSink struct {
	e *Engine
	x uint64
}

func (s *holdSink) OnEvent(op int32, a, b any) {
	s.x = s.x*6364136223846793005 + 1442695040888963407
	s.e.ScheduleCall(Duration(1+(s.x>>33)%10000)*Nanosecond, s, op, a, b)
}

// BenchmarkEngineHold fires one event per op from a queue held at 64
// pending events, about the mean depth of a simulated server's queue: each
// fire pops the minimum and pushes its successor. Each op runs to the next
// event's time, which almost always holds one event.
func BenchmarkEngineHold(b *testing.B) {
	e := NewEngine()
	sink := &holdSink{e: e, x: 7}
	for i := 0; i < 64; i++ {
		sink.OnEvent(0, nil, nil)
	}
	e.Run(e.Now().Add(Millisecond)) // warm the slab and free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _ := e.NextEventTime()
		e.Run(t)
	}
}

// TestEventRecordSizes pins the queue's memory layout: a slab record fills
// one 64-byte cache line, and a heap entry carries its key in 24 bytes.
func TestEventRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(eventRec{}); n != 64 {
		t.Errorf("eventRec is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(heapEntry{}); n != 24 {
		t.Errorf("heapEntry is %d bytes, want 24", n)
	}
}
