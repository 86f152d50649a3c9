package sim

import (
	"fmt"
	"math/bits"
)

// The engine's event queue is built for a near-allocation-free hot path:
//
//   - Events live in a slab ([]eventRec) indexed by small integers; the
//     priority queue is a typed 4-ary min-heap of heapEntry values that carry
//     the (when, seq) key inline next to the slab index, so push/pop never
//     box through `any` and a comparison never loads a slab record. A record
//     holds only what firing and cancelling need: the callback, its payload,
//     the heap position and the handle generation.
//   - Fired and cancelled slots go to a free list and are reused. Handles
//     (Event) carry a generation counter, so a stale handle can never cancel
//     or observe a recycled slot.
//   - ScheduleCall binds a typed callback (receiver + op code + two pointer
//     payloads) directly in the event record, so hot model call sites do not
//     allocate a closure per event. Schedule keeps the closure form for cold
//     sites; it stores the closure as a funcCall, so every record holds a
//     Callback and Run has one way to fire an event.
//   - A Lane queues events that all fire a fixed delay after they are
//     scheduled. Their keys arrive sorted, so only a lane's head sits in the
//     heap; the rest wait in the lane's ring, in the order they will fire.
//   - Run fires an event without popping it (a hold-style loop): the firing
//     entry stays in the heap's root as a sentinel while its callback runs,
//     and the first event scheduled in the meantime (a lane's next head
//     included) takes the root with one sift-down. Only when the callback
//     schedules nothing does Run move the last entry to the root. A fired
//     event that schedules its successor, the common case, thus costs one
//     sift instead of two. See vacant.
//
// A 4-ary heap does the same comparisons asymptotically as a binary heap but
// with half the depth: sift-downs touch fewer cache lines, which dominates
// for the simulator's push/pop-heavy workload.

// EventState describes where an event is in its lifecycle.
type EventState uint8

const (
	// StateNone means the handle is zero, from another engine, or its slot
	// has been recycled for a newer event (the handle expired).
	StateNone EventState = iota
	// StatePending means the event is scheduled and has not fired.
	StatePending
	// StateFiring means the event's callback is executing right now.
	StateFiring
	// StateFired means the callback ran to completion.
	StateFired
	// StateCancelled means Cancel removed the event before it fired.
	StateCancelled
)

func (s EventState) String() string {
	switch s {
	case StateNone:
		return "none"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateFired:
		return "fired"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("EventState(%d)", uint8(s))
	}
}

// Event is a generation-checked handle to a scheduled event. The zero Event
// references nothing (Valid reports false) and is safe to Cancel or query.
// A handle stays answerable (StateFired / StateCancelled) until its slot is
// reused for a newer event, after which State reports StateNone and Cancel
// remains a no-op — recycling can never resurrect or disturb an old event.
type Event struct {
	slot int32 // slab index + 1; 0 means "no event"
	gen  uint32
}

// Valid reports whether the handle was returned by a Schedule call (the
// event may have fired or been cancelled since).
func (ev Event) Valid() bool { return ev.slot != 0 }

// Callback receives typed events scheduled with ScheduleCall or CallAt. The
// op code and both payload arguments live in the event record itself;
// storing pointers in `any` does not allocate, so a model binds
// "method + receiver + payload" with zero per-event heap allocations.
type Callback interface {
	OnEvent(op int32, a, b any)
}

// funcCall adapts a Schedule/At closure to Callback. A func value is one
// pointer, so converting it to an interface allocates nothing.
type funcCall func()

func (f funcCall) OnEvent(int32, any, any) { f() }

// eventRec is one slab slot (64 bytes). Its (when, seq) key lives in the
// heap entry, or in its lane's ring while it waits behind the lane's head.
type eventRec struct {
	cb      Callback
	a, b    any
	op      int32
	heapIdx int32 // position in Engine.heap, -1 when not in the heap
	gen     uint32
	state   EventState
	lane    uint16 // index+1 into Engine.lanes; 0 for a direct event
}

// heapEntry is one heap (or lane ring) element: the event's key and its slab
// index.
type heapEntry struct {
	when Time
	seq  uint64
	slot int32
}

// before orders two entries by (when, seq).
func (x *heapEntry) before(y *heapEntry) bool {
	if x.when != y.when {
		return x.when < y.when
	}
	return x.seq < y.seq
}

// earlier is before as a mask: all ones when x sorts before y, else zero.
// It compares (when, seq) as one 128-bit number, when the high word, by a
// subtract-with-borrow, so a sift picks among children without a branch to
// mispredict. Times are never negative, so when compares correctly as
// unsigned.
func earlier(x, y *heapEntry) int {
	_, borrow := bits.Sub64(x.seq, y.seq, 0)
	_, borrow = bits.Sub64(uint64(x.when), uint64(y.when), borrow)
	return -int(borrow)
}

// Engine is a single-threaded discrete-event simulator. It is intentionally
// not safe for concurrent use: determinism is a core requirement of the
// experiment harness, so all model code runs on the engine's goroutine.
type Engine struct {
	now    Time
	seq    uint64
	heap   []heapEntry // 4-ary min-heap on (when, seq)
	slab   []eventRec
	free   []int32
	lanes  []*Lane
	parked int // live lane events waiting behind their lane's head
	// vacant reports that heap[0] still holds the entry of the event now
	// firing, not a pending one. That key sorts before every pending key
	// (each pending event is later, or takes a later sequence number at the
	// same instant), so the heap stays ordered with it in place: heapPush
	// overwrites it and sifts down, and a heapRemove's sift-up stops below
	// it. Run closes a root still vacant when the callback returns.
	vacant bool
	// firing reports that an event callback is running.
	firing  bool
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far (useful for progress
// accounting and tests).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events currently scheduled (cancelled lane
// events not yet skipped are not counted).
func (e *Engine) Pending() int {
	n := len(e.heap) + e.parked
	if e.vacant {
		n--
	}
	return n
}

// NextEventTime peeks at the earliest pending event's timestamp without
// executing anything; ok is false when the queue is empty. The shard
// scheduler uses it as each member's event floor when computing
// conservative synchronization windows, and to fast-forward past idle gaps
// in O(1). Inside a callback that has scheduled nothing yet the root is
// vacant, and the earliest pending event is one of its children.
func (e *Engine) NextEventTime() (Time, bool) {
	h := e.heap
	if !e.vacant {
		if len(h) == 0 {
			return 0, false
		}
		return h[0].when, true
	}
	if len(h) < 2 {
		return 0, false
	}
	best := 1
	for k := 2; k < len(h) && k <= 4; k++ {
		if h[k].before(&h[best]) {
			best = k
		}
	}
	return h[best].when, true
}

// Schedule runs fn after delay. A negative delay is an error in model code
// and panics; a zero delay runs fn after all events already scheduled for the
// current instant.
func (e *Engine) Schedule(delay Duration, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", delay, e.now))
	}
	return e.At(e.now.Add(delay), fn)
}

// At schedules fn at an absolute time, which must not be in the past.
func (e *Engine) At(when Time, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(when, funcCall(fn), 0, nil, nil)
}

// ScheduleCall runs cb.OnEvent(op, a, b) after delay. Unlike Schedule it
// allocates nothing once the engine's slab is warm: the receiver, op code,
// and payloads are stored in the event record. a and b should be pointers
// (or nil); value types would box.
func (e *Engine) ScheduleCall(delay Duration, cb Callback, op int32, a, b any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", delay, e.now))
	}
	return e.CallAt(e.now.Add(delay), cb, op, a, b)
}

// CallAt is ScheduleCall at an absolute time, which must not be in the past.
func (e *Engine) CallAt(when Time, cb Callback, op int32, a, b any) Event {
	if cb == nil {
		panic("sim: nil event callback")
	}
	return e.schedule(when, cb, op, a, b)
}

func (e *Engine) schedule(when Time, cb Callback, op int32, a, b any) Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", when, e.now))
	}
	x := e.newEvent(when, cb, op, a, b, 0)
	if e.vacant {
		e.fillRoot(x)
	} else {
		e.heapPush(x)
	}
	return Event{slot: x.slot + 1, gen: e.slab[x.slot].gen}
}

// newEvent fills a slab record for a pending event and returns its key,
// which takes the next sequence number.
func (e *Engine) newEvent(when Time, cb Callback, op int32, a, b any, lane uint16) heapEntry {
	id := e.alloc()
	rec := &e.slab[id]
	rec.cb = cb
	rec.op = op
	rec.a = a
	rec.b = b
	rec.state = StatePending
	rec.lane = lane
	x := heapEntry{when: when, seq: e.seq, slot: id}
	e.seq++
	return x
}

// alloc takes a slot from the free list, or grows the slab. The generation
// bumps at reuse time, not release time, so a settled slot stays answerable
// (Fired/Cancelled) to old handles until the slot is actually recycled.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[id].gen++
		return id
	}
	e.slab = append(e.slab, eventRec{heapIdx: -1})
	return int32(len(e.slab) - 1)
}

func (e *Engine) release(id int32) {
	rec := &e.slab[id]
	rec.cb = nil
	rec.a = nil
	rec.b = nil
	e.free = append(e.free, id)
}

// rec resolves a handle to its slab record, or nil if the handle is zero,
// foreign, or expired (slot recycled).
func (e *Engine) rec(ev Event) *eventRec {
	if ev.slot <= 0 || int(ev.slot) > len(e.slab) {
		return nil
	}
	rec := &e.slab[ev.slot-1]
	if rec.gen != ev.gen {
		return nil
	}
	return rec
}

// State reports the event's lifecycle state. Handles expire once their slot
// is reused (StateNone); see Event.
func (e *Engine) State(ev Event) EventState {
	rec := e.rec(ev)
	if rec == nil {
		return StateNone
	}
	return rec.state
}

// EventTime reports when a pending or firing event is scheduled for; ok is
// false for settled or expired handles. A lane event waiting behind its
// lane's head is found by a walk of the lane's ring.
func (e *Engine) EventTime(ev Event) (Time, bool) {
	rec := e.rec(ev)
	if rec == nil {
		return 0, false
	}
	switch {
	case rec.state == StateFiring:
		return e.now, true
	case rec.state != StatePending:
		return 0, false
	case rec.heapIdx >= 0:
		return e.heap[rec.heapIdx].when, true
	default:
		return e.lanes[rec.lane-1].find(ev.slot - 1).when, true
	}
}

// Cancel removes a scheduled event, reporting whether it did. Cancelling a
// zero handle, a settled or expired event, or the event currently firing is
// a no-op (an event cannot cancel itself mid-execution). A lane event behind
// its lane's head is only marked: its slot is released when it reaches the
// front of the lane.
func (e *Engine) Cancel(ev Event) bool {
	rec := e.rec(ev)
	if rec == nil || rec.state != StatePending {
		return false
	}
	rec.state = StateCancelled
	if rec.heapIdx < 0 {
		e.parked--
		return true
	}
	e.heapRemove(rec.heapIdx)
	rec.heapIdx = -1
	e.release(ev.slot - 1)
	if rec.lane != 0 {
		e.lanes[rec.lane-1].advance()
	}
	return true
}

// Stop makes Run return after the currently-executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains, Stop is called, or the clock
// would pass horizon (inclusive). It returns the time of the last event
// executed (or the current time if none ran). The clock does not jump to the
// horizon: experiments measure occupancy against the time actually simulated.
// Calling Run from an event callback panics.
func (e *Engine) Run(horizon Time) Time {
	if e.firing {
		panic("sim: Run called from an event callback")
	}
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		top := e.heap[0]
		if top.when > horizon {
			break
		}
		id := top.slot
		rec := &e.slab[id]
		e.now = top.when
		// The entry stays in the root while the event fires; the first
		// event scheduled from here on replaces it (see vacant).
		rec.heapIdx = -1
		e.vacant = true
		if rec.lane != 0 {
			// The lane's next live event takes the head's place in the heap.
			e.lanes[rec.lane-1].advance()
		}
		rec.state = StateFiring
		cb, op, a, b := rec.cb, rec.op, rec.a, rec.b
		e.fired++
		e.firing = true
		cb.OnEvent(op, a, b)
		e.firing = false
		if e.vacant {
			e.closeRoot()
		}
		// The callback may have grown the slab; re-resolve by index. The
		// slot joins the free list only now, so nothing scheduled during the
		// callback can reuse it while it fires.
		rec = &e.slab[id]
		rec.state = StateFired
		e.release(id)
	}
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time {
	const forever = Time(1<<62 - 1)
	return e.Run(forever)
}

// AdvanceTo moves the clock forward with no event execution. It is used by
// trace replay tools; model code should schedule events instead. Panics if
// events are pending before the target time, or if called from an event
// callback.
func (e *Engine) AdvanceTo(t Time) {
	if e.firing {
		panic("sim: AdvanceTo called from an event callback")
	}
	if t < e.now {
		panic("sim: AdvanceTo into the past")
	}
	if len(e.heap) > 0 && e.heap[0].when < t {
		panic("sim: AdvanceTo would skip pending events")
	}
	e.now = t
}

// ---- 4-ary heap ----
//
// The heap orders entries by (when, seq); seq is a strict FIFO tie-break, so
// pop order is a total order and simulation runs are deterministic
// regardless of heap layout. Each entry carries its key, so sifts compare
// heap memory only and touch the slab just to record an entry's new
// position.

// push adds x to the heap: into a vacant root by one sift-down, else at
// the end by a sift-up. schedule spells the branch out, so heapPush stays
// inlined on the path outside Run.
func (e *Engine) push(x heapEntry) {
	if e.vacant {
		e.fillRoot(x)
		return
	}
	e.heapPush(x)
}

func (e *Engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	e.siftUp(len(e.heap)-1, x)
}

// fillRoot puts x in the vacant root. The firing event's entry there sorts
// before x and every pending entry, so x can sift down from the root.
func (e *Engine) fillRoot(x heapEntry) {
	e.vacant = false
	e.siftDown(0, x)
}

// closeRoot moves the last entry into a root that the event that just
// fired left vacant: the pop a callback that scheduled nothing still owes.
func (e *Engine) closeRoot() {
	e.vacant = false
	h := e.heap
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// heapRemove deletes the element at heap position i. Under a vacant root
// (a Cancel from a callback) i is never 0, and the sift-up stops below the
// firing event's entry, which sorts before everything pending.
func (e *Engine) heapRemove(i int32) {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if int(i) < n {
		j := e.siftDown(int(i), last)
		if j == int(i) {
			e.siftUp(j, last)
		}
	}
}

// siftUp places x at position i, moving it toward the root while it sorts
// before its parent. Writes each displaced element exactly once.
func (e *Engine) siftUp(i int, x heapEntry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		e.slab[h[i].slot].heapIdx = int32(i)
		i = p
	}
	h[i] = x
	e.slab[x.slot].heapIdx = int32(i)
}

// siftDown places x at position i, moving it toward the leaves while a
// child sorts before it. Returns the final position. Which child is
// earliest is a coin flip to the branch predictor, so a node with all four
// children picks it branch-free: the earlier of each pair, then the earlier
// of the two winners.
func (e *Engine) siftDown(i int, x heapEntry) int {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		if c+4 <= n {
			kids := h[c : c+4 : c+4]
			l := 1 & earlier(&kids[1], &kids[0])
			r := 2 | 1&earlier(&kids[3], &kids[2])
			best += l ^ (l^r)&earlier(&kids[r], &kids[l])
		} else {
			for k := c + 1; k < n; k++ {
				if h[k].before(&h[best]) {
					best = k
				}
			}
		}
		if !h[best].before(&x) {
			break
		}
		h[i] = h[best]
		e.slab[h[i].slot].heapIdx = int32(i)
		i = best
	}
	h[i] = x
	e.slab[x.slot].heapIdx = int32(i)
	return i
}
