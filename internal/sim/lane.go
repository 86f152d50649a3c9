package sim

import "fmt"

// Lane is a FIFO queue of events that all fire the same fixed delay after
// they are scheduled. The clock never runs backwards and every event takes
// the next sequence number, so a lane's (when, seq) keys arrive already
// sorted: only the lane's head sits in the engine's heap, and the events
// behind it wait in a ring in firing order. When the head fires or is
// cancelled, the next live event moves into the heap with the key it was
// scheduled with, so a lane event fires at exactly the point in the
// engine's total (when, seq) order it would hold had it been scheduled
// with ScheduleCall.
//
// Cancelling an event behind the head only marks it; it is skipped, and its
// slot released, when it reaches the front. Pending counts live events
// only. The ring grows by doubling to the most events the lane ever holds
// at once and is reused from then on.
type Lane struct {
	e     *Engine
	delay Duration
	id    uint16      // index+1 into Engine.lanes, stored in each record
	ring  []heapEntry // power-of-two length
	head  int         // ring index of the front event
	n     int         // events in the ring, cancelled ones included
}

// laneFirstRing is the size of a lane's first ring. The server's pin lane
// holds 128 to 512 events at its peak on the fleet-wide workload; starting
// at 64 skips the regrowths through 8, 16 and 32.
const laneFirstRing = 64

// NewLane returns a lane whose events fire delay after they are scheduled.
func (e *Engine) NewLane(delay Duration) *Lane {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", delay))
	}
	if len(e.lanes) == 1<<16-1 {
		panic("sim: too many lanes")
	}
	l := &Lane{e: e, delay: delay, id: uint16(len(e.lanes) + 1)}
	e.lanes = append(e.lanes, l)
	return l
}

// Call runs cb.OnEvent(op, a, b) one lane delay from now. Like ScheduleCall
// it allocates nothing once the engine's slab and the lane's ring are warm.
func (l *Lane) Call(cb Callback, op int32, a, b any) Event {
	if cb == nil {
		panic("sim: nil event callback")
	}
	e := l.e
	x := e.newEvent(e.now.Add(l.delay), cb, op, a, b, l.id)
	if l.n == 0 {
		e.push(x)
	} else {
		e.parked++
	}
	l.push(x)
	return Event{slot: x.slot + 1, gen: e.slab[x.slot].gen}
}

// push appends x at the back of the ring, doubling the ring when full.
func (l *Lane) push(x heapEntry) {
	if l.n == len(l.ring) {
		grown := make([]heapEntry, max(laneFirstRing, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = x
	l.n++
}

// pop drops the front event from the ring.
func (l *Lane) pop() {
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// advance runs once the front event has left the heap (it fired or was
// cancelled): it drops the front, releases the cancelled events behind it,
// and moves the next live event into the heap.
func (l *Lane) advance() {
	e := l.e
	l.pop()
	for l.n > 0 {
		x := l.ring[l.head]
		if e.slab[x.slot].state == StatePending {
			e.parked--
			e.push(x)
			return
		}
		e.release(x.slot)
		l.pop()
	}
}

// find returns the ring entry of a live event behind the head.
func (l *Lane) find(slot int32) heapEntry {
	for i := 0; i < l.n; i++ {
		if x := l.ring[(l.head+i)&(len(l.ring)-1)]; x.slot == slot {
			return x
		}
	}
	panic("sim: lane event missing from its lane")
}
