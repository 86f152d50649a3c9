package obs

import (
	"testing"

	"hardharvest/internal/sim"
)

// mapAudit is the audit's Little's-law and queue-wait bookkeeping written
// with Go maps, the reference the ring-backed Audit must agree with.
type mapAudit struct {
	inflight, enq   map[uint64]sim.Time
	lastT           sim.Time
	integral        sim.Duration
	latSum, missSum sim.Duration
	latCount        uint64
	waitSum         sim.Duration
	waitCount       uint64
	end             sim.Time
}

func newMapAudit() *mapAudit {
	return &mapAudit{inflight: map[uint64]sim.Time{}, enq: map[uint64]sim.Time{}}
}

func (m *mapAudit) observe(ev Event) {
	if ev.IsJob {
		return
	}
	switch ev.Kind {
	case KindEnqueue, KindUnblock:
		if ev.Measured {
			m.enq[ev.Req] = ev.Time
		}
	case KindDispatch:
		if at, ok := m.enq[ev.Req]; ok {
			delete(m.enq, ev.Req)
			m.waitSum += ev.Time.Sub(at)
			m.waitCount++
		}
	}
	if !ev.Measured {
		return
	}
	advance := func() {
		m.integral += sim.Duration(len(m.inflight)) * ev.Time.Sub(m.lastT)
		m.lastT = ev.Time
	}
	switch ev.Kind {
	case KindArrival:
		advance()
		m.inflight[ev.Req] = ev.Time
	case KindComplete, KindDeadlineMiss:
		if _, ok := m.inflight[ev.Req]; ok {
			advance()
			delete(m.inflight, ev.Req)
			if ev.Kind == KindComplete {
				m.latSum += ev.Dur
				m.latCount++
			} else {
				m.missSum += ev.Dur
			}
		}
	}
}

func (m *mapAudit) finish(end sim.Time) {
	m.integral += sim.Duration(len(m.inflight)) * end.Sub(m.lastT)
	m.end = end
}

// TestAuditMatchesMapReference drives the audit with a server-like stream
// whose request ids mostly rise but whose completions and dispatches come
// out of order: the oldest id completes, ids arrive below the live window,
// a few ids stay live across thousands of newer ones (so the rings grow,
// wrap around and push ids to their overflow maps), and unmeasured traffic
// and unknown ids are mixed in. Every quantity is checked against mapAudit
// while the stream runs and after Finish.
func TestAuditMatchesMapReference(t *testing.T) {
	a, ref := NewAudit(), newMapAudit()
	x := uint64(5)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 17) % n
	}
	var now sim.Time
	var live, queued []uint64 // ids in flight and ids waiting for dispatch
	arrival := map[uint64]sim.Time{}
	nextID := uint64(1000)
	send := func(ev Event) {
		ev.Time = now
		a.Observe(ev)
		ref.observe(ev)
	}
	remove := func(s []uint64, i int) []uint64 { return append(s[:i], s[i+1:]...) }
	arrive := func(id uint64) {
		measured := next(10) != 0
		arrival[id] = now
		send(Event{Kind: KindArrival, Req: id, Measured: measured})
		send(Event{Kind: KindEnqueue, Req: id, Measured: measured})
		live = append(live, id)
		queued = append(queued, id)
	}
	resolve := func(i int) {
		id := live[i]
		live = remove(live, i)
		kind := KindComplete
		if next(5) == 0 {
			kind = KindDeadlineMiss
		}
		send(Event{Kind: kind, Req: id, Dur: now.Sub(arrival[id]), Measured: true})
	}
	check := func(where string) {
		if n := a.inflight.len(); n != len(ref.inflight) {
			t.Fatalf("%s: %d in flight, reference %d", where, n, len(ref.inflight))
		}
		if n := a.enq.len(); n != len(ref.enq) {
			t.Fatalf("%s: %d queued, reference %d", where, n, len(ref.enq))
		}
		if got, want := a.Integral(), ref.integral; got != want {
			t.Fatalf("%s: Integral = %v, reference %v", where, got, want)
		}
		if got, n := a.LatencySum(); got != ref.latSum || n != ref.latCount {
			t.Fatalf("%s: LatencySum = %v, %d; reference %v, %d", where, got, n, ref.latSum, ref.latCount)
		}
		if got, _ := a.MissSum(); got != ref.missSum {
			t.Fatalf("%s: MissSum = %v, reference %v", where, got, ref.missSum)
		}
		var wantWait sim.Duration
		if ref.waitCount > 0 {
			wantWait = ref.waitSum / sim.Duration(ref.waitCount)
		}
		if got, n := a.MeanQueueWait(); got != wantWait || n != ref.waitCount {
			t.Fatalf("%s: MeanQueueWait = %v, %d; reference %v, %d", where, got, n, wantWait, ref.waitCount)
		}
	}

	// Two stragglers stay in flight and queued for most of the run.
	arrive(nextID)
	arrive(nextID + 1)
	nextID += 2
	stragglers := len(live)
	var belowWindow int
	for i := 0; i < 20000; i++ {
		now = now.Add(sim.Duration(next(2000)) * sim.Nanosecond)
		op := next(20)
		switch {
		case len(live) > stragglers+48:
			op = 10 // keep a few dozen in flight, as a server does
		case len(queued) > stragglers+48:
			op = 14
		}
		switch {
		case op < 6:
			arrive(nextID)
			nextID += 1 + next(3) // ids other servers' streams would fill
		case op == 6 && len(live) > stragglers:
			// An id below every live one but the stragglers: lower than
			// the start of the window once they have been pushed out.
			low := live[stragglers] - 1 - next(3)
			if _, seen := arrival[low]; !seen {
				arrive(low)
				belowWindow++
			}
		case op < 10 && len(live) > stragglers:
			resolve(stragglers) // the oldest non-straggler
		case op < 14 && len(live) > stragglers:
			resolve(stragglers + int(next(uint64(len(live)-stragglers))))
		case op < 17 && len(queued) > stragglers:
			j := stragglers + int(next(uint64(len(queued)-stragglers)))
			send(Event{Kind: KindDispatch, Req: queued[j]})
			if next(3) == 0 {
				// The request blocks and is later unblocked: its id
				// re-enters the queue-wait table behind newer ids.
				send(Event{Kind: KindUnblock, Req: queued[j], Measured: true})
			} else {
				queued = remove(queued, j)
			}
		case op == 17:
			send(Event{Kind: KindDispatch, Req: nextID + 1<<20}) // never enqueued
			send(Event{Kind: KindComplete, Req: 1, Measured: true})
		default:
			send(Event{Kind: KindEnqueue, Req: nextID, IsJob: true, Measured: true})
		}
		if i == 15000 {
			// The stragglers leave at last.
			for range stragglers {
				resolve(0)
				send(Event{Kind: KindDispatch, Req: queued[0]})
				queued = remove(queued, 0)
			}
			stragglers = 0
		}
		if i%100 == 0 {
			check("stream")
		}
	}
	if belowWindow == 0 {
		t.Fatal("the stream never sent an id below the live window")
	}
	if a.inflight.old == nil || a.enq.old == nil {
		t.Fatal("the stream never pushed an id out of a ring")
	}
	end := now.Add(sim.Millisecond)
	a.Finish(end)
	ref.finish(end)
	check("finish")
	n, resid := a.Unresolved()
	var wantResid sim.Duration
	for _, at := range ref.inflight {
		wantResid += end.Sub(at)
	}
	if n != len(ref.inflight) || resid != wantResid {
		t.Fatalf("Unresolved = %d, %v; reference %d, %v", n, resid, len(ref.inflight), wantResid)
	}
	if n == 0 {
		t.Fatal("nothing left unresolved: Unresolved is untested")
	}
}

// TestIDTableMatchesMap: random puts and takes, with ids that rise, fall
// below the window and jump far ahead of it, agree with a map.
func TestIDTableMatchesMap(t *testing.T) {
	var tab idTable
	ref := map[uint64]sim.Time{}
	x := uint64(11)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 17) % n
	}
	top := uint64(1 << 40) // ids near the top of a large range
	for i := 0; i < 50000; i++ {
		var id uint64
		switch next(10) {
		case 0:
			id = top - next(4096) // below or inside the window
		case 1:
			top += 1000 + next(1<<14) // far ahead of the window
			id = top
		default:
			top += next(3)
			id = top - next(64)
		}
		if next(2) == 0 {
			at := sim.Time(next(1 << 30))
			tab.put(id, at)
			ref[id] = at
		} else {
			at, ok := tab.take(id)
			want, wantOK := ref[id]
			if ok != wantOK || at != want {
				t.Fatalf("take(%d) = %v, %v; want %v, %v", id, at, ok, want, wantOK)
			}
			delete(ref, id)
		}
		if tab.len() != len(ref) {
			t.Fatalf("len = %d, want %d", tab.len(), len(ref))
		}
	}
	var sum, want sim.Duration
	tab.each(func(at sim.Time) { sum += sim.Duration(at) })
	for _, at := range ref {
		want += sim.Duration(at)
	}
	if sum != want {
		t.Fatalf("each sums to %v, want %v", sum, want)
	}
	// The ring stays proportional to the live ids.
	if limit := max(idRingFree, 16*tab.live); len(tab.slots) > limit {
		t.Fatalf("ring of %d slots for %d live ids", len(tab.slots), tab.live)
	}
}

// TestIDTableOverflowAndBack: an id pushed out of the ring by one far
// ahead, stored again once the ring has emptied, is held once and returns
// its latest time.
func TestIDTableOverflowAndBack(t *testing.T) {
	var tab idTable
	tab.put(1, 10)
	tab.put(1000, 20) // too far ahead for a ring holding one live id
	if tab.old == nil || tab.len() != 2 {
		t.Fatalf("id 1 not pushed out: overflow %v, len %d", tab.old, tab.len())
	}
	if at, ok := tab.take(1000); !ok || at != 20 {
		t.Fatalf("take(1000) = %v, %v", at, ok)
	}
	tab.put(1, 30) // the ring is empty and restarts at id 1
	if tab.len() != 1 {
		t.Fatalf("len = %d after storing id 1 again, want 1", tab.len())
	}
	if at, ok := tab.take(1); !ok || at != 30 {
		t.Fatalf("take(1) = %v, %v; want 30", at, ok)
	}
	if _, ok := tab.take(1); ok || tab.len() != 0 {
		t.Fatalf("id 1 still stored: len %d", tab.len())
	}
}
