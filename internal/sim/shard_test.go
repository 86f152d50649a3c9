package sim

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// chainCB schedules a follow-up event on its own engine until limit events
// have fired, logging each firing time. It exercises the pure fleet case:
// members with no links free-running to the horizon.
type chainCB struct {
	eng   *Engine
	step  Duration
	limit int
	fired int
	log   []Time
}

func (c *chainCB) OnEvent(op int32, a, b any) {
	c.fired++
	c.log = append(c.log, c.eng.Now())
	if c.fired < c.limit {
		c.eng.ScheduleCall(c.step, c, 0, nil, nil)
	}
}

func runFleet(t *testing.T, workers, members int) [][]Time {
	t.Helper()
	g := NewShardGroup(workers)
	cbs := make([]*chainCB, members)
	for i := 0; i < members; i++ {
		eng := NewEngine()
		// Different step per member so their event sets interleave unevenly.
		cbs[i] = &chainCB{eng: eng, step: Duration(100 + 7*i), limit: 50}
		eng.ScheduleCall(Duration(i+1), cbs[i], 0, nil, nil)
		g.Add(eng)
	}
	g.Run(Time(1_000_000))
	logs := make([][]Time, members)
	for i, c := range cbs {
		logs[i] = c.log
	}
	return logs
}

func TestShardGroupFleetDeterminism(t *testing.T) {
	want := runFleet(t, 1, 9)
	for _, workers := range []int{2, 4, 8} {
		got := runFleet(t, workers, 9)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fleet logs differ between 1 worker and %d workers", workers)
		}
	}
	// Sanity: every member actually fired its whole chain.
	for i, log := range want {
		if len(log) != 50 {
			t.Fatalf("member %d fired %d events, want 50", i, len(log))
		}
	}
}

// pingCB bounces a message to its peer over the group until limit hops,
// logging (time, hop) pairs on its own member. It exercises cross-member
// sends from inside worker-executed callbacks.
type pingCB struct {
	g          *ShardGroup
	self, peer int
	peerCB     Callback
	la         Duration
	hops       *int
	limit      int
	log        []string
}

func (p *pingCB) OnEvent(op int32, a, b any) {
	*p.hops++
	p.log = append(p.log, fmt.Sprintf("m%d@%v hop%d", p.self, p.g.members[p.self].eng.Now(), op))
	if *p.hops < p.limit {
		p.g.Send(p.self, p.peer, p.la, p.peerCB, op+1, nil, nil)
	}
}

func runPingPong(t *testing.T, workers int) []string {
	t.Helper()
	g := NewShardGroup(workers)
	la := Duration(250)
	a, b := NewEngine(), NewEngine()
	ida, idb := g.Add(a), g.Add(b)
	g.Link(ida, idb, la)
	g.Link(idb, ida, la)
	hops := 0
	ca := &pingCB{g: g, self: ida, peer: idb, la: la, hops: &hops, limit: 20}
	cb := &pingCB{g: g, self: idb, peer: ida, la: la, hops: &hops, limit: 20}
	ca.peerCB = cb
	cb.peerCB = ca
	a.ScheduleCall(Duration(10), ca, 0, nil, nil)
	g.Run(Time(100_000))
	out := append([]string{}, ca.log...)
	return append(out, cb.log...)
}

func TestShardGroupPingPongDeterminism(t *testing.T) {
	want := runPingPong(t, 1)
	if len(want) == 0 {
		t.Fatal("ping-pong produced no events")
	}
	for _, workers := range []int{2, 8} {
		if got := runPingPong(t, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("ping-pong trace differs between 1 worker and %d workers:\n1: %v\n%d: %v",
				workers, want, workers, got)
		}
	}
}

// sinkCB logs the source id (carried in op) of each delivered message.
type sinkCB struct {
	eng *Engine
	log []int32
}

func (s *sinkCB) OnEvent(op int32, a, b any) { s.log = append(s.log, op) }

// burstCB sends one message to the sink when it fires.
type burstCB struct {
	g         *ShardGroup
	self, dst int
	sink      Callback
	la        Duration
}

func (c *burstCB) OnEvent(op int32, a, b any) {
	c.g.Send(c.self, c.dst, c.la, c.sink, int32(c.self), nil, nil)
}

// TestShardGroupDeliveryOrder pins the tie-break for simultaneous
// cross-member messages: equal timestamps deliver in (source id, send
// sequence) order, independent of which worker goroutine appended first.
func TestShardGroupDeliveryOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		g := NewShardGroup(workers)
		sinkEng := NewEngine()
		sink := &sinkCB{eng: sinkEng}
		sinkID := g.Add(sinkEng)
		la := Duration(100)
		const senders = 5
		for i := 0; i < senders; i++ {
			eng := NewEngine()
			id := g.Add(eng)
			g.Link(id, sinkID, la)
			c := &burstCB{g: g, self: id, dst: sinkID, sink: sink, la: la}
			// All senders fire at t=50, so all messages land at t=150.
			eng.CallAt(Time(50), c, 0, nil, nil)
		}
		g.Run(Time(1_000))
		if len(sink.log) != senders {
			t.Fatalf("workers=%d: sink got %d messages, want %d", workers, len(sink.log), senders)
		}
		for i := 1; i < len(sink.log); i++ {
			if sink.log[i] <= sink.log[i-1] {
				t.Fatalf("workers=%d: delivery order not by source id: %v", workers, sink.log)
			}
		}
	}
}

// TestShardGroupIdleFastForward verifies a member with a huge event gap still
// completes (the group skips the gap rather than stepping through it) and
// that resumable horizons behave like Engine.Run's.
func TestShardGroupIdleFastForward(t *testing.T) {
	g := NewShardGroup(2)
	eng := NewEngine()
	c := &chainCB{eng: eng, step: Duration(1), limit: 2}
	eng.CallAt(Time(5), c, 0, nil, nil)
	busy := NewEngine()
	cb := &chainCB{eng: busy, step: Duration(1_000_000), limit: 100}
	busy.ScheduleCall(Duration(1), cb, 0, nil, nil)
	g.Add(eng)
	g.Add(busy)

	g.Run(Time(3))
	if len(c.log) != 0 {
		t.Fatalf("event fired before horizon: %v", c.log)
	}
	g.Run(Time(200_000_000))
	if want := []Time{5, 6}; !reflect.DeepEqual(c.log, want) {
		t.Fatalf("sparse member log = %v, want %v", c.log, want)
	}
	if len(cb.log) != 100 {
		t.Fatalf("busy member fired %d events, want 100", len(cb.log))
	}
}

func TestShardGroupPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}

	g := NewShardGroup(1)
	a, b := g.Add(NewEngine()), g.Add(NewEngine())
	g.Link(a, b, 100)

	mustPanic("self-link", func() { g.Link(a, a, 10) })
	mustPanic("zero lookahead", func() { g.Link(b, a, 0) })
	mustPanic("unknown member", func() { g.Link(a, 99, 10) })
	mustPanic("send without link", func() { g.Send(b, a, 500, &sinkCB{}, 0, nil, nil) })
	mustPanic("send below lookahead", func() { g.Send(a, b, 99, &sinkCB{}, 0, nil, nil) })
	mustPanic("nil advance", func() { g.AddFunc(NewEngine(), nil) })
}

// TestShardGroupAddFunc pins AddFunc's contract: the advance function only
// runs the member's engine, so the group skips it whenever no event is due
// at or below the window cap, and a custom advance ends in exactly the
// engine state Add's default advance reaches.
func TestShardGroupAddFunc(t *testing.T) {
	t.Run("idle member is never called", func(t *testing.T) {
		g := NewShardGroup(2)
		eng := NewEngine()
		var caps []Time
		g.AddFunc(eng, func(to Time) {
			caps = append(caps, to)
			eng.Run(to)
		})
		g.Run(Time(500))
		if len(caps) != 0 {
			t.Fatalf("idle member advanced with caps %v", caps)
		}
		// The group recorded the horizon: an event scheduled past it runs
		// in the next Run, in one call capped at the new horizon.
		c := &chainCB{eng: eng, step: 1, limit: 1}
		eng.CallAt(Time(600), c, 0, nil, nil)
		g.Run(Time(900))
		if !reflect.DeepEqual(caps, []Time{900}) || !reflect.DeepEqual(c.log, []Time{600}) {
			t.Fatalf("caps = %v, log = %v; want [900], [600]", caps, c.log)
		}
	})
	t.Run("busy member matches Add", func(t *testing.T) {
		g := NewShardGroup(2)
		// A pacer linked to both members keeps their caps short, so they
		// advance over many windows with idle gaps between their events.
		pacer := NewEngine()
		pacer.ScheduleCall(1, &chainCB{eng: pacer, step: 100, limit: 50}, 0, nil, nil)
		p := g.Add(pacer)
		fn, plain := NewEngine(), NewEngine()
		fnCB := &chainCB{eng: fn, step: 370, limit: 12}
		plainCB := &chainCB{eng: plain, step: 370, limit: 12}
		fn.ScheduleCall(3, fnCB, 0, nil, nil)
		plain.ScheduleCall(3, plainCB, 0, nil, nil)
		var caps []Time
		a := g.AddFunc(fn, func(to Time) {
			before := fn.Fired()
			caps = append(caps, to)
			fn.Run(to)
			if fn.Fired() == before {
				t.Errorf("member called at cap %v with no event due", to)
			}
		})
		b := g.Add(plain)
		g.Link(p, a, 50)
		g.Link(p, b, 50)
		g.Run(Time(3_000))
		g.Run(Time(10_000))
		if len(caps) < 2 {
			t.Fatalf("caps = %v, want several windows", caps)
		}
		for i := 1; i < len(caps); i++ {
			if caps[i] <= caps[i-1] {
				t.Fatalf("caps not strictly increasing: %v", caps)
			}
		}
		if fn.Now() != plain.Now() || fn.Fired() != plain.Fired() || !reflect.DeepEqual(fnCB.log, plainCB.log) {
			t.Fatalf("AddFunc member at %v after %d events, Add member at %v after %d",
				fn.Now(), fn.Fired(), plain.Now(), plain.Fired())
		}
		if len(fnCB.log) != 12 {
			t.Fatalf("member fired %d events, want 12", len(fnCB.log))
		}
	})
}

// TestShardGroupMemberHorizon: a member whose advance clamps at its own
// horizon, as cluster.Server.StepTo does, keeps a later event pending.
// Declared with SetHorizon, that event counts as no event, so the linked
// neighbour runs on to the group's horizon. Undeclared, the event pins the
// neighbour's cap below it and the group panics naming the member instead
// of looping on empty windows. Each Run gets a deadline, so a spin fails
// the test rather than hanging it.
func TestShardGroupMemberHorizon(t *testing.T) {
	build := func(declare bool) (*ShardGroup, *chainCB, *chainCB) {
		g := NewShardGroup(1)
		clamped, other := NewEngine(), NewEngine()
		late := &chainCB{eng: clamped, step: 1, limit: 1}
		clamped.CallAt(1100, late, 0, nil, nil)
		next := &chainCB{eng: other, step: 1, limit: 1}
		other.CallAt(1400, next, 0, nil, nil)
		a := g.AddFunc(clamped, func(to Time) { clamped.Run(min(to, 1000)) })
		if declare {
			g.SetHorizon(a, 1000)
		}
		b := g.Add(other)
		g.Link(a, b, 100)
		g.Link(b, a, 100)
		return g, late, next
	}
	run := func(g *ShardGroup) any {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			g.Run(1500)
		}()
		select {
		case p := <-done:
			return p
		case <-time.After(5 * time.Second):
			t.Fatal("Run(1500) did not return within 5 s")
			return nil
		}
	}

	g, late, next := build(true)
	if p := run(g); p != nil {
		t.Fatalf("declared horizon: Run panicked: %v", p)
	}
	if len(late.log) != 0 || !reflect.DeepEqual(next.log, []Time{1400}) {
		t.Fatalf("past-horizon event fired at %v, neighbour's event at %v; want none and [1400]", late.log, next.log)
	}
	for _, m := range g.members {
		if m.doneTo != 1500 {
			t.Fatalf("member %d ran to %v, want 1500", m.id, m.doneTo)
		}
	}

	g, _, next = build(false)
	p := run(g)
	if msg, ok := p.(string); !ok || !strings.Contains(msg, "member 0 has run to 1299ps with its floor at 1100ps") {
		t.Fatalf("undeclared horizon: panic %v, want a stall naming member 0 and its floor", p)
	}
	if len(next.log) != 0 {
		t.Fatalf("neighbour ran to %v past the stalled member's floor", next.log)
	}
}

func BenchmarkShardGroupFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewShardGroup(1)
		for m := 0; m < 16; m++ {
			eng := NewEngine()
			c := &chainCB{eng: eng, step: Duration(100 + m), limit: 200}
			eng.ScheduleCall(Duration(m+1), c, 0, nil, nil)
			g.Add(eng)
		}
		g.Run(Time(10_000_000))
	}
}

// echoCB bounces every message straight back to its peer, forever, and
// counts the messages it received.
type echoCB struct {
	g          *ShardGroup
	self, peer int
	peerCB     Callback
	la         Duration
	got        int
}

func (e *echoCB) OnEvent(op int32, _, _ any) {
	e.got++
	e.g.Send(e.self, e.peer, e.la, e.peerCB, op, nil, nil)
}

// TestShardGroupWindowAllocFree pins the coordinator's steady state: a warm
// two-member group that exchanges messages in every window (inbox sort,
// delivery, floors, caps and the batch run) allocates nothing per Run step.
func TestShardGroupWindowAllocFree(t *testing.T) {
	g := NewShardGroup(1)
	la := Duration(100)
	a, b := NewEngine(), NewEngine()
	ida, idb := g.Add(a), g.Add(b)
	g.Link(ida, idb, la)
	g.Link(idb, ida, la)
	ca := &echoCB{g: g, self: ida, peer: idb, la: la}
	cb := &echoCB{g: g, self: idb, peer: ida, la: la, peerCB: ca}
	ca.peerCB = cb
	// Several messages in flight each way, so inboxes need real sorting.
	for k := 0; k < 4; k++ {
		a.ScheduleCall(Duration(1+7*k), ca, int32(k), nil, nil)
		b.ScheduleCall(Duration(3+5*k), cb, int32(k), nil, nil)
	}
	now := Time(0)
	step := func() {
		now += 1_000
		g.Run(now)
	}
	for i := 0; i < 10; i++ {
		step() // warm inboxes, slabs and group scratch
	}
	before := ca.got + cb.got
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("warm ShardGroup.Run step allocates %.1f, want 0", avg)
	}
	if ca.got+cb.got == before {
		t.Fatal("no messages crossed members during the measured steps")
	}
}

// TestShardGroupFired: the group's fired count is the sum over its member
// engines, read between Run calls.
func TestShardGroupFired(t *testing.T) {
	g := NewShardGroup(1)
	a, b := NewEngine(), NewEngine()
	for i := 1; i <= 3; i++ {
		a.Schedule(Duration(i)*Microsecond, func() {})
	}
	b.Schedule(2*Microsecond, func() {})
	g.Add(a)
	g.Add(b)
	if got := g.Fired(); got != 0 {
		t.Fatalf("Fired before Run = %d, want 0", got)
	}
	g.Run(Time(2 * Microsecond))
	if got, want := g.Fired(), a.Fired()+b.Fired(); got != 3 || got != want {
		t.Fatalf("Fired = %d, want 3 (= %d over the members)", got, want)
	}
	g.Run(Time(5 * Microsecond))
	if got := g.Fired(); got != 4 {
		t.Fatalf("Fired at the horizon = %d, want 4", got)
	}
}

// propMember is one member of a randomized fleet. Each event it fires is
// logged, and spawns up to two more: local events, direct or on the
// member's lane, and messages over the member's outbound links. What an
// event spawns, and when, is drawn from a hash of its tag and its member,
// not from a stream, so a member fires the same set of events however
// events that share an instant are ordered.
type propMember struct {
	g    *ShardGroup
	id   int
	eng  *Engine
	lane *Lane
	salt uint64
	out  []propLink
	log  []propRec
	sent int
}

type propLink struct {
	dst *propMember
	la  Duration
}

// propRec is one fired event: when, and its tag (generation in the top
// byte, lineage hash below).
type propRec struct {
	at  Time
	tag uint32
}

// propMaxGen bounds an event's lineage; with a mean of 0.9 children per
// event, fleets stay small long before it.
const propMaxGen = 40

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (m *propMember) OnEvent(op int32, _, _ any) {
	tag := uint32(op)
	m.log = append(m.log, propRec{m.eng.Now(), tag})
	gen := tag >> 24
	if gen >= propMaxGen {
		return
	}
	h := splitmix(uint64(tag) ^ m.salt)
	kids := [10]uint64{0, 0, 0, 1, 1, 1, 1, 1, 2, 2}[h%10]
	for j := uint64(0); j < kids; j++ {
		d := splitmix(h + j)
		child := int32((gen+1)<<24 | uint32(d>>40)&0xffffff)
		switch k := d % 5; {
		case k == 0:
			m.eng.ScheduleCall(Duration(d>>8%40), m, child, nil, nil)
		case k == 1:
			m.lane.Call(m, child, nil, nil)
		case len(m.out) > 0:
			l := m.out[d>>16%uint64(len(m.out))]
			m.g.Send(m.id, l.dst.id, l.la+Duration(d>>24%30), l.dst, child, nil, nil)
			m.sent++
		}
	}
}

// propFleet builds the randomized fleet drawn from seed on a group with
// the given workers: 2 to 6 members, each ordered pair linked with
// probability 2/5 (so cycles are common) at a lookahead of 1 to 60 ps, a
// third of the members clamped at a declared horizon of their own, and 4
// to 20 starting events per member.
func propFleet(seed uint64, workers int) (*ShardGroup, []*propMember, Time) {
	x := seed
	draw := func(n uint64) uint64 {
		x = splitmix(x)
		return x % n
	}
	g := NewShardGroup(workers)
	horizon := Time(2000 + draw(3000))
	ms := make([]*propMember, 2+draw(5))
	for i := range ms {
		eng := NewEngine()
		m := &propMember{g: g, eng: eng, lane: eng.NewLane(Duration(1 + draw(80))), salt: splitmix(seed<<8 | uint64(i))}
		if draw(3) == 0 {
			h := horizon/2 + Time(draw(uint64(horizon/2)))
			m.id = g.AddFunc(eng, func(to Time) { eng.Run(min(to, h)) })
			g.SetHorizon(m.id, h)
		} else {
			m.id = g.Add(eng)
		}
		for k := 4 + draw(17); k > 0; k-- {
			eng.CallAt(Time(draw(uint64(horizon/2))), m, int32(draw(1<<24)), nil, nil)
		}
		ms[i] = m
	}
	for _, src := range ms {
		for _, dst := range ms {
			if src != dst && draw(5) < 2 {
				la := Duration(1 + draw(60))
				g.Link(src.id, dst.id, la)
				src.out = append(src.out, propLink{dst: dst, la: la})
			}
		}
	}
	return g, ms, horizon
}

// TestShardGroupRandomizedFleets is the coordinator's property test over
// randomized fleets (propFleet). Run always returns, within a deadline.
// Every member's event log, fired count and clock are the same at 1, 2
// and 8 workers, for one Run to the horizon and for many Runs at a random
// non-decreasing cadence. One Run and many fire the same events at the
// same instants in every member, but not always in the same order within
// an instant: a delivered message takes its engine sequence number when it
// is delivered, at a window boundary, so where it falls among other events
// due at its instant (local ones, or messages delivered in another window)
// depends on the boundaries, and a Run stop adds one. The test counts the
// fleets where that happens rather than failing on them.
func TestShardGroupRandomizedFleets(t *testing.T) {
	type outcome struct {
		logs  [][]propRec
		fired []uint64
		now   []Time
	}
	run := func(seed uint64, workers int, cadence bool) (o outcome, sent int) {
		g, ms, horizon := propFleet(seed, workers)
		var stops []Time
		if cadence {
			x := seed ^ 0x5bd1e995
			for at := Time(0); at < horizon; {
				x = splitmix(x)
				at = min(horizon, at+Time(x%uint64(horizon/4)))
				stops = append(stops, at)
			}
		}
		stops = append(stops, horizon)
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			for _, at := range stops {
				g.Run(at)
			}
		}()
		select {
		case p := <-done:
			if p != nil {
				t.Fatalf("seed %d, %d workers, cadence %v: Run panicked: %v", seed, workers, cadence, p)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("seed %d, %d workers, cadence %v: Run did not return within 20 s", seed, workers, cadence)
		}
		for _, m := range ms {
			o.logs = append(o.logs, m.log)
			o.fired = append(o.fired, m.eng.Fired())
			o.now = append(o.now, m.eng.Now())
			sent += m.sent
		}
		return o, sent
	}
	// byInstant sorts a copy of each log by (time, tag): the order-free
	// view one Run and many must agree on.
	byInstant := func(o outcome) outcome {
		n := o
		n.logs = nil
		for _, l := range o.logs {
			l = slices.Clone(l)
			slices.SortFunc(l, func(x, y propRec) int {
				if c := cmp.Compare(x.at, y.at); c != 0 {
					return c
				}
				return cmp.Compare(x.tag, y.tag)
			})
			n.logs = append(n.logs, l)
		}
		return n
	}
	const fleets = 30
	var events, sent, reordered int
	for seed := uint64(1); seed <= fleets; seed++ {
		once, n := run(seed, 1, false)
		sent += n
		for _, f := range once.fired {
			events += int(f)
		}
		for _, workers := range []int{2, 8} {
			if got, _ := run(seed, workers, false); !reflect.DeepEqual(got, once) {
				t.Fatalf("seed %d: members' logs at %d workers differ from one worker", seed, workers)
			}
		}
		stepped, _ := run(seed, 1, true)
		if got, _ := run(seed, 8, true); !reflect.DeepEqual(got, stepped) {
			t.Fatalf("seed %d: members' logs over many Runs differ between 1 and 8 workers", seed)
		}
		if !reflect.DeepEqual(byInstant(stepped), byInstant(once)) {
			t.Fatalf("seed %d: members fire different events over many Runs than over one", seed)
		}
		if !reflect.DeepEqual(stepped, once) {
			reordered++
		}
	}
	if sent == 0 {
		t.Fatal("no message crossed members: the fleets test nothing")
	}
	t.Logf("%d fleets: %d events, %d messages; %d fleets order some same-instant events differently over many Runs",
		fleets, events, sent, reordered)
}
