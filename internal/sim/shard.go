package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Sharded execution: a ShardGroup runs many Engines in parallel while
// preserving the exact event order every engine would see serially.
//
// Each member owns one Engine plus the model code that advances it; members
// interact only through explicit links with a declared lookahead — the
// minimum simulated delay any cross-member message can carry (for servers,
// the NIC's inter-server latency; for a dispatcher, its minimum dispatch
// delay). The group runs a conservative (CMB-style) window loop:
//
//  1. Deliver queued cross-member messages into their target engines, in
//     (when, source, per-source sequence) order — a total order, so the
//     target engine assigns the same internal sequence numbers no matter
//     which goroutine produced the messages or when.
//  2. Compute each member's event floor — the earliest instant it could
//     possibly execute anything — as a fixpoint over next-event times and
//     inbound lookaheads (a member with no pending events can still be
//     activated transitively by a chain of future messages).
//  3. Advance each member to its safe cap: the horizon, bounded by
//     floor(src) + lookahead - 1 over its inbound links. No message can
//     arrive below the cap, so members advance in parallel with no locks
//     on the hot path. A member whose cap grants nothing new, or whose own
//     floor lies past its cap (no event can fire at or below it), is not
//     called at all: its cap is recorded in O(1) — the idle fast-forward.
//     Every member gets it, because every member's advance only runs its
//     engine (see AddFunc), and Engine.Run does not move the clock when no
//     event fires.
//
// The window boundaries depend only on event floors and lookaheads — never
// on the worker count — so a group produces byte-identical simulation
// results with 1 worker or N. Workers only decide which OS thread executes
// an already-determined schedule.
type ShardGroup struct {
	workers int
	members []*shardMember
	// links[dst] lists the inbound links of member dst.
	links [][]shardLink

	// floors is the per-window scratch for the fixpoint in step 2; batch
	// holds the members that advance this window. Both are reused across
	// windows, so a steady-state window allocates nothing.
	floors []Time
	batch  []*shardMember
	// idled records that a member took the idle fast-forward this window.
	idled bool
}

type shardLink struct {
	src       int
	lookahead Duration
}

type shardMember struct {
	id      int
	eng     *Engine
	advance func(to Time)
	// horizon is where the member's advance stops (SetHorizon); shardInf
	// when it declared none.
	horizon Time

	// doneTo is the highest cap this member has fully advanced to.
	doneTo Time

	// sendSeq numbers this member's outgoing messages; only the member's
	// own advance goroutine touches it.
	sendSeq uint64

	// inbox collects messages addressed to this member. Producers append
	// under mu from their own advance goroutines; the coordinator drains it
	// between windows.
	mu    sync.Mutex
	inbox []shardMsg
}

// shardMsg is one cross-member event in flight.
type shardMsg struct {
	when Time
	src  int
	seq  uint64
	cb   Callback
	op   int32
	a, b any
}

const shardInf = Time(1<<61 - 1)

// NewShardGroup builds a group that executes eligible members on up to
// `workers` goroutines per window; workers <= 0 selects GOMAXPROCS.
func NewShardGroup(workers int) *ShardGroup {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ShardGroup{workers: workers}
}

// Workers reports the goroutine budget per window.
func (g *ShardGroup) Workers() int { return g.workers }

// Members reports the number of members added.
func (g *ShardGroup) Members() int { return len(g.members) }

// Fired reports how many events the members' engines have executed in
// total. Call it between Run calls, while no member is advancing.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, m := range g.members {
		n += m.eng.Fired()
	}
	return n
}

// Add registers an engine whose events are self-contained model code: the
// group advances it by calling eng.Run. Returns the member id used by Link
// and Send.
func (g *ShardGroup) Add(eng *Engine) int {
	return g.AddFunc(eng, func(to Time) { eng.Run(to) })
}

// AddFunc is Add with a custom advance: advance(to) must run the member's
// engine up to and including simulated time `to` and do nothing else — it
// may clamp `to` to an earlier horizon (declared with SetHorizon) or wrap
// the call in timing code, but all model work, control actions included,
// must be engine events. The group skips the call whenever no event is due
// at or below the window cap.
func (g *ShardGroup) AddFunc(eng *Engine, advance func(to Time)) int {
	if advance == nil {
		panic("sim: nil advance func")
	}
	m := &shardMember{id: len(g.members), eng: eng, doneTo: -1, advance: advance, horizon: shardInf}
	g.members = append(g.members, m)
	g.links = append(g.links, nil)
	return m.id
}

// SetHorizon declares h as where member id's advance stops: an advance
// clamps its own `to` at h (cluster.Server.StepTo does), so an event the
// member holds after h never fires and counts as no event in the floors,
// and its neighbours run on to the group's horizon. A member whose advance
// clamps must declare it (cluster.Server.JoinGroup does), or a pending
// event past that horizon would hold its neighbours below the group's
// horizon.
func (g *ShardGroup) SetHorizon(id int, h Time) {
	g.checkID(id)
	g.members[id].horizon = h
}

// Link declares that src may send messages to dst with at least `lookahead`
// of simulated delay. The lookahead must be strictly positive: it is what
// lets dst run ahead of src, and a zero-delay channel would serialize the
// pair (and admit causality cycles).
func (g *ShardGroup) Link(src, dst int, lookahead Duration) {
	if src == dst {
		panic("sim: self-link (schedule on the member's own engine instead)")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: link lookahead must be positive, got %v", lookahead))
	}
	g.checkID(src)
	g.checkID(dst)
	g.links[dst] = append(g.links[dst], shardLink{src: src, lookahead: lookahead})
}

func (g *ShardGroup) checkID(id int) {
	if id < 0 || id >= len(g.members) {
		panic(fmt.Sprintf("sim: unknown shard member %d", id))
	}
}

// Send schedules cb.OnEvent(op, a, b) on dst's engine after `delay` of
// simulated time, measured from src's current clock. It must be called from
// src's advance code, over a declared link, with delay >= the link's
// lookahead — violating the lookahead would let a message land in dst's
// already-simulated past, so it panics loudly instead of corrupting the
// run. Delivery order into dst is deterministic regardless of worker count.
func (g *ShardGroup) Send(src, dst int, delay Duration, cb Callback, op int32, a, b any) {
	g.checkID(src)
	g.checkID(dst)
	la := Duration(-1)
	for _, l := range g.links[dst] {
		if l.src == src {
			la = l.lookahead
			break
		}
	}
	if la < 0 {
		panic(fmt.Sprintf("sim: send %d->%d without a declared link", src, dst))
	}
	if delay < la {
		panic(fmt.Sprintf("sim: send %d->%d delay %v below link lookahead %v", src, dst, delay, la))
	}
	s := g.members[src]
	d := g.members[dst]
	msg := shardMsg{when: s.eng.Now().Add(delay), src: src, seq: s.sendSeq, cb: cb, op: op, a: a, b: b}
	s.sendSeq++
	d.mu.Lock()
	d.inbox = append(d.inbox, msg)
	d.mu.Unlock()
}

// deliver drains every inbox into its engine, in (when, src, seq) order —
// a total order, so each engine's internal event sequence is reproducible.
func (g *ShardGroup) deliver() {
	for _, m := range g.members {
		// No lock needed: deliver runs on the coordinator between windows,
		// when no advance goroutines are live.
		if len(m.inbox) == 0 {
			continue
		}
		box := m.inbox
		slices.SortFunc(box, compareMsg)
		for _, msg := range box {
			if msg.when <= m.doneTo {
				panic(fmt.Sprintf("sim: shard causality violation: message at %v for member %d already at %v",
					msg.when, m.id, m.doneTo))
			}
			m.eng.CallAt(msg.when, msg.cb, msg.op, msg.a, msg.b)
		}
		m.inbox = m.inbox[:0]
	}
}

// compareMsg orders messages by (when, src, seq). No two messages share a
// (src, seq) pair, so the order is total and an unstable sort is
// deterministic.
func compareMsg(x, y shardMsg) int {
	if c := cmp.Compare(x.when, y.when); c != 0 {
		return c
	}
	if c := cmp.Compare(x.src, y.src); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
}

// computeFloors fills g.floors with each member's earliest possible
// activation time: its own next pending event at or below its horizon,
// lowered transitively by inbound chains (floor(src) + lookahead). The
// relaxation converges because floors only decrease and every link adds a
// positive lookahead.
func (g *ShardGroup) computeFloors() {
	if cap(g.floors) < len(g.members) {
		g.floors = make([]Time, len(g.members))
	}
	floors := g.floors[:len(g.members)]
	for i, m := range g.members {
		if t, ok := m.eng.NextEventTime(); ok && t <= m.horizon {
			floors[i] = t
		} else {
			floors[i] = shardInf
		}
	}
	for changed := true; changed; {
		changed = false
		for dst, links := range g.links {
			for _, l := range links {
				if floors[l.src] >= shardInf {
					continue
				}
				if t := floors[l.src].Add(l.lookahead); t < floors[dst] {
					floors[dst] = t
					changed = true
				}
			}
		}
	}
	g.floors = floors
}

// Run advances every member to the horizon (inclusive), window by window.
// Horizons must be non-decreasing across calls, like Engine.Run's: a group
// steps through the same barrier cadence a serial caller would use, and the
// window boundaries never perturb any member's event sequence (DESIGN §8's
// step-equivalence, extended across members by the lookahead bound).
func (g *ShardGroup) Run(horizon Time) {
	for {
		g.deliver()
		done := true
		for _, m := range g.members {
			if m.doneTo < horizon {
				done = false
				break
			}
		}
		if done {
			return
		}
		g.computeFloors()
		// Caps: how far each member may run this window.
		batch := g.batch[:0]
		g.idled = false
		for i, m := range g.members {
			cap := horizon
			for _, l := range g.links[i] {
				if t := g.floors[l.src].Add(l.lookahead - 1); t < cap {
					cap = t
				}
			}
			if cap <= m.doneTo {
				continue // not allowed further yet
			}
			if g.floors[i] > cap {
				// Idle fast-forward: nothing can execute at or below the
				// cap, so the member "advances" in O(1) with no dispatch.
				m.doneTo = cap
				g.idled = true
				continue
			}
			m.doneTo = cap
			batch = append(batch, m)
		}
		g.batch = batch
		if len(batch) == 0 {
			if !g.idled {
				// No member advanced, so nothing was sent: the next
				// window would see the same floors and caps forever.
				g.stalled(horizon)
			}
			continue
		}
		g.runBatch(batch)
	}
}

// stalled panics on a window in which no member could advance although
// some are short of the horizon: a member's floor is pinned below its
// neighbours' target by an event its advance never runs, one past a
// horizon it did not declare (SetHorizon).
func (g *ShardGroup) stalled(horizon Time) {
	low := -1
	for i, m := range g.members {
		if m.doneTo < horizon && (low < 0 || g.floors[i] < g.floors[low]) {
			low = i
		}
	}
	m := g.members[low]
	panic(fmt.Sprintf("sim: shard group stalled short of %dps: member %d has run to %dps with its floor at %dps, an event its advance does not run",
		int64(horizon), m.id, int64(m.doneTo), int64(g.floors[low])))
}

// runBatch executes the window's eligible members on up to g.workers
// goroutines. The members were assigned their caps (doneTo) already; the
// round-robin split only chooses which goroutine runs which member.
func (g *ShardGroup) runBatch(batch []*shardMember) {
	w := g.workers
	if w > len(batch) {
		w = len(batch)
	}
	if w <= 1 {
		for _, m := range batch {
			m.advance(m.doneTo)
		}
		return
	}
	fanOut(batch, w)
}

// fanOut runs batch on w goroutines and waits for all of them. It is kept
// out of runBatch so the WaitGroup and goroutine closures escape only on
// the multi-worker path; a 1-worker window allocates nothing.
func fanOut(batch []*shardMember, w int) {
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(batch); i += w {
				m := batch[i]
				m.advance(m.doneTo)
			}
		}(k)
	}
	wg.Wait()
}
