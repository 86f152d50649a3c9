package graph

import (
	"fmt"

	"hardharvest/internal/front"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// genSeedSalt derives the root-tier arrival generator streams from each
// root server's seed — distinct from both the server's own remote stream
// salt (cluster) and the front-door router salt (route), so graph runs
// never replay another subsystem's randomness.
const genSeedSalt = 0x9e3779b97f4a7c55

// Backend describes one fleet server serving some tier of the DAG (see
// front.Backend; the dispatcher ignores Weight). Root-tier backends
// additionally seed the dispatcher's arrival generators from Cfg.
type Backend = front.Backend

// gOpRoot is the dispatcher's own event opcode (sim.Callback): an explicit
// ScheduleRoot admission (test hook). Generation and replies are the
// embedded core's events.
const gOpRoot int32 = 0

// request is one end-to-end DAG request from root admission to the
// completion of its whole invocation tree.
type request struct {
	born     sim.Time
	measured bool
	// failed flips when any invocation is shed; the request still drains
	// (join bookkeeping completes) but counts as failed and records no
	// latency.
	failed bool
	// hops collects per-invocation hop records for OnComplete observers;
	// nil unless an observer is installed.
	hops []Hop
}

// node is one live tier invocation of a request's expansion: it pays one
// RPC to a server of its tier, then walks its call stages, spawning child
// nodes and joining on their subtrees.
type node struct {
	req    *request
	parent *node
	tier   int

	// Stage cursor. stage indexes the tier's stage list; outstanding
	// counts child subtrees in flight in the current stage; seqLeft counts
	// the sequential invocations still to issue after the one in flight.
	stage       int
	outstanding int
	seqLeft     int
}

// rpcRec tracks one dispatched invocation RPC until its reply arrives. The
// core's ledger stores it by value.
type rpcRec struct {
	n      *node
	sentAt sim.Time
}

// tierRT aggregates one tier's runtime state and counters.
type tierRT struct {
	name     string
	vm       int
	servers  []int // backend indices, dispatch targets
	rr       uint64
	stages   []stage
	nodeSize int // expanded subtree size rooted at this tier

	dispatches uint64
	dones      uint64
	sheds      uint64
	hop        *stats.Sketch
}

// Hop is one resolved invocation RPC, reported to OnComplete observers.
type Hop struct {
	Tier    string
	Latency sim.Duration
	Shed    bool
}

// Dispatcher executes one Spec's request DAG over a fleet. It owns its
// own sim.Engine and joins the fleet's ShardGroup as a regular member;
// every RPC and reply crosses a declared Link/Send edge at NetDelay
// lookahead, so graph runs are byte-identical at any worker count. The
// embedded core carries the root generators, the run window, the
// dispatch/reply plumbing and the attempt ledger; the dispatcher adds the
// tiers, the join state machine and the hop and e2e sketches.
//
// All RPCs originate at the dispatcher: a tier invocation's children are
// dispatched when its reply arrives, each paying one NetDelay hop out and
// one back. For the shapes the spec can express this is equivalent to
// decentralized tier-to-tier RPC with the same per-hop delay — every
// invocation pays exactly 2·NetDelay plus its server latency either way —
// while keeping the join state machine on one deterministic member.
type Dispatcher struct {
	front.Core[*Dispatcher, rpcRec]
	spec  *Spec
	tiers []*tierRT

	// Pools of drained requests and completed nodes. Both objects live
	// only on the dispatcher's member, so recycling them never crosses
	// goroutines.
	reqs  sim.Pool[request]
	nodes sim.Pool[node]

	generated  uint64
	completed  uint64
	failed     uint64
	inflight   uint64
	dispatches uint64
	doneRecv   uint64
	shedRecv   uint64

	e2e *stats.Sketch

	// onComplete, when set, observes every drained request (test hook).
	onComplete func(e2e sim.Duration, failed bool, hops []Hop)
}

// New builds a dispatcher for spec over the fleet's servers. tiers[i]
// lists, per spec tier, the indices into backends of the servers that
// serve it (every tier needs at least one; a server may serve several
// tiers). Every backend must share the same run window, and each tier's
// VM must be a primary VM of its servers — the scenario layer validates
// this; New panics otherwise.
func New(spec *Spec, backends []Backend, tiers [][]int) *Dispatcher {
	if err := spec.Validate(); err != nil {
		panic("graph: " + err.Error())
	}
	if len(tiers) != len(spec.Tiers) {
		panic("graph: tier/server map length mismatch")
	}
	d := &Dispatcher{spec: spec, e2e: stats.NewSketch()}
	d.Init("graph", d, spec.NetDelay, backends, front.Handlers[rpcRec]{
		Admit: func(*front.Gen) { d.admitRoot() }, Reply: d.onReply,
	})
	sizes := make([]int, len(spec.Tiers))
	spec.nodes(spec.Root, sizes)
	for ti := range spec.Tiers {
		t := &spec.Tiers[ti]
		if len(tiers[ti]) == 0 {
			panic(fmt.Sprintf("graph: tier %q has no servers", t.Name))
		}
		for _, bi := range tiers[ti] {
			if bi < 0 || bi >= len(backends) {
				panic(fmt.Sprintf("graph: tier %q server index %d out of range", t.Name, bi))
			}
			if t.VM >= backends[bi].Cfg.PrimaryVMs {
				panic(fmt.Sprintf("graph: tier %q vm %d not a primary VM of %s", t.Name, t.VM, d.Port(bi).Name))
			}
		}
		d.tiers = append(d.tiers, &tierRT{
			name:     t.Name,
			vm:       t.VM,
			servers:  append([]int(nil), tiers[ti]...),
			stages:   stagesOf(t),
			nodeSize: sizes[ti],
			hop:      stats.NewSketch(),
		})
	}

	// Root arrival generators: replicate only the root tier's VM workload
	// of each root server, mirroring how servers would have generated
	// local arrivals for that VM.
	rootVMs := []int{spec.Tiers[spec.Root].VM}
	for _, bi := range tiers[spec.Root] {
		d.AddSource(bi, backends[bi].Cfg, genSeedSalt, rootVMs)
	}
	return d
}

// OnComplete installs a per-request observer (test hook): fn sees every
// drained request's end-to-end latency, failure flag, and per-invocation
// hop records in reply order. Install before the group runs.
func (d *Dispatcher) OnComplete(fn func(e2e sim.Duration, failed bool, hops []Hop)) {
	d.onComplete = fn
}

// OnEvent dispatches the dispatcher's typed engine events (sim.Callback).
func (d *Dispatcher) OnEvent(op int32, a, b any) {
	if op != gOpRoot {
		panic(fmt.Sprintf("graph: unknown event op %d", op))
	}
	d.admitRoot()
}

// Spec returns the DAG the dispatcher executes.
func (d *Dispatcher) Spec() *Spec { return d.spec }

// ScheduleRoot admits one root request at absolute time at (engine
// event). Test hook for deterministic single-request runs; the scenario
// path admits through the generators instead.
func (d *Dispatcher) ScheduleRoot(at sim.Time) {
	d.Engine().CallAt(at, d, gOpRoot, nil, nil)
}

func (d *Dispatcher) admitRoot() {
	d.generated++
	d.inflight++
	req := d.reqs.Get()
	req.born, req.measured = d.Now(), d.Measuring()
	if d.onComplete != nil {
		req.hops = make([]Hop, 0, 8)
	}
	d.dispatchRPC(d.newNode(req, nil, d.spec.Root))
}

// newNode takes a node from the pool and sets it up as a fresh invocation
// of tier under parent.
func (d *Dispatcher) newNode(req *request, parent *node, tier int) *node {
	n := d.nodes.Get()
	*n = node{req: req, parent: parent, tier: tier}
	return n
}

// ---- RPC dispatch and the join state machine ----

// dispatchRPC sends node n's own invocation to the next server of its
// tier (per-tier round robin).
func (d *Dispatcher) dispatchRPC(n *node) {
	t := d.tiers[n.tier]
	p := d.Port(t.servers[int(t.rr)%len(t.servers)])
	t.rr++
	t.dispatches++
	d.dispatches++
	d.Dispatch(p, t.vm, rpcRec{n: n, sentAt: d.Now()})
}

// onReply resolves one invocation RPC: record the hop, then either walk
// the node's call stages (done) or short-circuit the subtree (shed — the
// request is marked failed, the node completes without issuing calls, and
// the join bookkeeping drains normally).
func (d *Dispatcher) onReply(_ uint64, rec rpcRec, shed bool) {
	n := rec.n
	t := d.tiers[n.tier]
	if n.req.hops != nil {
		n.req.hops = append(n.req.hops, Hop{Tier: t.name, Latency: d.Now().Sub(rec.sentAt), Shed: shed})
	}
	if shed {
		d.shedRecv++
		t.sheds++
		n.req.failed = true
		d.completeNode(n)
		return
	}
	d.doneRecv++
	t.dones++
	if n.req.measured {
		t.hop.Add(d.Now().Sub(rec.sentAt).Milliseconds())
	}
	n.stage = -1
	d.nextStage(n)
}

// nextStage advances n to its next call stage, spawning its children; a
// node past its last stage is complete.
func (d *Dispatcher) nextStage(n *node) {
	t := d.tiers[n.tier]
	n.stage++
	if n.stage >= len(t.stages) {
		d.completeNode(n)
		return
	}
	st := t.stages[n.stage]
	if st.par != nil {
		for _, c := range st.par {
			for k := 0; k < c.Fanout; k++ {
				n.outstanding++
				d.dispatchRPC(d.newNode(n.req, n, c.Tier))
			}
		}
		return
	}
	n.outstanding = 1
	n.seqLeft = st.seq.Fanout - 1
	d.dispatchRPC(d.newNode(n.req, n, st.seq.Tier))
}

// completeNode marks n's subtree complete and propagates the join upward;
// a completed root drains the request. n goes back to the pool first:
// its children have all completed, and its ledger record was released
// before its reply was handled, so nothing references it any more.
func (d *Dispatcher) completeNode(n *node) {
	p, req := n.parent, n.req
	*n = node{}
	d.nodes.Put(n)
	if p == nil {
		d.inflight--
		e2e := d.Now().Sub(req.born)
		if req.failed {
			d.failed++
		} else {
			d.completed++
			if req.measured {
				d.e2e.Add(e2e.Milliseconds())
			}
		}
		if d.onComplete != nil {
			d.onComplete(e2e, req.failed, req.hops)
		}
		// The observer may keep hops, so the next request gets its own.
		*req = request{}
		d.reqs.Put(req)
		return
	}
	if p.seqLeft > 0 {
		p.seqLeft--
		d.dispatchRPC(d.newNode(p.req, p, d.tiers[p.tier].stages[p.stage].seq.Tier))
		return
	}
	p.outstanding--
	if p.outstanding == 0 {
		d.nextStage(p)
	}
}
