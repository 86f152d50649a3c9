// Package front is the machinery every fleet front door shares. A front
// door is a member of the fleet's sim.ShardGroup with its own engine: it
// replicates its servers' arrival models on independent RNG streams,
// dispatches each attempt to a server over a Link/Send edge one network
// delay away, and resolves the server's done/shed reply against an attempt
// ledger. route.Router (a health-checked load balancer) and
// graph.Dispatcher (a request-DAG executor) each embed one Core and keep
// only the logic that is their own; Wire is the single path that assembles
// a front door and its servers into a ShardGroup.
//
// Every decision is a pure function of the seeds and the group's
// deterministic delivery order, so fronted runs are byte-identical at any
// worker count (DESIGN §10).
package front

import (
	"fmt"

	"hardharvest/internal/cluster"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
	"hardharvest/internal/trace"
	"hardharvest/internal/workload"
)

// Backend describes one fleet server a front door feeds. Cfg is the config
// the server was built from: the front replicates its workload shape
// (profiles, load scale, trace modulation) on independent streams and
// aligns its own timeline with the server's run window.
type Backend struct {
	Server *cluster.Server
	Cfg    cluster.Config
	Name   string
	// Weight biases the router's Weighted policy (use 1/exec-factor so
	// newer hardware generations draw proportionally more traffic); <= 0
	// means 1. The DAG dispatcher ignores it.
	Weight float64
}

// Port is the front's handle on one backend. As a sim.Callback it runs on
// the backend's member and admits dispatched attempts into the server.
type Port struct {
	Idx    int
	Name   string
	Server *cluster.Server
	member int
}

// OnEvent admits one dispatched attempt (sim.Callback, server engine): op
// is the attempt id, a points at the attempt's VM index.
func (p *Port) OnEvent(op int32, a, _ any) {
	p.Server.AdmitRemote(*a.(*int), uint64(op))
}

// Cross-member payloads. The dispatch and reply events that cross between
// the front's member and a server's member carry no heap object, so the
// per-attempt message path allocates nothing:
//
//   - A dispatch is the event (Port, op = attempt id, a = &vmIDs[vm]).
//   - A reply is the event (&doneRx or &shedRx, op = attempt id): which
//     receiver it targets tells done from shed.
//
// Every pointer an event carries is written once, in Init and Bind, before
// the group runs, and is only read afterwards; the ShardGroup's goroutine
// start and WaitGroup join order those writes before any read on another
// member. The mutable ledger is touched only by the front's own events. So
// no mutable state is shared between members and the multi-worker path
// needs no synchronisation beyond the group's inbox lock. Rare messages
// (route's probes and crash edges) still carry small objects.

// replyRx receives a server's reply for the attempt whose id rides in the
// event's op code; shed distinguishes the shed receiver from the done one.
type replyRx[F any, R any] struct {
	c    *Core[F, R]
	shed bool
}

// OnEvent resolves one reply (sim.Callback, front engine).
func (r *replyRx[F, R]) OnEvent(op int32, _, _ any) { r.c.onReply(uint64(op), r.shed) }

// ledgerSlot is one attempt-ledger entry, live from Dispatch to its reply.
type ledgerSlot[R any] struct {
	rec  R
	live bool
}

// maxSlots bounds the ledger so every attempt id (slot+1) fits an op code.
const maxSlots = 1<<31 - 1

// Gen is one arrival generator, replicating the workload of one VM of one
// source server.
type Gen struct {
	Src int // fleet index of the source server
	VM  int
	gen *workload.Generator
	// flash is the source server's correlated flash-batch state, shared by
	// all of its generators.
	flash *flash
}

type flash struct {
	rng  *stats.RNG
	prob float64
	mean float64
}

// Action is one scheduled reconfiguration of a front door of type F;
// actions apply at their time, in (At, Seq) order.
type Action[F any] struct {
	At  sim.Time
	Seq int
	Fn  func(F)
}

// Handlers are the embedding front door's reactions to core events.
type Handlers[R any] struct {
	// Admit takes one generated arrival.
	Admit func(g *Gen)
	// Reply resolves attempt id, whose ledger record rec has already been
	// removed from the ledger.
	Reply func(id uint64, rec R, shed bool)
	// Crash, when set, becomes every server's crash/recovery hook; it runs
	// on the server's member.
	Crash func(p *Port, down bool)
}

// opGen is the core's own event opcode (sim.Callback): a: *Gen — arrival
// fired. Replies arrive at doneRx and shedRx instead.
const opGen int32 = 0

// Core is the shared half of a front door of type F whose attempt ledger
// holds records of type R. It is its own sim.Callback for generator and
// reply events, so an embedding front's OnEvent handles only its own
// opcodes.
type Core[F any, R any] struct {
	pkg   string // panic-message prefix
	owner F
	h     Handlers[R]
	eng   *sim.Engine
	group *sim.ShardGroup
	self  int
	delay sim.Duration
	ports []Port
	gens  []*Gen

	measureStart sim.Time
	measureEnd   sim.Time
	stopArrivals sim.Time
	horizon      sim.Time

	// The attempt ledger: attempt id k lives in slots[k-1]; freed slots
	// are reused LIFO from free. A slot is freed only by its own reply,
	// and a server replies only to an attempt it admitted, so a stale
	// reply can never resolve a reused slot.
	slots []ledgerSlot[R]
	free  []int32

	// vmIDs[v] == v: the immutable dispatch payloads (see Port.OnEvent).
	vmIDs          []int
	doneRx, shedRx replyRx[F, R]
}

// Init sets the core up for owner over the given backends, one delay from
// the front each way. Every backend must share the same run window (the
// scenario layer validates this before construction; Init panics
// otherwise).
func (c *Core[F, R]) Init(pkg string, owner F, delay sim.Duration, specs []Backend, h Handlers[R]) {
	if len(specs) == 0 {
		panic(pkg + ": no backends")
	}
	c.pkg, c.owner, c.h, c.delay = pkg, owner, h, delay
	c.eng = sim.NewEngine()
	c.doneRx = replyRx[F, R]{c: c}
	c.shedRx = replyRx[F, R]{c: c, shed: true}
	c.measureStart, c.measureEnd, c.stopArrivals, c.horizon = specs[0].Cfg.RunWindow()
	c.ports = make([]Port, len(specs))
	for i, s := range specs {
		if _, me, _, _ := s.Cfg.RunWindow(); me != c.measureEnd {
			panic(pkg + ": backends disagree on run window")
		}
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("backend[%d]", i)
		}
		c.ports[i] = Port{Idx: i, Name: name, Server: s.Server}
		for len(c.vmIDs) < s.Cfg.PrimaryVMs {
			c.vmIDs = append(c.vmIDs, len(c.vmIDs))
		}
	}
}

// AddSource adds one arrival generator per listed VM of fleet server src,
// replicating the server's per-VM workload model on streams derived from
// cfg.Seed^salt, so the server's own streams stay untouched. The draw
// order — series, instance and flash roots, then per VM in list order one
// trace instance, its series split and its generator split — is part of
// the byte contract: replicating only some VMs draws only their streams.
func (c *Core[F, R]) AddSource(src int, cfg cluster.Config, salt uint64, vms []int) {
	profiles := cfg.Profiles
	if profiles == nil {
		profiles = workload.Profiles()
	}
	seriesParams := trace.DefaultSeriesParams()
	seriesParams.Steps = cfg.TraceSteps
	root := stats.NewRNG(cfg.Seed ^ salt)
	seriesRNG := root.Split(4)
	instRNG := root.Split(5)
	fl := &flash{rng: root.Split(6), prob: cfg.BurstBatchProb, mean: cfg.BurstBatchMean}
	for _, vm := range vms {
		p := *profiles[vm]
		p.BaseRPSPerCore *= cfg.LoadScale
		var series []float64
		if cfg.TraceSteps > 0 {
			inst := trace.GenerateInstances(instRNG, 1)[0]
			series = inst.Series(seriesRNG.Split(uint64(vm)), seriesParams)
		}
		c.gens = append(c.gens, &Gen{
			Src: src, VM: vm, flash: fl,
			gen: workload.NewGenerator(&p, cfg.CoresPerPrimary, series, cfg.TraceStep, root.Split(uint64(100+vm))),
		})
	}
}

// Port returns backend i's handle.
func (c *Core[F, R]) Port(i int) *Port { return &c.ports[i] }

// Bind wires the front into its ShardGroup after membership and links are
// declared: self is the front's member index, members[i] that of backend
// i. Bind installs each server's RemoteHooks (so call it before the
// servers Start) and schedules the generators' first arrivals.
func (c *Core[F, R]) Bind(g *sim.ShardGroup, self int, members []int) {
	if len(members) != len(c.ports) {
		panic(c.pkg + ": member count mismatch")
	}
	c.group, c.self = g, self
	for i := range c.ports {
		p := &c.ports[i]
		p.member = members[i]
		hooks := cluster.RemoteHooks{
			Done: func(id uint64, _ sim.Duration) { c.FromBackend(p, &c.doneRx, int32(id), nil) },
			Shed: func(id uint64) { c.FromBackend(p, &c.shedRx, int32(id), nil) },
		}
		if crash := c.h.Crash; crash != nil {
			hooks.Crash = func(down bool) { crash(p, down) }
		}
		p.Server.SetRemoteHooks(hooks)
	}
	for _, g := range c.gens {
		c.scheduleNextGen(g)
	}
}

// ToBackend sends a message from the front to p's member, one network
// delay away. Call it from the front's own events.
func (c *Core[F, R]) ToBackend(p *Port, cb sim.Callback, op int32, a any) {
	c.group.Send(c.self, p.member, c.delay, cb, op, a, nil)
}

// FromBackend sends a message from p's member back to the front, one
// network delay away. Call it from events running on p's member.
func (c *Core[F, R]) FromBackend(p *Port, cb sim.Callback, op int32, a any) {
	c.group.Send(p.member, c.self, c.delay, cb, op, a, nil)
}

// Engine exposes the front's engine for ShardGroup membership.
func (c *Core[F, R]) Engine() *sim.Engine { return c.eng }

// NetDelay is the per-edge network delay and link lookahead between the
// front and every server, each direction.
func (c *Core[F, R]) NetDelay() sim.Duration { return c.delay }

// Advance is the front's ShardGroup advance function: run the engine up to
// the window cap (actions are regular engine events, see SetActions).
func (c *Core[F, R]) Advance(to sim.Time) {
	if to > c.horizon {
		to = c.horizon
	}
	c.eng.Run(to)
}

// Now is the front's simulated clock.
func (c *Core[F, R]) Now() sim.Time { return c.eng.Now() }

// Horizon is the end of the run window.
func (c *Core[F, R]) Horizon() sim.Time { return c.horizon }

// Measuring reports whether the clock is inside the measurement window.
func (c *Core[F, R]) Measuring() bool {
	t := c.eng.Now()
	return t >= c.measureStart && t < c.measureEnd
}

// SetActions installs the compiled action schedule (must be sorted by
// (At, Seq)) as engine events. Call before the group runs: the group's
// conservative windows derive member floors from pending engine events, so
// an action applied outside the event queue would be invisible to the
// window computation and could let other members advance past it.
func (c *Core[F, R]) SetActions(acts []Action[F]) {
	for _, a := range acts {
		a := a
		c.eng.At(a.At, func() { a.Fn(c.owner) })
	}
}

// SetIntensity scales every generator fed by source server src (x > 0).
func (c *Core[F, R]) SetIntensity(src int, x float64) {
	for _, g := range c.gens {
		if g.Src == src {
			g.gen.SetIntensity(x)
		}
	}
}

// SetVMIntensity scales one (source server, VM) generator.
func (c *Core[F, R]) SetVMIntensity(src, vm int, x float64) {
	for _, g := range c.gens {
		if g.Src == src && g.VM == vm {
			g.gen.SetIntensity(x)
		}
	}
}

// SetIntensityAll scales every generator (the fleet-wide load knob).
func (c *Core[F, R]) SetIntensityAll(x float64) {
	for _, g := range c.gens {
		g.gen.SetIntensity(x)
	}
}

// Intensity reports one (source server, VM) generator's current intensity
// (0 when there is no such generator).
func (c *Core[F, R]) Intensity(src, vm int) float64 {
	for _, g := range c.gens {
		if g.Src == src && g.VM == vm {
			return g.gen.Intensity()
		}
	}
	return 0
}

// Dispatch records rec in a free ledger slot and sends the attempt, for
// primary VM vm, to backend p. The returned attempt id (slot+1, never 0)
// resolves through Handlers.Reply.
func (c *Core[F, R]) Dispatch(p *Port, vm int, rec R) uint64 {
	var slot int32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		if len(c.slots) == maxSlots {
			panic(c.pkg + ": attempt ledger full")
		}
		slot = int32(len(c.slots))
		c.slots = append(c.slots, ledgerSlot[R]{})
	}
	c.slots[slot] = ledgerSlot[R]{rec: rec, live: true}
	id := slot + 1
	c.ToBackend(p, p, id, &c.vmIDs[vm])
	return uint64(id)
}

// Attempt returns the ledger record of an outstanding attempt (the zero R
// once the attempt has resolved).
func (c *Core[F, R]) Attempt(id uint64) R { return c.slots[id-1].rec }

// Outstanding counts dispatched attempts whose reply has not arrived.
func (c *Core[F, R]) Outstanding() uint64 { return uint64(len(c.slots) - len(c.free)) }

// OnEvent dispatches the core's typed engine events (sim.Callback).
func (c *Core[F, R]) OnEvent(op int32, a, _ any) {
	switch op {
	case opGen:
		c.genFired(a.(*Gen))
	default:
		panic(fmt.Sprintf("%s: unknown core event op %d", c.pkg, op))
	}
}

func (c *Core[F, R]) scheduleNextGen(g *Gen) {
	a := g.gen.Next()
	if a.At >= c.stopArrivals {
		return
	}
	c.eng.CallAt(a.At, c, opGen, g, nil)
}

// genFired admits one generated request (plus any correlated flash batch,
// mirroring the servers' local arrival model) and schedules the next. The
// sampled invocation is discarded: phases are sampled server-side on
// admission.
func (c *Core[F, R]) genFired(g *Gen) {
	c.h.Admit(g)
	f := g.flash
	if f.prob > 0 && f.rng.Float64() < f.prob {
		extra := 0
		for f.rng.Float64() < 1-1/f.mean && extra < 16 {
			extra++
		}
		for i := 0; i < extra; i++ {
			c.h.Admit(g)
		}
	}
	c.scheduleNextGen(g)
}

// onReply frees the replied attempt's slot and hands its record to the
// front. A reply for an id outside the ledger or for a free slot (one
// never dispatched, or already resolved) is a broken invariant.
func (c *Core[F, R]) onReply(id uint64, shed bool) {
	if id == 0 || id > uint64(len(c.slots)) || !c.slots[id-1].live {
		panic(fmt.Sprintf("%s: reply for unknown attempt %d", c.pkg, id))
	}
	rec := c.slots[id-1].rec
	c.slots[id-1] = ledgerSlot[R]{}
	c.free = append(c.free, int32(id-1))
	c.h.Reply(id, rec, shed)
}

// Door is the ShardGroup face of a front door (route.Router,
// graph.Dispatcher).
type Door interface {
	Engine() *sim.Engine
	Advance(to sim.Time)
	Bind(g *sim.ShardGroup, self int, members []int)
	NetDelay() sim.Duration
}

// Wire assembles a front door and its servers (built with
// Options.RemoteAdmission) into g: the door joins as the next member, each
// server follows in index order (cluster.Server.JoinGroup) linked to the
// door both ways at its network delay, then the door binds its hooks and
// every server starts. It returns the horizon to run the group to.
func Wire(g *sim.ShardGroup, d Door, servers []*cluster.Server) sim.Time {
	self := g.AddFunc(d.Engine(), d.Advance)
	members := make([]int, len(servers))
	for i, srv := range servers {
		m := srv.JoinGroup(g)
		g.Link(self, m, d.NetDelay())
		g.Link(m, self, d.NetDelay())
		members[i] = m
	}
	d.Bind(g, self, members)
	horizon := sim.Time(0)
	for _, srv := range servers {
		srv.Start()
		horizon = max(horizon, srv.Horizon())
	}
	return horizon
}
