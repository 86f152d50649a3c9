package cluster

import (
	"fmt"

	"hardharvest/internal/core"
	"hardharvest/internal/sim"
	"hardharvest/internal/workload"
)

// request is the cluster-side view of one unit of work: a Primary VM
// microservice invocation (multiple CPU/IO phases) or a Harvest VM batch job
// (one CPU phase, possibly preempted and resumed).
type request struct {
	id      uint64
	vmIdx   int
	phases  []workload.Phase
	phase   int
	arrival sim.Time
	// measured marks requests arriving inside the measurement window.
	measured bool
	// isJob marks Harvest VM batch jobs.
	isJob bool
	// isHedge marks the speculative duplicate attempt of a hedged call.
	isHedge bool
	// resuming marks a request waiting, pinned, to continue after blocking
	// I/O (it re-enters the queue through unblock, not enqueue).
	resuming bool
	// state is the invariant checker's exclusive lifecycle state; every
	// change goes through Server.setReqState.
	state reqState
	// call links an attempt back to its resilient logical call; nil for
	// jobs and for requests issued with resilience policies disabled.
	call *call
	// remoteID links a remotely admitted request (Options.RemoteAdmission)
	// back to the router's attempt record; zero for locally generated work.
	remoteID uint64

	// Critical-path overhead attribution (Figure 6).
	reassign sim.Duration
	flush    sim.Duration
	exec     sim.Duration

	// hw is the controller-side request object (hardware backend only).
	hw *core.Request

	// gen counts how many times this object has been recycled through the
	// server's request pool. Event payloads that may outlive the request
	// (pin releases) capture the generation and no-op on a mismatch, so a
	// stale event can never act on the slot's next occupant.
	gen uint32

	// own backs phases for single-phase work, every Harvest VM job among
	// it, so a job record carries its one phase without a phase buffer.
	// phases may alias it: a request must never be copied by value.
	own [1]workload.Phase
	// buf is the pooled phase buffer phases lives in, for invocations of
	// two to inlinePhases phases; nil otherwise.
	buf *phaseBuf
}

// phaseBuf holds the phases of one multi-phase invocation. The server
// pools them apart from request objects, so only the invocations that need
// one hold one.
type phaseBuf [inlinePhases]workload.Phase

// inlinePhases sizes phaseBuf: the service profiles draw a Poisson number
// of blocking I/O calls with means 0.6-3.4, so one burst plus up to seven
// calls covers 97.7% of the heaviest service's invocations and at least
// 98.8% of every other's. A request that needs more keeps its heap slice
// for good, so a smaller buffer costs more memory, not less: on the
// fleet-wide benchmark workload's 130-server fleet, the live heap after
// the run was lowest at eight phases among 4, 6, 7, 8 and 10.
const inlinePhases = 8

func (r *request) currentPhase() workload.Phase { return r.phases[r.phase] }

// setPhases copies ps into r's phase storage: a heap slice the pooled
// object kept from an earlier occupant, else r's own slot for one phase,
// else a phase buffer from the server's pool for up to inlinePhases, else
// a fresh heap slice, which the object then keeps.
func (s *Server) setPhases(r *request, ps []workload.Phase) {
	buf := r.phases[:0]
	if buf == nil {
		switch {
		case len(ps) <= 1:
			buf = r.own[:0]
		case len(ps) <= inlinePhases:
			r.buf = s.phaseBufs.Get()
			buf = r.buf[:0]
		}
	}
	r.phases = append(buf, ps...)
}

// wakeInfo is a backend's notification decision after new work arrived. It
// is passed by value (with an ok flag) so the per-enqueue hot path does not
// allocate.
type wakeInfo struct {
	core    int
	preempt bool
}

// backend abstracts the queueing substrate: the HardHarvest controller for
// hardware systems (including NoHarvest-with-optimizations), or plain
// software queues for the SmartHarvest-style baselines.
type backend interface {
	// enqueue stores a ready request and returns the wake decision; ok is
	// false when the backend decided nothing.
	enqueue(r *request) (wake wakeInfo, ok bool)
	// dequeue hands the core its next request; allowLoan permits cross-VM
	// harvesting on the hardware path. Returns nil when no work exists.
	dequeue(coreID int, allowLoan bool) (r *request, crossVM bool)
	// dequeueFrom force-dequeues from a specific VM's queue (software
	// lending path).
	dequeueFrom(vmIdx, coreID int) *request
	// complete releases a finished request.
	complete(coreID int, r *request)
	// block parks a running request on I/O.
	block(coreID int, r *request)
	// unblock readies a blocked request and returns the wake decision.
	unblock(r *request) (wake wakeInfo, ok bool)
	// preempt aborts the harvest request a core is running and requeues it
	// at the head of its VM's queue (hardware reclamation path).
	preempt(coreID int, r *request)
	// readyLen reports the ready requests queued for a VM.
	readyLen(vmIdx int) int
}

// hwBackend adapts the core.Controller.
type hwBackend struct {
	ctrl *core.Controller
	// reqs maps a controller-side request's ID back to the cluster request
	// it carries (nil while the object waits in the pool). Each core.Request
	// object is given its slot ID once, when allocHW first sees it fresh;
	// IDs start at 1, so reqs[0] stays nil and a zero ID marks a fresh
	// object.
	reqs []*request
	// pool recycles controller-side request objects: one is live per
	// in-flight request, so completions feed enqueues without allocating.
	pool sim.Pool[core.Request]
}

func newHWBackend(cfg Config) *hwBackend {
	return &hwBackend{ctrl: core.DefaultController(), reqs: []*request{nil}}
}

func (b *hwBackend) addVM(vmIdx int, isPrimary bool, mask core.HarvestMask) {
	if err := b.ctrl.AddVM(core.VMID(vmIdx), isPrimary, mask); err != nil {
		panic(err)
	}
}

func (b *hwBackend) bindCore(coreID, vmIdx int) {
	if err := b.ctrl.BindCore(core.CoreID(coreID), core.VMID(vmIdx)); err != nil {
		panic(err)
	}
}

func (b *hwBackend) enqueue(r *request) (wakeInfo, bool) {
	hw := b.allocHW()
	*hw = core.Request{ID: hw.ID, VM: core.VMID(r.vmIdx), PayloadAddr: uint64(r.id) << 6}
	r.hw = hw
	b.reqs[hw.ID] = r
	_, wake, err := b.ctrl.Enqueue(core.VMID(r.vmIdx), r.hw)
	if err != nil {
		panic(err)
	}
	return toWake(wake)
}

func (b *hwBackend) allocHW() *core.Request {
	hw := b.pool.Get()
	if hw.ID == 0 {
		hw.ID = core.ReqID(len(b.reqs))
		b.reqs = append(b.reqs, nil)
	}
	return hw
}

func toWake(w core.WakeDecision) (wakeInfo, bool) {
	if !w.Valid {
		return wakeInfo{}, false
	}
	return wakeInfo{core: int(w.Core), preempt: w.Preempt}, true
}

func (b *hwBackend) dequeue(coreID int, allowLoan bool) (*request, bool) {
	hr, _, cross, err := b.ctrl.Dequeue(core.CoreID(coreID), allowLoan)
	if err != nil {
		panic(err)
	}
	if hr == nil {
		return nil, false
	}
	return b.reqs[hr.ID], cross
}

func (b *hwBackend) dequeueFrom(vmIdx, coreID int) *request {
	panic("cluster: dequeueFrom is a software-lending operation")
}

func (b *hwBackend) complete(coreID int, r *request) {
	if err := b.ctrl.Complete(core.CoreID(coreID), r.hw); err != nil {
		panic(err)
	}
	b.reqs[r.hw.ID] = nil
	b.pool.Put(r.hw)
	r.hw = nil
}

func (b *hwBackend) block(coreID int, r *request) {
	if err := b.ctrl.Block(core.CoreID(coreID), r.hw); err != nil {
		panic(err)
	}
}

func (b *hwBackend) unblock(r *request) (wakeInfo, bool) {
	wake, err := b.ctrl.Unblock(core.VMID(r.vmIdx), r.hw)
	if err != nil {
		panic(err)
	}
	return toWake(wake)
}

func (b *hwBackend) preempt(coreID int, r *request) {
	pre, err := b.ctrl.PreemptCore(core.CoreID(coreID))
	if err != nil {
		panic(err)
	}
	if pre != r.hw {
		panic(fmt.Sprintf("cluster: preempted %v, expected %v", pre.ID, r.hw.ID))
	}
}

func (b *hwBackend) readyLen(vmIdx int) int {
	qm := b.ctrl.QM(core.VMID(vmIdx))
	if qm == nil {
		return 0
	}
	return qm.ReadyLen()
}

// swBackend is the software path: per-VM FIFO queues in memory. Blocked
// requests live off-queue; unblocked and preempted requests rejoin at the
// head (they are older than anything queued behind them).
type swBackend struct {
	queues  []reqDeque
	binding []int // coreID -> vmIdx
}

func newSWBackend(numVMs, numCores int) *swBackend {
	b := &swBackend{queues: make([]reqDeque, numVMs), binding: make([]int, numCores)}
	for i := range b.binding {
		b.binding[i] = -1
	}
	return b
}

func (b *swBackend) bindCore(coreID, vmIdx int) { b.binding[coreID] = vmIdx }

func (b *swBackend) enqueue(r *request) (wakeInfo, bool) {
	b.queues[r.vmIdx].PushBack(r)
	// Software systems have no hardware notification: the server layer
	// implements polling discovery.
	return wakeInfo{}, false
}

func (b *swBackend) dequeue(coreID int, allowLoan bool) (*request, bool) {
	vm := b.binding[coreID]
	if vm < 0 {
		return nil, false
	}
	return b.pop(vm), false
}

func (b *swBackend) pop(vmIdx int) *request { return b.queues[vmIdx].PopFront() }

func (b *swBackend) dequeueFrom(vmIdx, coreID int) *request {
	return b.pop(vmIdx)
}

func (b *swBackend) complete(coreID int, r *request) {}

func (b *swBackend) block(coreID int, r *request) {}

func (b *swBackend) unblock(r *request) (wakeInfo, bool) {
	// Rejoin at the head: the request is older than queued work.
	b.queues[r.vmIdx].PushFront(r)
	return wakeInfo{}, false
}

func (b *swBackend) preempt(coreID int, r *request) {
	b.queues[r.vmIdx].PushFront(r)
}

func (b *swBackend) readyLen(vmIdx int) int { return b.queues[vmIdx].Len() }

// reqDeque is one software queue: a growable power-of-two ring of requests.
// Unblocked and preempted requests return to the head, and a slice prepend
// would copy the whole queue into a fresh array on every such call; the
// ring pushes at either end and pops the head without allocating once it
// has grown to the queue's working size. It is core.reqRing's shape, kept
// to the four operations the software path needs.
type reqDeque struct {
	buf  []*request // len(buf) is zero or a power of two
	head int        // index of the front element
	n    int        // queued requests
}

// Len reports the number of queued requests.
func (d *reqDeque) Len() int { return d.n }

func (d *reqDeque) grow() {
	c := 2 * len(d.buf)
	if c == 0 {
		c = 16
	}
	nb := make([]*request, c)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = nb, 0
}

// PushBack appends r at the tail.
func (d *reqDeque) PushBack(r *request) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = r
	d.n++
}

// PushFront inserts r at the head.
func (d *reqDeque) PushFront(r *request) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = r
	d.n++
}

// PopFront removes and returns the head, or nil when the queue is empty.
func (d *reqDeque) PopFront() *request {
	if d.n == 0 {
		return nil
	}
	r := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return r
}
