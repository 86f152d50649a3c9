package core

import (
	"fmt"
	"slices"
)

// Controller is the HardHarvest hardware controller: a centralized module
// reached over a dedicated low-latency control network (§4.1.8). It owns the
// physical RQ, the Queue Managers, and the core↔QM bindings (each core's
// MyManager register), and it makes all harvesting and reclamation decisions
// in hardware.
//
// Like the hardware, its state is a dense register file: one register set
// per core indexed by CoreID, and one Queue Manager slot per VM indexed by
// VMID, so every lookup is an index rather than a search. IDs must be
// non-negative and should be small: a negative ID is rejected with
// ErrUnknownCore or ErrUnknownVM, and the register file grows to the largest
// ID bound or registered.
type Controller struct {
	rq     *RQ
	maxQMs int
	qms    []*QueueManager // indexed by VMID; nil = no QM assigned
	// vmOrder lists the registered VMs in registration order, for
	// deterministic decisions.
	vmOrder []VMID

	cores []coreRegs // indexed by CoreID

	// nextHarvest rotates loan targets across Harvest VMs.
	nextHarvest int
	// hvmScratch backs harvestVMsWithWork: the candidate list is rebuilt on
	// every idle-primary dequeue, so it reuses one buffer instead of
	// allocating per call.
	hvmScratch []VMID
	// targets backs Rebalance's per-VM chunk shares: AddVM and BindCore
	// each rebalance, so set-up reuses one buffer instead of allocating per
	// call.
	targets []int

	// Stats.
	loans    uint64
	reclaims uint64
	wakes    uint64
}

// coreRegs is one core's slice of the controller's register file. The zero
// value is an unbound core.
type coreRegs struct {
	bound   bool
	vm      VMID // MyManager register: the QM the core is bound to
	state   CoreState
	running *Request // request the core executes, nil if none
	runVM   VMID     // VM of running
	lastVM  VMID     // VM whose state is resident in the core's caches
	hasLast bool
}

// run records that the core executes r of vm in state, reporting whether
// this moves the core across VMs.
func (cr *coreRegs) run(r *Request, vm VMID, state CoreState) (crossVM bool) {
	crossVM = cr.hasLast && cr.lastVM != vm
	cr.running, cr.runVM, cr.state = r, vm, state
	cr.lastVM, cr.hasLast = vm, true
	return crossVM
}

// idle records that the core runs nothing until its next Dequeue.
func (cr *coreRegs) idle() {
	cr.running, cr.runVM, cr.state = nil, 0, CoreIdle
}

// NewController builds a controller with the given RQ geometry and QM count
// (Table 1 defaults: 32 chunks x 64 entries, 16 QMs).
func NewController(numChunks, chunkEntries, maxQMs int) *Controller {
	if maxQMs <= 0 {
		panic("core: controller needs at least one QM")
	}
	return &Controller{rq: NewRQ(numChunks, chunkEntries), maxQMs: maxQMs}
}

// DefaultController builds a controller with Table 1 parameters.
func DefaultController() *Controller {
	return NewController(DefaultNumChunks, DefaultChunkEntries, 16)
}

// RQ exposes the physical request queue (read-only use intended).
func (c *Controller) RQ() *RQ { return c.rq }

// QM returns the Queue Manager serving vm, or nil.
func (c *Controller) QM(vm VMID) *QueueManager {
	if vm < 0 || int(vm) >= len(c.qms) {
		return nil
	}
	return c.qms[vm]
}

// reg returns core's register set, or nil for a core the register file has
// never grown to (negative, or above every core bound so far).
func (c *Controller) reg(core CoreID) *coreRegs {
	if core < 0 || int(core) >= len(c.cores) {
		return nil
	}
	return &c.cores[core]
}

// VMs returns the registered VMs in registration order.
func (c *Controller) VMs() []VMID {
	out := make([]VMID, len(c.vmOrder))
	copy(out, c.vmOrder)
	return out
}

// Loans reports the number of cross-VM core loans performed.
func (c *Controller) Loans() uint64 { return c.loans }

// Reclaims reports the number of preemptive core reclamations.
func (c *Controller) Reclaims() uint64 { return c.reclaims }

// AddVM registers a VM: it is assigned a Queue Manager and a VM State
// Register Set, and the RQ chunk shares are rebalanced (§4.1.2). A negative
// VMID is rejected with ErrUnknownVM.
func (c *Controller) AddVM(vm VMID, isPrimary bool, mask HarvestMask) error {
	if vm < 0 {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if c.QM(vm) != nil {
		return fmt.Errorf("%w: %d", ErrVMExists, vm)
	}
	if len(c.vmOrder) >= c.maxQMs {
		return ErrNoQMAvail
	}
	qm := newQueueManager(vm, isPrimary, c.rq.NumChunks())
	qm.SetMask(mask)
	for int(vm) >= len(c.qms) {
		c.qms = append(c.qms, nil)
	}
	c.qms[vm] = qm
	c.vmOrder = append(c.vmOrder, vm)
	c.Rebalance()
	return nil
}

// RemoveVM deregisters a VM; its chunks return to the pool and are
// redistributed to the remaining VMs, and its cores read as unbound.
func (c *Controller) RemoveVM(vm VMID) error {
	qm := c.QM(vm)
	if qm == nil {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	for qm.rqMap.Len() > 0 {
		qm.rqMap.DropTail()
	}
	c.rq.release(vm)
	c.qms[vm] = nil
	for i, v := range c.vmOrder {
		if v == vm {
			c.vmOrder = append(c.vmOrder[:i], c.vmOrder[i+1:]...)
			break
		}
	}
	for _, core := range qm.boundCores {
		c.cores[core] = coreRegs{}
	}
	c.Rebalance()
	return nil
}

// BindCore sets a core's MyManager register to vm's QM. A negative CoreID is
// rejected with ErrUnknownCore.
func (c *Controller) BindCore(core CoreID, vm VMID) error {
	qm := c.QM(vm)
	if qm == nil {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if core < 0 {
		return fmt.Errorf("%w: %d", ErrUnknownCore, core)
	}
	for int(core) >= len(c.cores) {
		c.cores = append(c.cores, coreRegs{})
	}
	cr := &c.cores[core]
	if cr.bound {
		return fmt.Errorf("%w: core %d", ErrCoreBound, core)
	}
	*cr = coreRegs{bound: true, vm: vm, state: CoreIdle}
	qm.bindCore(core)
	c.Rebalance()
	return nil
}

// Binding reports the VM a core is bound to.
func (c *Controller) Binding(core CoreID) (VMID, bool) {
	if cr := c.reg(core); cr != nil && cr.bound {
		return cr.vm, true
	}
	return 0, false
}

// State reports a core's controller-tracked state.
func (c *Controller) State(core CoreID) CoreState {
	if cr := c.reg(core); cr != nil {
		return cr.state
	}
	return CoreIdle
}

// Running reports the request a core currently executes (nil if none) and
// the VM it belongs to.
func (c *Controller) Running(core CoreID) (*Request, VMID) {
	if cr := c.reg(core); cr != nil {
		return cr.running, cr.runVM
	}
	return nil, 0
}

// Rebalance recomputes each VM's chunk share in proportion to its bound
// cores (§4.1.2). VMs donate chunks from the tails of their subqueues;
// entries in donated chunks spill to the in-memory overflow subqueue.
func (c *Controller) Rebalance() {
	if len(c.vmOrder) == 0 {
		return
	}
	totalCores := 0
	for _, vm := range c.vmOrder {
		n := len(c.qms[vm].boundCores)
		if n == 0 {
			n = 1 // a coreless VM still gets a minimal share
		}
		totalCores += n
	}
	// targets[i] is the chunk share of vmOrder[i].
	targets := slices.Grow(c.targets[:0], len(c.vmOrder))[:len(c.vmOrder)]
	c.targets = targets
	sum := 0
	for i, vm := range c.vmOrder {
		n := len(c.qms[vm].boundCores)
		if n == 0 {
			n = 1
		}
		t := c.rq.NumChunks() * n / totalCores
		if t < 1 {
			t = 1
		}
		targets[i] = t
		sum += t
	}
	// Trim if the minimums overshoot the physical chunks.
	for sum > c.rq.NumChunks() {
		trimmed := false
		for i := range targets {
			if targets[i] > 1 {
				targets[i]--
				sum--
				trimmed = true
				if sum == c.rq.NumChunks() {
					break
				}
			}
		}
		if !trimmed {
			break
		}
	}
	// Shrink donors first so chunks return to the free pool.
	for i, vm := range c.vmOrder {
		qm := c.qms[vm]
		for qm.rqMap.Len() > targets[i] {
			ch := qm.rqMap.DropTail()
			c.rq.transfer(ch, -1)
		}
	}
	// Grow receivers from the pool.
	for i, vm := range c.vmOrder {
		qm := c.qms[vm]
		for qm.rqMap.Len() < targets[i] {
			ch := c.rq.allocFree(vm)
			if ch < 0 {
				break
			}
			qm.rqMap.AppendTail(ch)
		}
	}
	for _, vm := range c.vmOrder {
		c.qms[vm].setCapacityFromChunks(c.rq.ChunkEntries())
	}
}

// WakeDecision tells the cluster layer what the controller decided when new
// work arrived for a VM. It is passed by value on the hottest enqueue edge —
// the zero WakeDecision (Valid false) means "no action", so no per-enqueue
// heap allocation is needed to represent the common no-wake case.
type WakeDecision struct {
	// Core is the core to notify. Meaningless unless Valid is true.
	Core CoreID
	// Preempt is true when Core currently executes Harvest VM work and must
	// be interrupted and context-switched back to its Primary VM (§4.1.5).
	Preempt bool
	// Valid reports whether the controller issued a wake at all.
	Valid bool
}

// Enqueue stores a request arriving from the NIC into vm's subqueue
// (§4.1.3) and returns the controller's wake decision, if any
// (wake.Valid reports whether there is one).
func (c *Controller) Enqueue(vm VMID, r *Request) (toOverflow bool, wake WakeDecision, err error) {
	qm := c.QM(vm)
	if qm == nil {
		return false, WakeDecision{}, fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if r.VM != vm {
		return false, WakeDecision{}, fmt.Errorf("%w: request for VM %d enqueued to VM %d", ErrIsolation, r.VM, vm)
	}
	toOverflow = qm.enqueue(r)
	return toOverflow, c.notifyWork(qm), nil
}

// Unblock marks a blocked request ready again (the NIC received its network
// response) and returns the wake decision (§4.1.5).
func (c *Controller) Unblock(vm VMID, r *Request) (WakeDecision, error) {
	qm := c.QM(vm)
	if qm == nil {
		return WakeDecision{}, fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if r.VM != vm {
		return WakeDecision{}, fmt.Errorf("%w: unblock across VMs", ErrIsolation)
	}
	if !qm.unblock(r) {
		return WakeDecision{}, fmt.Errorf("%w: unblock of %v request", ErrBadTransition, r.Status)
	}
	return c.notifyWork(qm), nil
}

// notifyWork implements the QM's new-work check: wake an idle bound core if
// one exists; otherwise, for a Primary VM, reclaim a loaned core (§4.1.5).
// Bound cores are kept in ascending ID order, so the lowest-ID candidate is
// chosen deterministically.
func (c *Controller) notifyWork(qm *QueueManager) WakeDecision {
	loaned := CoreID(-1)
	for _, core := range qm.boundCores {
		cr := &c.cores[core]
		switch cr.state {
		case CoreIdle:
			cr.state = coreNotified
			c.wakes++
			return WakeDecision{Core: core, Valid: true}
		case CoreLoaned:
			if loaned < 0 {
				loaned = core
			}
		}
	}
	if qm.isPrimary && loaned >= 0 {
		c.cores[loaned].state = coreNotified
		c.reclaims++
		return WakeDecision{Core: loaned, Preempt: true, Valid: true}
	}
	return WakeDecision{}
}

// coreNotified is an internal state: a wake/interrupt is in flight and the
// core must not be chosen for another wake until it reaches the controller
// again via Preempt/Dequeue.
const coreNotified CoreState = 100

// PreemptCore services the hardware interrupt on a loaned core: the Harvest
// VM request it was running is returned, Ready, to the front of the Harvest
// VM's subqueue for another core to take (Figure 10). Returns that request.
// A negative CoreID is rejected with ErrUnknownCore; a core running nothing
// (including one never bound) with ErrBadTransition.
func (c *Controller) PreemptCore(core CoreID) (*Request, error) {
	if core < 0 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCore, core)
	}
	cr := c.reg(core)
	if cr == nil || cr.running == nil {
		return nil, fmt.Errorf("%w: preempt of a core running nothing (core %d)", ErrBadTransition, core)
	}
	r := cr.running
	hqm := c.QM(cr.runVM)
	if hqm == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVM, cr.runVM)
	}
	if !hqm.preempt(r) {
		return nil, fmt.Errorf("%w: preempt of %v request", ErrBadTransition, r.Status)
	}
	// The core is between contexts until its next Dequeue; it no longer
	// counts as loaned (its Harvest request is back in the queue).
	cr.idle()
	return r, nil
}

// Dequeue hands the core the oldest ready request of its bound VM. If the
// core is bound to a Primary VM with no ready work and allowLoan is set, the
// controller forwards the core to a Harvest VM's QM (§4.1.4). It returns the
// request (nil if none anywhere), the VM it belongs to, and whether this
// dequeue re-assigned the core across VMs (the cluster layer charges flush
// and context-switch costs for cross-VM transitions). A core that is not
// bound (including a negative CoreID) is rejected with ErrUnknownCore.
func (c *Controller) Dequeue(core CoreID, allowLoan bool) (r *Request, vm VMID, crossVM bool, err error) {
	cr := c.reg(core)
	if cr == nil || !cr.bound {
		return nil, -1, false, fmt.Errorf("%w: %d", ErrUnknownCore, core)
	}
	ownVM := cr.vm
	ownQM := c.qms[ownVM]
	if r := ownQM.dequeue(); r != nil {
		return r, ownVM, cr.run(r, ownVM, CoreRunningOwn), nil
	}
	if !allowLoan || !ownQM.isPrimary {
		cr.idle()
		return nil, ownVM, false, nil
	}
	// Forward the core's request for work to a Harvest VM QM, round-robin
	// over harvest VMs that have ready work.
	harvest := c.harvestVMsWithWork()
	if len(harvest) == 0 {
		cr.idle()
		return nil, ownVM, false, nil
	}
	hvm := harvest[c.nextHarvest%len(harvest)]
	c.nextHarvest++
	hr := c.qms[hvm].dequeue()
	if hr == nil {
		cr.idle()
		return nil, ownVM, false, nil
	}
	cross := cr.run(hr, hvm, CoreLoaned)
	c.loans++
	return hr, hvm, cross, nil
}

// LastVM reports the VM whose microarchitectural state was most recently
// resident in the core's private caches/TLBs.
func (c *Controller) LastVM(core CoreID) (VMID, bool) {
	if cr := c.reg(core); cr != nil && cr.hasLast {
		return cr.lastVM, true
	}
	return 0, false
}

// harvestVMsWithWork returns the Harvest VMs holding ready work, in
// registration order. The result aliases a controller-owned scratch buffer
// valid until the next call.
func (c *Controller) harvestVMsWithWork() []VMID {
	out := c.hvmScratch[:0]
	for _, vm := range c.vmOrder {
		qm := c.qms[vm]
		if !qm.isPrimary && qm.hasReady() {
			out = append(out, vm)
		}
	}
	c.hvmScratch = out
	return out
}

// runningQM validates that core runs r and returns the QM holding r. A
// negative CoreID is rejected with ErrUnknownCore; a core not running r
// (including one never bound) with ErrBadTransition.
func (c *Controller) runningQM(op string, core CoreID, r *Request) (*coreRegs, *QueueManager, error) {
	if core < 0 {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownCore, core)
	}
	cr := c.reg(core)
	if cr == nil || cr.running == nil || cr.running != r {
		return nil, nil, fmt.Errorf("%w: %s of a request the core is not running", ErrBadTransition, op)
	}
	qm := c.QM(cr.runVM)
	if qm == nil {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownVM, cr.runVM)
	}
	return cr, qm, nil
}

// Complete informs the QM that the core finished its request; the slot is
// freed and the core becomes idle (until its next Dequeue).
func (c *Controller) Complete(core CoreID, r *Request) error {
	cr, qm, err := c.runningQM("complete", core, r)
	if err != nil {
		return err
	}
	if !qm.complete(r) {
		return fmt.Errorf("%w: request not found in subqueue", ErrBadTransition)
	}
	cr.idle()
	return nil
}

// Block informs the QM that the core's request stalled on I/O. The request's
// pointer stays in the subqueue, marked Blocked; the core becomes idle.
func (c *Controller) Block(core CoreID, r *Request) error {
	cr, qm, err := c.runningQM("block", core, r)
	if err != nil {
		return err
	}
	if !qm.block(r) {
		return fmt.Errorf("%w: block of %v request", ErrBadTransition, r.Status)
	}
	cr.idle()
	return nil
}

// LoanedCores reports how many of vm's bound cores are currently on loan.
func (c *Controller) LoanedCores(vm VMID) int {
	qm := c.QM(vm)
	if qm == nil {
		return 0
	}
	n := 0
	for _, core := range qm.boundCores {
		if c.cores[core].state == CoreLoaned {
			n++
		}
	}
	return n
}
