package core

import (
	"errors"
	"testing"
)

func req(id ReqID, vm VMID) *Request {
	return &Request{ID: id, VM: vm, PayloadAddr: uint64(id) * 64}
}

// newTestController builds a controller with 1 Primary VM (4 cores 0-3) and
// 1 Harvest VM (cores 8-9), mirroring a slice of the paper's server.
func newTestController(t *testing.T) *Controller {
	t.Helper()
	c := DefaultController()
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVM(2, false, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	for core := CoreID(0); core < 4; core++ {
		if err := c.BindCore(core, 1); err != nil {
			t.Fatal(err)
		}
	}
	for core := CoreID(8); core < 10; core++ {
		if err := c.BindCore(core, 2); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestAddRemoveVM(t *testing.T) {
	c := DefaultController()
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVM(1, true, HarvestMask{}); !errors.Is(err, ErrVMExists) {
		t.Fatalf("duplicate AddVM err = %v", err)
	}
	if c.QM(1) == nil || !c.QM(1).IsPrimary() {
		t.Fatal("QM not registered as primary")
	}
	if err := c.RemoveVM(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveVM(1); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("double RemoveVM err = %v", err)
	}
	if c.RQ().FreeChunks() != c.RQ().NumChunks() {
		t.Fatal("chunks not released on VM removal")
	}
}

func TestQMLimit(t *testing.T) {
	c := NewController(32, 64, 2)
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVM(2, true, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVM(3, true, HarvestMask{}); !errors.Is(err, ErrNoQMAvail) {
		t.Fatalf("QM exhaustion err = %v", err)
	}
}

func TestBindCore(t *testing.T) {
	c := DefaultController()
	if err := c.BindCore(0, 9); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("bind to unknown VM err = %v", err)
	}
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	if err := c.BindCore(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.BindCore(0, 1); !errors.Is(err, ErrCoreBound) {
		t.Fatalf("double bind err = %v", err)
	}
	vm, ok := c.Binding(0)
	if !ok || vm != 1 {
		t.Fatalf("binding = %v %v", vm, ok)
	}
	if c.State(0) != CoreIdle {
		t.Fatalf("initial state = %v", c.State(0))
	}
}

func TestChunkSharesProportionalToCores(t *testing.T) {
	c := newTestController(t)
	// 4 primary cores vs 2 harvest cores: primary gets 2/3 of 32 chunks.
	p, h := c.QM(1).Chunks(), c.QM(2).Chunks()
	if p <= h {
		t.Fatalf("primary chunks %d should exceed harvest chunks %d", p, h)
	}
	if p+h > c.RQ().NumChunks() {
		t.Fatalf("over-allocated: %d + %d", p, h)
	}
	if p != 21 { // 32*4/6 = 21
		t.Fatalf("primary chunks = %d, want 21", p)
	}
	if c.QM(1).Capacity() != 21*64 {
		t.Fatalf("capacity = %d", c.QM(1).Capacity())
	}
}

func TestEnqueueDequeueFIFO(t *testing.T) {
	c := newTestController(t)
	r1, r2, r3 := req(1, 1), req(2, 1), req(3, 1)
	for _, r := range []*Request{r1, r2, r3} {
		if _, _, err := c.Enqueue(1, r); err != nil {
			t.Fatal(err)
		}
	}
	got, vm, cross, err := c.Dequeue(0, false)
	if err != nil || got != r1 || vm != 1 || cross {
		t.Fatalf("dequeue 1 = %v vm=%d cross=%v err=%v", got, vm, cross, err)
	}
	if got.Status != StatusRunning {
		t.Fatalf("dequeued status = %v", got.Status)
	}
	got2, _, _, _ := c.Dequeue(1, false)
	if got2 != r2 {
		t.Fatal("FIFO order violated")
	}
	if err := c.Complete(0, r1); err != nil {
		t.Fatal(err)
	}
	if r1.Status != StatusEmpty {
		t.Fatalf("completed status = %v", r1.Status)
	}
	if c.State(0) != CoreIdle {
		t.Fatalf("core state after complete = %v", c.State(0))
	}
}

func TestEnqueueIsolation(t *testing.T) {
	c := newTestController(t)
	r := req(1, 2)
	if _, _, err := c.Enqueue(1, r); !errors.Is(err, ErrIsolation) {
		t.Fatalf("cross-VM enqueue err = %v", err)
	}
	if _, _, err := c.Enqueue(99, req(1, 99)); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("unknown VM enqueue err = %v", err)
	}
}

func TestDequeueUnboundCore(t *testing.T) {
	c := newTestController(t)
	if _, _, _, err := c.Dequeue(77, false); !errors.Is(err, ErrUnknownCore) {
		t.Fatalf("unbound dequeue err = %v", err)
	}
}

func TestBlockUnblockLifecycle(t *testing.T) {
	c := newTestController(t)
	r := req(1, 1)
	if _, _, err := c.Enqueue(1, r); err != nil {
		t.Fatal(err)
	}
	got, _, _, _ := c.Dequeue(0, false)
	if got != r {
		t.Fatal("dequeue mismatch")
	}
	if err := c.Block(0, r); err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusBlocked {
		t.Fatalf("status = %v", r.Status)
	}
	// The blocked request keeps its slot.
	if c.QM(1).HardwareOccupancy() != 1 {
		t.Fatal("blocked request lost its slot")
	}
	// While blocked it must not be dequeued.
	if got, _, _, _ := c.Dequeue(1, false); got != nil {
		t.Fatal("dequeued a blocked request")
	}
	wake, err := c.Unblock(1, r)
	if err != nil {
		t.Fatal(err)
	}
	if !wake.Valid {
		t.Fatal("unblock should wake an idle core")
	}
	got, _, _, _ = c.Dequeue(wake.Core, false)
	if got != r || r.Status != StatusRunning {
		t.Fatal("unblocked request not dequeued")
	}
	// Double unblock is a bad transition.
	if _, err := c.Unblock(1, r); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double unblock err = %v", err)
	}
}

func TestWakeIdleCoreOnEnqueue(t *testing.T) {
	c := newTestController(t)
	_, wake, err := c.Enqueue(1, req(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !wake.Valid || wake.Preempt {
		t.Fatalf("wake = %+v, want non-preempt wake", wake)
	}
	if c.State(wake.Core) == CoreIdle {
		t.Fatal("woken core still idle (double-wake hazard)")
	}
	// A second enqueue wakes a different idle core.
	_, wake2, _ := c.Enqueue(1, req(2, 1))
	if !wake2.Valid || wake2.Core == wake.Core {
		t.Fatalf("second wake = %+v (first %+v)", wake2, wake)
	}
}

func TestLoanAndReclaim(t *testing.T) {
	c := newTestController(t)
	// Prime core 0 with its own VM's state so the loan below is a cross-VM
	// transition (a fresh core has no prior state, hence no flush).
	if _, _, err := c.Enqueue(1, req(90, 1)); err != nil {
		t.Fatal(err)
	}
	pr, _, _, _ := c.Dequeue(0, false)
	if pr == nil {
		t.Fatal("priming dequeue failed")
	}
	if err := c.Complete(0, pr); err != nil {
		t.Fatal(err)
	}
	// Harvest VM has plenty of work.
	for i := ReqID(100); i < 110; i++ {
		if _, _, err := c.Enqueue(2, req(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Primary core 0 finds no own work and is loaned to the Harvest VM.
	hr, vm, cross, err := c.Dequeue(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if hr == nil || vm != 2 || !cross {
		t.Fatalf("loan dequeue = %v vm=%d cross=%v", hr, vm, cross)
	}
	if c.State(0) != CoreLoaned {
		t.Fatalf("state = %v", c.State(0))
	}
	if c.LoanedCores(1) != 1 {
		t.Fatalf("loaned cores = %d", c.LoanedCores(1))
	}
	if c.Loans() != 1 {
		t.Fatalf("loans = %d", c.Loans())
	}

	// Occupy the other primary cores so reclamation must preempt.
	for i := ReqID(1); i <= 3; i++ {
		if _, _, err := c.Enqueue(1, req(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for core := CoreID(1); core <= 3; core++ {
		if r, _, _, _ := c.Dequeue(core, true); r == nil {
			t.Fatal("primary core found no work")
		}
	}
	// New primary request: all bound cores busy, core 0 loaned → preempt.
	_, wake, err := c.Enqueue(1, req(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !wake.Valid || !wake.Preempt || wake.Core != 0 {
		t.Fatalf("wake = %+v, want preempt of core 0", wake)
	}
	if c.Reclaims() != 1 {
		t.Fatalf("reclaims = %d", c.Reclaims())
	}
	pre, err := c.PreemptCore(0)
	if err != nil {
		t.Fatal(err)
	}
	if pre != hr {
		t.Fatal("preempted request mismatch")
	}
	if pre.Status != StatusReady {
		t.Fatalf("preempted status = %v", pre.Status)
	}
	// The preempted request is at the head of the Harvest queue: the next
	// harvest dequeue must return it.
	hgot, _, _, _ := c.Dequeue(8, false)
	if hgot != pre {
		t.Fatal("preempted request not requeued at head")
	}
	// Core 0 now dequeues the primary request; transition is cross-VM.
	pgot, vm, cross, err := c.Dequeue(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if pgot == nil || vm != 1 || !cross {
		t.Fatalf("reclaim dequeue = %v vm=%d cross=%v", pgot, vm, cross)
	}
	if pgot.ID != 9 {
		t.Fatalf("reclaimed core got request %d, want 9", pgot.ID)
	}
}

func TestNoPreemptWhenIdleCoreExists(t *testing.T) {
	c := newTestController(t)
	for i := ReqID(100); i < 105; i++ {
		c.Enqueue(2, req(i, 2))
	}
	c.Dequeue(0, true) // loan core 0
	// Cores 1-3 idle; enqueue should wake an idle core, not preempt.
	_, wake, _ := c.Enqueue(1, req(1, 1))
	if !wake.Valid || wake.Preempt {
		t.Fatalf("wake = %+v, want idle-core wake", wake)
	}
}

func TestHarvestCoreNeverStealsFromPrimary(t *testing.T) {
	c := newTestController(t)
	c.Enqueue(1, req(1, 1))
	// Harvest core 8 asks for work with loans allowed: it must not receive
	// the Primary VM's request.
	r, _, _, err := c.Dequeue(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatalf("harvest core stole request %d from primary", r.ID)
	}
}

func TestLoanDisallowedWhenTermOnly(t *testing.T) {
	c := newTestController(t)
	c.Enqueue(2, req(100, 2))
	r, _, _, _ := c.Dequeue(0, false)
	if r != nil {
		t.Fatal("loan happened with allowLoan=false")
	}
	if c.State(0) != CoreIdle {
		t.Fatalf("state = %v", c.State(0))
	}
}

func TestLoanRoundRobinAcrossHarvestVMs(t *testing.T) {
	c := DefaultController()
	c.AddVM(1, true, HarvestMask{})
	c.AddVM(2, false, HarvestMask{})
	c.AddVM(3, false, HarvestMask{})
	for core := CoreID(0); core < 4; core++ {
		c.BindCore(core, 1)
	}
	for i := ReqID(0); i < 4; i++ {
		c.Enqueue(2, req(100+i, 2))
		c.Enqueue(3, req(200+i, 3))
	}
	seen := map[VMID]int{}
	for core := CoreID(0); core < 4; core++ {
		_, vm, _, err := c.Dequeue(core, true)
		if err != nil {
			t.Fatal(err)
		}
		seen[vm]++
	}
	if seen[2] != 2 || seen[3] != 2 {
		t.Fatalf("loan distribution = %v, want 2/2", seen)
	}
}

func TestCrossVMDetectionOnReturn(t *testing.T) {
	c := newTestController(t)
	c.Enqueue(2, req(100, 2))
	r, _, _, _ := c.Dequeue(0, true) // loan
	if r == nil {
		t.Fatal("no loan")
	}
	c.Complete(0, r)
	// Core 0's caches hold Harvest VM state; its next own-VM dequeue is a
	// cross-VM transition even though no preemption happened.
	c.Enqueue(1, req(1, 1))
	_, vm, cross, _ := c.Dequeue(0, true)
	if vm != 1 || !cross {
		t.Fatalf("return transition vm=%d cross=%v, want 1/true", vm, cross)
	}
	// Staying on the same VM is not cross-VM.
	c.Enqueue(1, req(2, 1))
	r2, _, cross2, _ := c.Dequeue(1, true)
	_ = r2
	if cross2 {
		t.Fatal("first dequeue of core 1 flagged cross-VM")
	}
	last, ok := c.LastVM(1)
	if !ok || last != 1 {
		t.Fatalf("LastVM = %d %v", last, ok)
	}
}

func TestCompleteWrongRequest(t *testing.T) {
	c := newTestController(t)
	c.Enqueue(1, req(1, 1))
	r, _, _, _ := c.Dequeue(0, false)
	other := req(2, 1)
	if err := c.Complete(0, other); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("complete wrong request err = %v", err)
	}
	if err := c.Block(3, r); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("block from wrong core err = %v", err)
	}
}

func TestPreemptIdleCoreFails(t *testing.T) {
	c := newTestController(t)
	if _, err := c.PreemptCore(0); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("preempt idle core err = %v", err)
	}
}

func TestOverflowSpillAndRefill(t *testing.T) {
	c := NewController(2, 4, 4) // tiny RQ: 2 chunks x 4 entries
	c.AddVM(1, true, HarvestMask{})
	c.BindCore(0, 1)
	// Capacity is 8; enqueue 10.
	var rs []*Request
	overflowed := 0
	for i := ReqID(0); i < 10; i++ {
		r := req(i, 1)
		rs = append(rs, r)
		toOv, _, err := c.Enqueue(1, r)
		if err != nil {
			t.Fatal(err)
		}
		if toOv {
			overflowed++
		}
	}
	if overflowed != 2 {
		t.Fatalf("overflowed = %d, want 2", overflowed)
	}
	qm := c.QM(1)
	if qm.HardwareOccupancy() != 8 || qm.OverflowLen() != 2 {
		t.Fatalf("occupancy = %d/%d", qm.HardwareOccupancy(), qm.OverflowLen())
	}
	// Completing a request promotes one overflow entry into hardware.
	r0, _, _, _ := c.Dequeue(0, false)
	c.Complete(0, r0)
	if qm.OverflowLen() != 1 {
		t.Fatalf("overflow after refill = %d", qm.OverflowLen())
	}
	if qm.Stats().OverflowEnqueues != 2 {
		t.Fatalf("overflow stat = %d", qm.Stats().OverflowEnqueues)
	}
	// FIFO across the spill: drain everything, order must be 1..9 (0 done).
	want := ReqID(1)
	for {
		r, _, _, _ := c.Dequeue(0, false)
		if r == nil {
			break
		}
		if r.ID != want {
			t.Fatalf("drain order got %d want %d", r.ID, want)
		}
		want++
		c.Complete(0, r)
	}
	if want != 10 {
		t.Fatalf("drained up to %d", want)
	}
}

func TestRebalanceSpillsDonatedChunkEntries(t *testing.T) {
	c := NewController(4, 2, 4) // 4 chunks x 2 entries
	c.AddVM(1, true, HarvestMask{})
	c.BindCore(0, 1)
	// VM 1 owns all 4 chunks (capacity 8); fill completely.
	for i := ReqID(0); i < 8; i++ {
		c.Enqueue(1, req(i, 1))
	}
	if c.QM(1).HardwareOccupancy() != 8 {
		t.Fatalf("occupancy = %d", c.QM(1).HardwareOccupancy())
	}
	// A new VM with 1 core arrives: chunks are donated from VM 1's tail and
	// the displaced entries spill to overflow.
	c.AddVM(2, false, HarvestMask{})
	c.BindCore(8, 2)
	if c.QM(2).Chunks() < 1 {
		t.Fatal("new VM got no chunks")
	}
	qm1 := c.QM(1)
	if qm1.HardwareOccupancy() != qm1.Capacity() {
		t.Fatalf("occupancy %d != shrunk capacity %d", qm1.HardwareOccupancy(), qm1.Capacity())
	}
	if qm1.OverflowLen() == 0 {
		t.Fatal("donation did not spill entries to overflow")
	}
	// Order is still FIFO on drain.
	want := ReqID(0)
	for {
		r, _, _, _ := c.Dequeue(0, false)
		if r == nil {
			break
		}
		if r.ID != want {
			t.Fatalf("post-donation order got %d want %d", r.ID, want)
		}
		want++
		c.Complete(0, r)
	}
	if want != 8 {
		t.Fatalf("drained %d of 8", want)
	}
}

func TestVMsOrderStable(t *testing.T) {
	c := DefaultController()
	for _, vm := range []VMID{5, 3, 9} {
		c.AddVM(vm, true, HarvestMask{})
	}
	got := c.VMs()
	if len(got) != 3 || got[0] != 5 || got[1] != 3 || got[2] != 9 {
		t.Fatalf("VMs() = %v", got)
	}
	c.RemoveVM(3)
	got = c.VMs()
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("VMs() after remove = %v", got)
	}
}

func TestStatusAndStateStrings(t *testing.T) {
	if StatusEmpty.String() != "empty" || StatusReady.String() != "ready" ||
		StatusRunning.String() != "running" || StatusBlocked.String() != "blocked" {
		t.Fatal("status strings")
	}
	if CoreIdle.String() != "idle" || CoreRunningOwn.String() != "running-own" || CoreLoaned.String() != "loaned" {
		t.Fatal("state strings")
	}
	if ReqStatus(9).String() == "" || CoreState(9).String() == "" {
		t.Fatal("unknown enum strings")
	}
}

func TestWakeOrderFollowsCoreIDNotBindOrder(t *testing.T) {
	c := DefaultController()
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	for _, core := range []CoreID{9, 2, 5} {
		if err := c.BindCore(core, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []CoreID{2, 5, 9} {
		_, wake, err := c.Enqueue(1, req(ReqID(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if !wake.Valid || wake.Preempt || wake.Core != want {
			t.Fatalf("enqueue %d woke %+v, want core %d", i, wake, want)
		}
	}
	// Every bound core has a wake in flight: a fourth enqueue wakes nobody.
	if _, wake, _ := c.Enqueue(1, req(3, 1)); wake.Valid {
		t.Fatalf("fourth enqueue woke %+v", wake)
	}
}

func TestBadIDsReturnErrors(t *testing.T) {
	c := newTestController(t)
	r := req(1, 1)
	if _, _, err := c.Enqueue(1, r); err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := c.Dequeue(0, false); err != nil || got != r {
		t.Fatalf("dequeue = %v, %v", got, err)
	}
	for _, vm := range []VMID{-1, 3, 1 << 20} {
		if err := c.BindCore(5, vm); !errors.Is(err, ErrUnknownVM) {
			t.Errorf("BindCore(5, %d) err = %v, want ErrUnknownVM", vm, err)
		}
		if err := c.RemoveVM(vm); !errors.Is(err, ErrUnknownVM) {
			t.Errorf("RemoveVM(%d) err = %v, want ErrUnknownVM", vm, err)
		}
		if _, _, err := c.Enqueue(vm, req(9, vm)); !errors.Is(err, ErrUnknownVM) {
			t.Errorf("Enqueue(%d) err = %v, want ErrUnknownVM", vm, err)
		}
		if c.QM(vm) != nil || c.LoanedCores(vm) != 0 {
			t.Errorf("VM %d reads as registered", vm)
		}
	}
	if err := c.AddVM(-1, true, HarvestMask{}); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("AddVM(-1) err = %v, want ErrUnknownVM", err)
	}
	if err := c.BindCore(-1, 1); !errors.Is(err, ErrUnknownCore) {
		t.Errorf("BindCore(-1) err = %v, want ErrUnknownCore", err)
	}
	for _, core := range []CoreID{-1, 4, 1 << 20} {
		wantRun := ErrBadTransition // a never-bound core runs nothing
		if core < 0 {
			wantRun = ErrUnknownCore
		}
		if _, _, _, err := c.Dequeue(core, true); !errors.Is(err, ErrUnknownCore) {
			t.Errorf("Dequeue(%d) err = %v, want ErrUnknownCore", core, err)
		}
		if err := c.Complete(core, r); !errors.Is(err, wantRun) {
			t.Errorf("Complete(%d) err = %v, want %v", core, err, wantRun)
		}
		if err := c.Block(core, r); !errors.Is(err, wantRun) {
			t.Errorf("Block(%d) err = %v, want %v", core, err, wantRun)
		}
		if _, err := c.PreemptCore(core); !errors.Is(err, wantRun) {
			t.Errorf("PreemptCore(%d) err = %v, want %v", core, err, wantRun)
		}
		if vm, ok := c.Binding(core); ok || vm != 0 {
			t.Errorf("Binding(%d) = %d, %v", core, vm, ok)
		}
		if vm, ok := c.LastVM(core); ok || vm != 0 {
			t.Errorf("LastVM(%d) = %d, %v", core, vm, ok)
		}
		if got, vm := c.Running(core); got != nil || vm != 0 {
			t.Errorf("Running(%d) = %v, %d", core, got, vm)
		}
		if c.State(core) != CoreIdle {
			t.Errorf("State(%d) = %v", core, c.State(core))
		}
	}
	// None of the rejected calls disturbed the running request.
	if err := c.Complete(0, r); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVMUnbindsItsCores(t *testing.T) {
	c := newTestController(t)
	r := req(1, 2)
	if _, _, err := c.Enqueue(2, r); err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := c.Dequeue(8, false); err != nil || got != r {
		t.Fatalf("dequeue = %v, %v", got, err)
	}
	if err := c.RemoveVM(2); err != nil {
		t.Fatal(err)
	}
	for _, core := range []CoreID{8, 9} {
		if vm, ok := c.Binding(core); ok {
			t.Fatalf("core %d still bound to VM %d", core, vm)
		}
		if got, _ := c.Running(core); got != nil {
			t.Fatalf("core %d still runs %v", core, got)
		}
		if _, ok := c.LastVM(core); ok {
			t.Fatalf("core %d keeps a last VM", core)
		}
		if _, _, _, err := c.Dequeue(core, false); !errors.Is(err, ErrUnknownCore) {
			t.Fatalf("dequeue on removed VM's core %d err = %v", core, err)
		}
	}
	// The primary VM's cores are untouched.
	if vm, ok := c.Binding(0); !ok || vm != 1 {
		t.Fatalf("core 0 binding = %d, %v", vm, ok)
	}
	if err := c.AddVM(3, false, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	for _, core := range []CoreID{9, 8} {
		if err := c.BindCore(core, 3); err != nil {
			t.Fatalf("rebind core %d: %v", core, err)
		}
	}
	if c.QM(3).BoundCores() != 2 {
		t.Fatalf("VM 3 has %d cores", c.QM(3).BoundCores())
	}
	_, wake, err := c.Enqueue(3, req(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !wake.Valid || wake.Core != 8 {
		t.Fatalf("wake = %+v, want core 8", wake)
	}
}
