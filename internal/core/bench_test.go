package core

import "testing"

// BenchmarkControllerCycle drives one own-VM request through its whole
// lifecycle (enqueue, dequeue, block, unblock, dequeue, complete), then lends
// the primary core to a Harvest VM and reclaims it (the notifyWork preempt
// decision plus PreemptCore). It pins the controller layer: every step is a
// register lookup and a ring operation, so one op allocates nothing.
func BenchmarkControllerCycle(b *testing.B) {
	c := DefaultController()
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		b.Fatal(err)
	}
	if err := c.AddVM(2, false, HarvestMask{}); err != nil {
		b.Fatal(err)
	}
	if err := c.BindCore(0, 1); err != nil {
		b.Fatal(err)
	}
	// The harvest VM has no cores of its own, so its one job waits for a
	// loan; every reclaim returns it to the head of its subqueue.
	job := &Request{ID: 1, VM: 2}
	if _, _, err := c.Enqueue(2, job); err != nil {
		b.Fatal(err)
	}
	own := &Request{ID: 2, VM: 1}
	urgent := &Request{ID: 3, VM: 1}
	cycle := func() {
		if _, w, err := c.Enqueue(1, own); err != nil || !w.Valid || w.Core != 0 {
			b.Fatalf("enqueue: wake %+v, err %v", w, err)
		}
		if r, _, _, err := c.Dequeue(0, false); err != nil || r != own {
			b.Fatalf("dequeue: %v, err %v", r, err)
		}
		if err := c.Block(0, own); err != nil {
			b.Fatal(err)
		}
		if w, err := c.Unblock(1, own); err != nil || !w.Valid {
			b.Fatalf("unblock: wake %+v, err %v", w, err)
		}
		if r, _, _, err := c.Dequeue(0, false); err != nil || r != own {
			b.Fatalf("re-dequeue: %v, err %v", r, err)
		}
		if err := c.Complete(0, own); err != nil {
			b.Fatal(err)
		}
		if r, vm, _, err := c.Dequeue(0, true); err != nil || r != job || vm != 2 {
			b.Fatalf("loan: %v from VM %d, err %v", r, vm, err)
		}
		if _, w, err := c.Enqueue(1, urgent); err != nil || !w.Preempt || w.Core != 0 {
			b.Fatalf("reclaim: wake %+v, err %v", w, err)
		}
		if r, err := c.PreemptCore(0); err != nil || r != job {
			b.Fatalf("preempt: %v, err %v", r, err)
		}
		if r, _, _, err := c.Dequeue(0, false); err != nil || r != urgent {
			b.Fatalf("reclaimed dequeue: %v, err %v", r, err)
		}
		if err := c.Complete(0, urgent); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed cycle grows the subqueue rings and the controller's
	// tables to their working size.
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
