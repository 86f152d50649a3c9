package core

import "slices"

// QueueManager is the hardware unit in charge of one VM's request subqueue
// (Figure 9). It holds the RQ-Map, the VM State Register Set, the
// HarvestMask, and per-VM loan bookkeeping for Primary VMs.

// QueueManager manages one VM's logical subqueue.
type QueueManager struct {
	vm        VMID
	isPrimary bool

	rqMap    *RQMap
	vmState  VMStateRegisterSet
	mask     HarvestMask
	capacity int // hardware slots = chunks * entries/chunk

	// queue holds all requests resident in hardware slots, FIFO order.
	// Entries may be Ready, Running, or Blocked; all occupy slots.
	queue reqRing
	// overflow is the software In-memory Overflow Subqueue (§4.1.7), FIFO.
	overflow reqRing

	// boundCores lists the cores whose MyManager register names this QM,
	// in ascending ID order.
	boundCores []CoreID
	// ready counts the Ready requests in queue and overflow. It changes on
	// exactly the status transitions into and out of StatusReady: enqueue,
	// requeueFront and unblock add one, dequeue takes one away.
	ready int

	// Stats.
	enqueues         uint64
	overflowEnqueues uint64
	dequeues         uint64
	maxOccupancy     int
}

func newQueueManager(vm VMID, isPrimary bool, maxChunks int) *QueueManager {
	return &QueueManager{vm: vm, isPrimary: isPrimary, rqMap: NewRQMap(maxChunks)}
}

// bindCore adds core to the bound cores, keeping them in ascending order.
func (q *QueueManager) bindCore(core CoreID) {
	i, _ := slices.BinarySearch(q.boundCores, core)
	q.boundCores = slices.Insert(q.boundCores, i, core)
}

// VM reports the VM this QM serves.
func (q *QueueManager) VM() VMID { return q.vm }

// IsPrimary reports whether the VM is a Primary VM.
func (q *QueueManager) IsPrimary() bool { return q.isPrimary }

// Capacity reports the hardware slot capacity of the subqueue.
func (q *QueueManager) Capacity() int { return q.capacity }

// Chunks reports the number of chunks currently mapped.
func (q *QueueManager) Chunks() int { return q.rqMap.Len() }

// BoundCores reports how many cores are bound to this QM.
func (q *QueueManager) BoundCores() int { return len(q.boundCores) }

// HardwareOccupancy reports requests resident in hardware slots.
func (q *QueueManager) HardwareOccupancy() int { return q.queue.Len() }

// OverflowLen reports requests in the software overflow subqueue.
func (q *QueueManager) OverflowLen() int { return q.overflow.Len() }

// Mask returns the VM's HarvestMask register.
func (q *QueueManager) Mask() HarvestMask { return q.mask }

// SetMask programs the HarvestMask register.
func (q *QueueManager) SetMask(m HarvestMask) { q.mask = m }

// VMState returns a pointer to the VM State Register Set.
func (q *QueueManager) VMState() *VMStateRegisterSet { return &q.vmState }

// setCapacityFromChunks recomputes hardware capacity and spills any excess
// tail entries to the overflow subqueue; called after chunk donation.
func (q *QueueManager) setCapacityFromChunks(chunkEntries int) (spilled int) {
	q.capacity = q.rqMap.Len() * chunkEntries
	for q.queue.Len() > q.capacity {
		// Donations come from the tail of the subqueue (§4.1.2), so the
		// youngest entries spill.
		last := q.queue.PopBack()
		last.InOverflow = true
		// Keep overflow in FIFO order: the spilled entry is younger than
		// anything already waiting there only if overflow was filled later.
		// Spills go to the front of overflow because overflow entries were
		// enqueued after the hardware filled.
		q.overflow.PushFront(last)
		spilled++
	}
	return spilled
}

// enqueue stores a request pointer in the subqueue: in a hardware slot if
// one is free, otherwise in the overflow subqueue (§4.1.3). Reports whether
// the request landed in overflow.
func (q *QueueManager) enqueue(r *Request) (toOverflow bool) {
	q.enqueues++
	r.Status = StatusReady
	q.ready++
	if q.queue.Len() < q.capacity {
		r.InOverflow = false
		q.queue.PushBack(r)
		if q.queue.Len() > q.maxOccupancy {
			q.maxOccupancy = q.queue.Len()
		}
		return false
	}
	r.InOverflow = true
	q.overflow.PushBack(r)
	q.overflowEnqueues++
	return true
}

// requeueFront puts a preempted request back at the head of the subqueue so
// it is the next dequeued (§4.1.5: the preempted Harvest vCPU is returned to
// the queue and taken by another core).
func (q *QueueManager) requeueFront(r *Request) {
	r.Status = StatusReady
	q.ready++
	r.InOverflow = false
	q.queue.PushFront(r)
	// requeueFront is used for preempted work whose slot was just vacated,
	// so it cannot exceed capacity unless chunks shrank concurrently; spill
	// from the tail in that case.
	if q.queue.Len() > q.capacity && q.capacity > 0 {
		last := q.queue.PopBack()
		last.InOverflow = true
		q.overflow.PushFront(last)
	}
}

// preempt moves a running request back to the head of the subqueue, Ready,
// so another core can take it (§4.1.5, Figure 10).
func (q *QueueManager) preempt(r *Request) bool {
	for i := 0; i < q.queue.Len(); i++ {
		if q.queue.At(i) != r {
			continue
		}
		if r.Status != StatusRunning {
			return false
		}
		q.queue.RemoveAt(i)
		q.requeueFront(r)
		return true
	}
	return false
}

// dequeue hands the oldest Ready request to a core, marking it Running. The
// slot remains occupied until completion or preemption. Returns nil if no
// Ready request exists.
func (q *QueueManager) dequeue() *Request {
	if q.ready == 0 {
		return nil
	}
	for i := 0; i < q.queue.Len(); i++ {
		if r := q.queue.At(i); r.Status == StatusReady {
			r.Status = StatusRunning
			q.ready--
			q.dequeues++
			return r
		}
	}
	return nil
}

// hasReady reports whether a Ready request is queued (hardware or overflow).
func (q *QueueManager) hasReady() bool { return q.ready > 0 }

// ReadyLen reports the Ready requests in hardware and overflow.
func (q *QueueManager) ReadyLen() int { return q.ready }

// complete removes a finished request's slot and refills from overflow.
func (q *QueueManager) complete(r *Request) bool {
	for i := 0; i < q.queue.Len(); i++ {
		if q.queue.At(i) == r {
			q.queue.RemoveAt(i)
			r.Status = StatusEmpty
			q.refillFromOverflow()
			return true
		}
	}
	return false
}

// block marks a running request as blocked on I/O; its pointer stays in the
// subqueue (§4.1.5).
func (q *QueueManager) block(r *Request) bool {
	for i := 0; i < q.queue.Len(); i++ {
		if q.queue.At(i) == r {
			if r.Status != StatusRunning {
				return false
			}
			r.Status = StatusBlocked
			return true
		}
	}
	return false
}

// unblock marks a blocked request Ready again when the NIC delivers its
// response. Works for requests in hardware or overflow.
func (q *QueueManager) unblock(r *Request) bool {
	if r.Status != StatusBlocked {
		return false
	}
	r.Status = StatusReady
	q.ready++
	return true
}

// refillFromOverflow promotes overflow entries into freed hardware slots.
func (q *QueueManager) refillFromOverflow() {
	for q.overflow.Len() > 0 && q.queue.Len() < q.capacity {
		r := q.overflow.PopFront()
		r.InOverflow = false
		q.queue.PushBack(r)
	}
}

// QMStats is a snapshot of a QM's counters.
type QMStats struct {
	Enqueues         uint64
	OverflowEnqueues uint64
	Dequeues         uint64
	MaxOccupancy     int
}

// Stats returns the QM's counters.
func (q *QueueManager) Stats() QMStats {
	return QMStats{
		Enqueues:         q.enqueues,
		OverflowEnqueues: q.overflowEnqueues,
		Dequeues:         q.dequeues,
		MaxOccupancy:     q.maxOccupancy,
	}
}
