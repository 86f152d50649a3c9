package cluster

import (
	"math/rand"
	"testing"
)

// sliceQueues is the reference model of the software backend's queues:
// plain slices with the prepend-on-unblock/preempt semantics the ring must
// reproduce.
type sliceQueues [][]*request

func (m sliceQueues) pop(vm int) *request {
	if len(m[vm]) == 0 {
		return nil
	}
	r := m[vm][0]
	m[vm] = m[vm][1:]
	return r
}

// TestSWBackendMatchesSliceModel drives the ring-queued software backend
// and the slice model through the same random enqueue / dequeue /
// dequeueFrom / unblock / preempt / readyLen sequence: every pop must
// return the same request and every queue the same length. Long runs of
// head and tail pushes make the rings grow and wrap.
func TestSWBackendMatchesSliceModel(t *testing.T) {
	const vms, cores = 3, 4
	rng := rand.New(rand.NewSource(7))
	b := newSWBackend(vms, cores)
	for c := 0; c < cores-1; c++ {
		b.bindCore(c, c%vms) // the last core stays unbound
	}
	model := make(sliceQueues, vms)
	var id uint64
	maxLen := 0
	fresh := func() *request {
		id++
		return &request{id: id, vmIdx: rng.Intn(vms)}
	}
	for step := 0; step < 20000; step++ {
		// Phases of push-heavy and pop-heavy traffic grow the queues past
		// the first ring size and drain them again.
		pushBias := 6
		if step/500%2 == 1 {
			pushBias = 3
		}
		switch op := rng.Intn(10); {
		case op < pushBias:
			r := fresh()
			switch rng.Intn(3) {
			case 0:
				b.enqueue(r)
				model[r.vmIdx] = append(model[r.vmIdx], r)
			case 1:
				b.unblock(r)
				model[r.vmIdx] = append([]*request{r}, model[r.vmIdx]...)
			default:
				b.preempt(0, r)
				model[r.vmIdx] = append([]*request{r}, model[r.vmIdx]...)
			}
		case op < 8:
			c := rng.Intn(cores)
			got, _ := b.dequeue(c, false)
			var want *request
			if c < cores-1 {
				want = model.pop(c % vms)
			}
			if got != want {
				t.Fatalf("step %d: dequeue(core %d) = %v, want %v", step, c, got, want)
			}
		default:
			vm := rng.Intn(vms)
			if got, want := b.dequeueFrom(vm, 0), model.pop(vm); got != want {
				t.Fatalf("step %d: dequeueFrom(%d) = %v, want %v", step, vm, got, want)
			}
		}
		for vm := 0; vm < vms; vm++ {
			if got, want := b.readyLen(vm), len(model[vm]); got != want {
				t.Fatalf("step %d: readyLen(%d) = %d, want %d", step, vm, got, want)
			}
			maxLen = max(maxLen, len(model[vm]))
		}
	}
	if maxLen <= 32 {
		t.Fatalf("longest queue %d: the rings never grew past 32", maxLen)
	}
	// Drain: the remaining order must match too.
	for vm := 0; vm < vms; vm++ {
		for len(model[vm]) > 0 {
			if got, want := b.pop(vm), model.pop(vm); got != want {
				t.Fatalf("drain vm %d: %v, want %v", vm, got, want)
			}
		}
		if r := b.pop(vm); r != nil {
			t.Fatalf("drained vm %d still pops %v", vm, r)
		}
	}
}

// TestSWBackendHeadInsertAllocFree: once a queue has grown to its working
// size, returning requests to its head (unblock, preempt) and popping them
// again allocates nothing.
func TestSWBackendHeadInsertAllocFree(t *testing.T) {
	b := newSWBackend(1, 1)
	b.bindCore(0, 0)
	for i := 0; i < 40; i++ {
		b.enqueue(&request{id: uint64(i)})
	}
	cycle := func() {
		r, _ := b.dequeue(0, false)
		b.unblock(r)
		r = b.pop(0)
		b.preempt(0, r)
		r = b.dequeueFrom(0, 0)
		b.enqueue(r)
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("warm unblock/preempt cycle allocates %v per run, want 0", n)
	}
	if got := b.readyLen(0); got != 40 {
		t.Fatalf("readyLen = %d after balanced cycles, want 40", got)
	}
}
