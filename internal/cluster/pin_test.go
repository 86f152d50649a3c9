package cluster

import (
	"testing"

	"hardharvest/internal/sim"
	"hardharvest/internal/workload"
)

// TestStalePinReleaseIsNoOp: a pinned request that leaves its pin early,
// completes and is recycled before its scheduled pin releases fire must
// not let those stale events act on the pooled object's next occupant,
// even when that occupant is pinned on the same VM. Every release payload
// returns to its pool when its event fires.
func TestStalePinReleaseIsNoOp(t *testing.T) {
	s := NewServer(obsConfig(), SystemOptions(HarvestBlock), bfs(t))
	v := s.vms[0]
	a := s.newRequest()
	a.id, a.vmIdx, a.arrival = 1, v.idx, s.now()
	s.setReqState(a, rsTransit)
	s.pinRequest(v, a)
	releases := s.eng.Pending()
	if releases == 0 {
		t.Fatal("pinning scheduled no release")
	}

	// a leaves its pin (a reclaim finished), runs and completes.
	if !s.unpin(v, a) {
		t.Fatal("a was not pinned")
	}
	s.setReqState(a, rsQueued)
	s.setReqState(a, rsRunning)
	s.freeRequest(a)

	// The pool hands the same object to b, which is pinned on the same VM
	// with no release of its own.
	b := s.newRequest()
	if b != a {
		t.Fatal("the pool did not hand back the freed object")
	}
	b.id, b.vmIdx, b.arrival = 2, v.idx, s.now()
	// A long CPU phase: were b released, it would still be running when
	// the check below looks.
	b.phases = append(b.phases, workload.Phase{CPU: sim.Second})
	s.setReqState(b, rsTransit)
	s.setReqState(b, rsPinned)
	v.pinned = append(v.pinned, b)

	// Both of a's releases fire by GuestMigrateDelay; anything a release
	// set in motion would come after it.
	s.eng.Run(s.now().Add(s.cfg.GuestMigrateDelay))
	if b.state != rsPinned || len(v.pinned) != 1 || v.pinned[0] != b {
		t.Fatalf("a stale release acted on the next occupant: state %v, %d pinned", b.state, len(v.pinned))
	}
	if s.pinWaitSum != 0 || b.reassign != 0 {
		t.Fatalf("a stale release accounted a pin wait: sum %v, reassign %v", s.pinWaitSum, b.reassign)
	}
	if s.eng.Pending() != 0 || len(s.pinPool.Free()) != releases {
		t.Fatalf("%d events pending, %d of %d release payloads pooled", s.eng.Pending(), len(s.pinPool.Free()), releases)
	}
	if s.inv.violations != 0 {
		t.Fatalf("invariant violation: %s", s.inv.firstMsg)
	}
}
