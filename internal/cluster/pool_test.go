package cluster

import "testing"

// TestFreshRequestsAllocatePerChunk: while the request pool grows, fresh
// objects come from sim.Pool's 16-object chunks, so creating k of them
// costs one allocation per chunk rather than k: at most k/16 chunks plus
// the partly used one.
func TestFreshRequestsAllocatePerChunk(t *testing.T) {
	s := NewServer(obsConfig(), SystemOptions(HarvestBlock), bfs(t))
	const k = 1024
	reqs := make([]*request, 0, 2*k) // warm-up plus measured run
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < k; i++ {
			reqs = append(reqs, s.newRequest())
		}
	})
	seen := map[*request]bool{}
	for _, r := range reqs {
		seen[r] = true
	}
	if len(seen) != 2*k {
		t.Fatalf("%d distinct objects from %d fresh requests", len(seen), 2*k)
	}
	for _, r := range reqs {
		if r.state != rsFree || r.gen != 0 || r.phases != nil {
			t.Fatalf("fresh request not zeroed: %+v", r)
		}
	}
	if limit := k/16 + 1; allocs > float64(limit) {
		t.Fatalf("%v allocations for %d fresh requests, want at most %d", allocs, k, limit)
	}
}
