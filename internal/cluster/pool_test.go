package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"hardharvest/internal/sim"
	"hardharvest/internal/workload"
)

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

// TestJobRecordsHoldNoPhaseBuffer: a Harvest VM job has one phase, which
// its record keeps in the request's own slot. The stock Start queues takes
// no buffer from the server's phase-buffer pool, and the reservation that
// carves it costs at most 176 B per record (151 B, or 168 B in a race
// build), where records that each carried an eight-phase buffer cost
// 256 B (248 B objects).
func TestJobRecordsHoldNoPhaseBuffer(t *testing.T) {
	for _, kind := range []SystemKind{HarvestBlock, HardHarvestBlock} {
		s := NewServer(obsConfig(), SystemOptions(kind), bfs(t))
		s.Start()
		var jobs []*request
		if s.hw != nil {
			for _, r := range s.hw.reqs {
				if r != nil {
					jobs = append(jobs, r)
				}
			}
		} else {
			q := s.sw.queues[s.harvestIdx]
			for i := 0; i < q.Len(); i++ {
				jobs = append(jobs, q.buf[(q.head+i)&(len(q.buf)-1)])
			}
		}
		stock := jobStock * s.cfg.CoresPerServer
		if len(jobs) != stock {
			t.Fatalf("%v: %d requests queued after Start, want a stock of %d jobs", kind, len(jobs), stock)
		}
		for _, r := range jobs {
			if !r.isJob || r.buf != nil || len(r.phases) != 1 || &r.phases[0] != &r.own[0] {
				t.Fatalf("%v: job %d keeps %d phases outside its own slot (buffer %p)", kind, r.id, len(r.phases), r.buf)
			}
		}
		if !reflect.DeepEqual(s.phaseBufs, sim.Pool[phaseBuf]{}) {
			t.Fatalf("%v: the job stock took phase buffers from the pool", kind)
		}
	}

	const stock = jobStock * 36
	var p sim.Pool[request]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Reserve(stock)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&p)
	if per := (after.TotalAlloc - before.TotalAlloc) / stock; per > 176 {
		t.Fatalf("Reserve(%d) costs %d B per request record, want at most 176", stock, per)
	}
}

// TestPhaseBuffersRecycle: a multi-phase invocation takes a phase buffer
// and its completion returns it, so the next such invocation reuses it;
// the free lists stay sound across a whole run.
func TestPhaseBuffersRecycle(t *testing.T) {
	s := NewServer(obsConfig(), SystemOptions(HardHarvestBlock), bfs(t))
	a := s.newRequest()
	phases := []workload.Phase{{CPU: sim.Microsecond}, {CPU: sim.Microsecond}, {CPU: sim.Microsecond}}
	s.setPhases(a, phases)
	if a.buf == nil || &a.phases[0] != &a.buf[0] || !reflect.DeepEqual(a.phases, phases) {
		t.Fatalf("three-phase request not in a pooled buffer: buf %p, phases %v", a.buf, a.phases)
	}
	buf := a.buf
	s.setReqState(a, rsTransit)
	s.freeRequest(a)
	if a.buf != nil || a.phases != nil {
		t.Fatalf("freed request kept phase buffer %p", a.buf)
	}
	b := s.newRequest()
	s.setPhases(b, phases[:2])
	if b.buf != buf {
		t.Fatal("the next multi-phase request did not reuse the returned buffer")
	}
	s.setReqState(b, rsTransit)
	s.freeRequest(b)

	res := s.Run()
	if res.InvariantViolations != 0 {
		t.Fatalf("invariant violation: %s", res.FirstViolation)
	}
	if err := s.CheckPools(); err != nil {
		t.Fatal(err)
	}
	if len(s.phaseBufs.Free()) == 0 {
		t.Fatal("no phase buffer came back to the pool")
	}
}
