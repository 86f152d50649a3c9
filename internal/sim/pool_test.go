package sim

import (
	"slices"
	"testing"
)

type poolObj struct {
	id   int
	tags []int
}

// TestPoolReuseIsLIFO: Get hands back the most recently Put object first,
// and Free lists the waiting objects with the next one last.
func TestPoolReuseIsLIFO(t *testing.T) {
	var p Pool[poolObj]
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	p.Put(c)
	if free := p.Free(); !slices.Equal(free, []*poolObj{a, b, c}) {
		t.Fatalf("free view %v, want a, b, c", free)
	}
	for i, want := range []*poolObj{c, b, a} {
		if got := p.Get(); got != want {
			t.Fatalf("get %d: got %p, want %p", i, got, want)
		}
	}
	if len(p.Free()) != 0 {
		t.Fatalf("%d objects still waiting", len(p.Free()))
	}
}

// TestPoolFreshObjectsAreZeroed: with nothing waiting, Get returns a
// zeroed object no earlier Get returned, while a recycled object comes
// back as its owner left it.
func TestPoolFreshObjectsAreZeroed(t *testing.T) {
	var p Pool[poolObj]
	seen := map[*poolObj]bool{}
	for i := 0; i < 3*poolChunk; i++ {
		x := p.Get()
		if x.id != 0 || x.tags != nil {
			t.Fatalf("fresh object %d not zeroed: %+v", i, *x)
		}
		if seen[x] {
			t.Fatalf("fresh object %d handed out twice", i)
		}
		seen[x] = true
		x.id, x.tags = i+1, []int{i}
	}
	x := p.Get()
	x.id = 7
	p.Put(x)
	if y := p.Get(); y != x || y.id != 7 {
		t.Fatalf("recycled object changed: %+v", *y)
	}
}

// TestPoolFreshObjectsAllocatePerChunk: a pool that grows by k objects
// costs one allocation per chunk rather than k: at most k/poolChunk chunks
// plus the partly used one.
func TestPoolFreshObjectsAllocatePerChunk(t *testing.T) {
	const k = 1024
	var p Pool[poolObj]
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < k; i++ {
			p.Get()
		}
	})
	if limit := k/poolChunk + 1; allocs > float64(limit) {
		t.Fatalf("%v allocations for %d fresh objects, want at most %d", allocs, k, limit)
	}
}

// TestPoolReserveCarvesOneChunk: after Reserve(n) the next n fresh objects
// cost one allocation in all.
func TestPoolReserveCarvesOneChunk(t *testing.T) {
	const n = 5 * poolChunk
	var p Pool[poolObj]
	objs := make([]*poolObj, 0, n)
	allocs := testing.AllocsPerRun(1, func() {
		objs = objs[:0]
		p.Reserve(n)
		for i := 0; i < n; i++ {
			objs = append(objs, p.Get())
		}
	})
	if allocs != 1 {
		t.Fatalf("%v allocations for a reserved burst of %d, want 1", allocs, n)
	}
	for i := 1; i < n; i++ {
		if objs[i] == objs[i-1] {
			t.Fatalf("object %d handed out twice", i)
		}
	}
}
