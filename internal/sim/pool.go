package sim

import "slices"

// Pool recycles model objects of one type, last in first out. Get hands
// back the most recently Put object; with none waiting it carves a zeroed
// object from a chunk-allocated array, so a pool that grows by one object
// at a time pays one allocation per chunk instead of one per object.
// Chunks stay small: a pool grows only to its high-water mark of in-flight
// objects, so a larger chunk would add unused objects to every owner's
// live heap.
//
// Put does not clear the object: the owner resets what it needs, and may
// keep fields (a generation, a slice's capacity) across reuse. Pointers
// into a chunk stay valid for the pool's lifetime. A Pool is not safe for
// concurrent use; each belongs to one engine's member.
type Pool[T any] struct {
	free  []*T // objects waiting for reuse, most recent last
	chunk []T  // unused tail of the current chunk
}

// poolChunk is the number of objects a pool carves per allocation.
const poolChunk = 16

// Get returns the most recently Put object, or a fresh zeroed one.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]T, poolChunk)
	}
	x := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return x
}

// Put makes x the next object Get returns. The free list starts with room
// for a chunk's worth of objects, so it does not reallocate at one, two,
// four and eight on the way there.
func (p *Pool[T]) Put(x *T) {
	if p.free == nil {
		p.free = make([]*T, 0, poolChunk)
	}
	p.free = append(p.free, x)
}

// Reserve makes the next n fresh objects come from one chunk, for an owner
// that knows its first burst of demand, so that burst carves no unused
// object, and gives the free list room for all n of them.
func (p *Pool[T]) Reserve(n int) {
	if len(p.chunk) < n {
		p.chunk = make([]T, n)
	}
	if cap(p.free) < n {
		p.free = slices.Grow(p.free, n-len(p.free))
	}
}

// Free returns the objects waiting for reuse, the next one Get returns
// last. The slice is the pool's own: read it, do not change it.
func (p *Pool[T]) Free() []*T { return p.free }
