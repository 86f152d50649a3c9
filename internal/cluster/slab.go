package cluster

// slab hands out fresh objects carved from chunk-allocated arrays, so a
// pool that grows by one object at a time pays one allocation per chunk
// instead of one per object. Chunks stay small: a pool grows only to its
// high-water mark of in-flight objects, so a larger chunk would add unused
// objects to every server's live heap.
//
// Pointers into a chunk stay valid for the slab's lifetime, and a chunk is
// never freed while any object carved from it is reachable: with pooled
// objects that is the owning server's lifetime. Recycling stays with the
// caller's free list; the slab only replaces the allocation a pool makes
// when its free list is empty.
type slab[T any] struct {
	chunk []T // unused tail of the current chunk
}

const slabChunk = 16

// alloc returns a zeroed object that no other alloc call has returned.
func (s *slab[T]) alloc() *T {
	if len(s.chunk) == 0 {
		s.chunk = make([]T, slabChunk)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// reserve makes the next n allocs come from one chunk, for an owner that
// knows its first burst of demand, so that burst carves no unused object.
func (s *slab[T]) reserve(n int) {
	if len(s.chunk) < n {
		s.chunk = make([]T, n)
	}
}
