package workload

import (
	"hardharvest/internal/pages"
	"hardharvest/internal/stats"
)

// Allocation-trace modeling for the §4.2.2 profiling sweep: a microservice
// process allocates its code, libraries, and read-only data during
// initialization, calls into the framework's serve loop, and from then on
// invocation-handling threads allocate (and free) per-request data. The
// model replays that lifecycle against a pages.Table and then generates an
// access stream whose pages the table classifies — reproducing the paper's
// measurement that accesses to pre-serve pages dominate reuse.

// ProfileResult is one service's profiling outcome.
type ProfileResult struct {
	Service string
	// SharedPages / PrivatePages are the mapped page counts at steady
	// state.
	SharedPages  int
	PrivatePages int
	// SharedAccessFrac is the fraction of accesses landing on Shared
	// pages.
	SharedAccessFrac float64
	// FootprintKB is the mapped memory at steady state.
	FootprintKB int64
}

// ProfileAllocations replays the allocation lifecycle of a service and
// measures the access-level shared fraction over the given number of
// invocations.
func ProfileAllocations(p *Profile, rng *stats.RNG, invocations int) ProfileResult {
	pt := pages.NewTable()

	// Initialization: code+libraries+read-only data sized by the shared
	// slice of the footprint, allocated in a handful of big regions as
	// loaders and allocators do.
	sharedBytes := int(float64(p.FootprintKB) * 1024 * p.SharedFrac)
	base := uint64(0x0040_0000)
	regions := 4
	type span struct {
		start uint64
		n     int
	}
	var sharedSpans []span
	for r := 0; r < regions; r++ {
		n := sharedBytes / regions
		pt.Allocate(base, n)
		sharedSpans = append(sharedSpans, span{start: base, n: n})
		base += uint64(n) + 16*pages.PageSize // gaps between mappings
	}
	pt.MarkServeStart()

	// A small shared growth after serve start (caches warmed by the
	// framework) stays shared because it extends an existing region.
	pt.Allocate(base-16*pages.PageSize, pages.PageSize)

	privBytes := int(float64(p.FootprintKB) * 1024 * (1 - p.SharedFrac))
	privBase := uint64(0x4000_0000)
	accesses, sharedAcc := 0, 0
	for inv := 0; inv < invocations; inv++ {
		// The invocation thread allocates its private working data...
		pt.Allocate(privBase, privBytes)
		// ...then the handler touches memory: shared pages with the
		// profile's access ratio, private pages otherwise.
		touches := 200
		for i := 0; i < touches; i++ {
			var addr uint64
			if rng.Float64() < p.SharedFrac {
				sp := sharedSpans[rng.Intn(len(sharedSpans))]
				addr = sp.start + uint64(rng.Intn(maxInt(sp.n, 1)))
			} else {
				addr = privBase + uint64(rng.Intn(maxInt(privBytes, 1)))
			}
			accesses++
			if pt.IsShared(addr) {
				sharedAcc++
			}
		}
		// The allocator frees and recycles the private data.
		pt.Free(privBase, privBytes)
		pt.Allocate(privBase, privBytes) // recycled for the next invocation
		pt.Free(privBase, privBytes)
		pt.Allocate(privBase, privBytes)
	}

	s, pr := pt.Counts()
	frac := 0.0
	if accesses > 0 {
		frac = float64(sharedAcc) / float64(accesses)
	}
	return ProfileResult{
		Service:          p.Name,
		SharedPages:      s,
		PrivatePages:     pr,
		SharedAccessFrac: frac,
		FootprintKB:      pt.Footprint() / 1024,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
