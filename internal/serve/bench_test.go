package serve

import (
	"runtime"
	"testing"
)

// BenchmarkServeStep pins the live runner's cost: one op builds a small
// routed fleet (three servers behind a least-outstanding router) and runs
// its unpaced barrier loop to the horizon, publishing state at every
// barrier. Guards the serve layer's allocation profile.
//
// The runner sizes its shard group from GOMAXPROCS, and a multi-worker
// window spawns goroutines, so the benchmark runs at GOMAXPROCS 1: the
// pinned allocs/op then do not depend on the host's CPU count.
func BenchmarkServeStep(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(routedCfg(), nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		r.Loop()
		if !r.Done() {
			b.Fatal("served run did not reach its horizon")
		}
	}
}

// BenchmarkServeSingle pins the one-server serve loop: quickCfg stretched
// to a 300 ms measurement window, run unpaced to the horizon with state
// published at every barrier. Like BenchmarkServeStep it runs at
// GOMAXPROCS 1, so the pin does not depend on the host's CPU count.
func BenchmarkServeSingle(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := quickCfg()
	cfg.SimMS = 300
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(cfg, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		r.Loop()
		if !r.Done() {
			b.Fatal("served run did not reach its horizon")
		}
	}
}
