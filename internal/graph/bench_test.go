package graph_test

import (
	"testing"

	"hardharvest/internal/graph"
	"hardharvest/internal/sim"
)

// BenchmarkGraphDispatch pins the cost of a full DAG run: the socialnet
// graph over one server per tier group, single worker, no observer hook.
// Guards the dispatcher's allocation profile.
func BenchmarkGraphDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _ := runSpec(b, graph.SocialNet(20*sim.Microsecond), 11, 1, 0, nil, nil, false)
		if res.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}
