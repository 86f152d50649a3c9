package batch

import (
	"strings"
	"testing"

	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

func lineGraph(n int) *Graph {
	// 0 -> 1 -> 2 -> ... -> n-1
	g := &Graph{N: n, Adj: make([][]int32, n)}
	for v := 0; v < n-1; v++ {
		g.Adj[v] = []int32{int32(v + 1)}
	}
	return g
}

func TestGenerateGraphShape(t *testing.T) {
	rng := stats.NewRNG(1)
	g := GenerateGraph(rng, 1000, 8)
	if g.N != 1000 {
		t.Fatalf("N = %d", g.N)
	}
	if e := g.Edges(); e != 8000 {
		t.Fatalf("edges = %d, want 8000", e)
	}
	// No self loops, valid targets.
	for v := 0; v < g.N; v++ {
		for _, w := range g.Adj[v] {
			if int(w) == v {
				t.Fatal("self loop")
			}
			if w < 0 || int(w) >= g.N {
				t.Fatalf("edge target out of range: %d", w)
			}
		}
	}
	// Preferential attachment should skew degrees: max in-degree well above
	// the average.
	deg, _ := DegreeCentrality(g)
	var max int32
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 3*16 { // avg total degree is 16
		t.Fatalf("degree distribution not skewed: max=%d", max)
	}
}

func TestBFSLineGraph(t *testing.T) {
	g := lineGraph(10)
	r := BFS(g, 0)
	for i := 0; i < 10; i++ {
		if r.Dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d", i, r.Dist[i])
		}
	}
	if r.Visited != 10 {
		t.Fatalf("visited = %d", r.Visited)
	}
	// From the middle, earlier vertices are unreachable.
	r = BFS(g, 5)
	if r.Dist[4] != -1 || r.Dist[9] != 4 {
		t.Fatalf("dist from 5: %v", r.Dist)
	}
	if r.Ops == 0 {
		t.Fatal("no ops counted")
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two separate lines: {0,1,2} and {3,4}.
	g := &Graph{N: 5, Adj: [][]int32{{1}, {2}, {}, {4}, {}}}
	r := ConnectedComponents(g)
	if r.Components != 2 {
		t.Fatalf("components = %d", r.Components)
	}
	if r.Label[0] != r.Label[1] || r.Label[1] != r.Label[2] {
		t.Fatal("first component labels differ")
	}
	if r.Label[3] != r.Label[4] {
		t.Fatal("second component labels differ")
	}
	if r.Label[0] == r.Label[3] {
		t.Fatal("components merged")
	}
}

func TestConnectedComponentsFullyConnected(t *testing.T) {
	rng := stats.NewRNG(2)
	g := GenerateGraph(rng, 500, 8)
	// Preferential attachment with our construction produces one giant
	// weak component (every vertex has out-degree 8).
	r := ConnectedComponents(g)
	if r.Components != 1 {
		t.Fatalf("components = %d, want 1", r.Components)
	}
}

func TestDegreeCentrality(t *testing.T) {
	g := &Graph{N: 3, Adj: [][]int32{{1, 2}, {2}, {}}}
	deg, ops := DegreeCentrality(g)
	if deg[0] != 2 || deg[1] != 2 || deg[2] != 2 {
		t.Fatalf("degrees = %v", deg)
	}
	if ops != 3 {
		t.Fatalf("ops = %d", ops)
	}
}

func TestPageRankProperties(t *testing.T) {
	rng := stats.NewRNG(3)
	g := GenerateGraph(rng, 300, 6)
	rank, ops := PageRank(g, 0.85, 20)
	if ops == 0 {
		t.Fatal("no ops")
	}
	sum := 0.0
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("rank sum = %v, want ~1", sum)
	}
	// A sink-heavy hub should outrank the median vertex.
	deg, _ := DegreeCentrality(g)
	var hub, low int
	for v := range deg {
		if deg[v] > deg[hub] {
			hub = v
		}
		if deg[v] < deg[low] {
			low = v
		}
	}
	if rank[hub] <= rank[low] {
		t.Fatalf("hub rank %v <= low-degree rank %v", rank[hub], rank[low])
	}
}

func TestLogisticLearns(t *testing.T) {
	rng := stats.NewRNG(4)
	d := GenerateDataset(rng, 600, 8)
	m := TrainLogistic(d, 40, 0.5)
	acc := m.Accuracy(d)
	if acc < 0.9 {
		t.Fatalf("LR accuracy = %v, want >= 0.9 on separable blobs", acc)
	}
	if m.Ops == 0 {
		t.Fatal("no ops counted")
	}
}

func TestForestLearns(t *testing.T) {
	rng := stats.NewRNG(5)
	d := GenerateDataset(rng, 400, 8)
	f := TrainForest(rng, d, 15)
	if len(f.Stumps) != 15 {
		t.Fatalf("stumps = %d", len(f.Stumps))
	}
	acc := f.Accuracy(d)
	if acc < 0.75 {
		t.Fatalf("forest accuracy = %v, want >= 0.75", acc)
	}
}

func TestWordCount(t *testing.T) {
	r := WordCount([]string{"the cat and the hat", "The CAT!"})
	if r.Counts["the"] != 3 {
		t.Fatalf("the = %d", r.Counts["the"])
	}
	if r.Counts["cat"] != 2 {
		t.Fatalf("cat = %d", r.Counts["cat"])
	}
	if r.Counts["hat"] != 1 || r.Counts["and"] != 1 {
		t.Fatalf("counts = %v", r.Counts)
	}
	if r.Ops == 0 {
		t.Fatal("no ops")
	}
	empty := WordCount(nil)
	if len(empty.Counts) != 0 {
		t.Fatal("empty corpus should count nothing")
	}
}

func TestGenerateCorpusZipf(t *testing.T) {
	rng := stats.NewRNG(6)
	corpus := GenerateCorpus(rng, 200, 20, 500)
	if len(corpus) != 200 {
		t.Fatalf("lines = %d", len(corpus))
	}
	r := WordCount(corpus)
	// Zipf vocabulary: the most common word dominates.
	max := 0
	for _, c := range r.Counts {
		if c > max {
			max = c
		}
	}
	total := 200 * 20
	if float64(max)/float64(total) < 0.05 {
		t.Fatalf("top word frequency %.3f too low for Zipf", float64(max)/float64(total))
	}
}

func TestMaxExactMatch(t *testing.T) {
	a := "AAAACGTACGTACGTTTTT"
	b := "GGGGACGTACGTACGGGG"
	// Longest common substring: "ACGTACGTACG" (11 bases).
	r := MaxExactMatch(a, b, 4)
	if r.Length != 11 {
		t.Fatalf("match length = %d, want 11", r.Length)
	}
	if a[r.PosA:r.PosA+r.Length] != b[r.PosB:r.PosB+r.Length] {
		t.Fatal("reported positions do not match")
	}
	if !strings.Contains(a, a[r.PosA:r.PosA+r.Length]) {
		t.Fatal("match not a substring")
	}
}

func TestMaxExactMatchEdgeCases(t *testing.T) {
	if r := MaxExactMatch("ACGT", "ACGT", 12); r.Length != 0 {
		t.Fatalf("short input should yield no seeded match, got %d", r.Length)
	}
	r := MaxExactMatch("ACGTACGTACGT", "ACGTACGTACGT", 4)
	if r.Length != 12 {
		t.Fatalf("identical strings match = %d", r.Length)
	}
	if r2 := MaxExactMatch("", "", 0); r2.Length != 0 {
		t.Fatal("empty input")
	}
}

func TestWorkloadsRoster(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("workloads = %d", len(ws))
	}
	rndf, err := WorkloadByName("RndFTrain")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name != "RndFTrain" && w.MemoryIntensity > rndf.MemoryIntensity {
			t.Errorf("RndFTrain should be the most memory-intensive; %s = %v", w.Name, w.MemoryIntensity)
		}
		if s := w.HarvestedSlowdown(); s < 1 || s > 1+HarvestCachePenalty {
			t.Errorf("%s slowdown = %v", w.Name, s)
		}
	}
	if _, err := WorkloadByName("Nope"); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestSampleJobMeans(t *testing.T) {
	rng := stats.NewRNG(7)
	w, _ := WorkloadByName("BFS")
	js := w.Sampler()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(js.Sample(rng))
	}
	mean := sum / n
	rel := (mean - float64(w.JobCPU)) / float64(w.JobCPU)
	if rel < -0.05 || rel > 0.05 {
		t.Fatalf("mean job = %v, want ~%v", mean, w.JobCPU)
	}
	// With no spread, every job takes exactly JobCPU.
	fixed := (&Workload{Name: "fixed", JobCPU: 700 * sim.Microsecond}).Sampler()
	if d := fixed.Sample(rng); d != 700*sim.Microsecond {
		t.Fatalf("fixed job = %v, want 700us", d)
	}
}

func TestRunKernelAllWorkloads(t *testing.T) {
	rng := stats.NewRNG(8)
	for _, w := range Workloads() {
		ops, err := w.RunKernel(rng, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if ops == 0 {
			t.Fatalf("%s: zero ops", w.Name)
		}
	}
	bad := &Workload{Name: "Nope"}
	if _, err := bad.RunKernel(rng, 1); err == nil {
		t.Fatal("unknown kernel should error")
	}
}
