package batch

import (
	"fmt"

	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// Workload describes one Harvest VM batch application for the cluster
// simulator: each application is an endless stream of jobs (batch VMs always
// have available work, §4.1.4); throughput is jobs completed per second.
type Workload struct {
	// Name matches Figure 17's x-axis.
	Name string
	// JobCPU is one job's CPU demand on a warm core with the full cache.
	JobCPU sim.Duration
	// JobSigma is the log-normal sigma of job demand.
	JobSigma float64
	// MemoryIntensity in [0, 1] scales how much the reduced cache capacity
	// of a harvested core (harvest region only) slows the job down. The
	// paper observes memory-intensive applications (e.g., RndFTrain) gain
	// less from harvesting.
	MemoryIntensity float64
}

// HarvestCachePenalty is the maximum slowdown a fully memory-bound job
// suffers when restricted to the harvest region of the caches (50% of ways).
const HarvestCachePenalty = 0.45

// HarvestedSlowdown reports the execution-time multiplier for this job when
// running on a harvested core (restricted to the harvest cache region).
func (w *Workload) HarvestedSlowdown() float64 {
	return 1 + w.MemoryIntensity*HarvestCachePenalty
}

// Workloads returns the eight batch applications of the evaluation, one per
// server: GraphBIG (BFS, CC, DC, PRank), FunctionBench (LRTrain, RndFTrain),
// CloudSuite (Hadoop), and BioBench (MUMmer).
func Workloads() []*Workload {
	return []*Workload{
		{Name: "BFS", JobCPU: 1500 * sim.Microsecond, JobSigma: 0.3, MemoryIntensity: 0.45},
		{Name: "CC", JobCPU: 1800 * sim.Microsecond, JobSigma: 0.3, MemoryIntensity: 0.50},
		{Name: "DC", JobCPU: 1200 * sim.Microsecond, JobSigma: 0.25, MemoryIntensity: 0.40},
		{Name: "PRank", JobCPU: 2200 * sim.Microsecond, JobSigma: 0.3, MemoryIntensity: 0.60},
		{Name: "LRTrain", JobCPU: 2000 * sim.Microsecond, JobSigma: 0.25, MemoryIntensity: 0.20},
		{Name: "RndFTrain", JobCPU: 2600 * sim.Microsecond, JobSigma: 0.3, MemoryIntensity: 0.90},
		{Name: "Hadoop", JobCPU: 2400 * sim.Microsecond, JobSigma: 0.35, MemoryIntensity: 0.70},
		{Name: "MUMmer", JobCPU: 1900 * sim.Microsecond, JobSigma: 0.35, MemoryIntensity: 0.65},
	}
}

// WorkloadByName returns the named workload or an error.
func WorkloadByName(name string) (*Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("batch: unknown workload %q", name)
}

// JobSampler draws job demands from one workload, holding the log-normal's
// location so a draw takes no logarithm. It reads the workload's fields
// when built; it writes nothing to the workload, so servers on different
// goroutines may each hold one for a shared workload.
type JobSampler struct {
	w  *Workload
	mu float64
}

// Sampler returns a JobSampler for the workload's current fields.
func (w *Workload) Sampler() JobSampler {
	return JobSampler{w: w, mu: logf(float64(w.JobCPU)) - w.JobSigma*w.JobSigma/2}
}

// Sample draws one job's CPU demand.
func (s JobSampler) Sample(rng *stats.RNG) sim.Duration {
	w := s.w
	if w.JobSigma <= 0 {
		return w.JobCPU
	}
	d := sim.Duration(rng.LogNormal(s.mu, w.JobSigma))
	if d < 10*sim.Microsecond {
		d = 10 * sim.Microsecond
	}
	return d
}

// RunKernel executes the workload's real mini-kernel at a small input scale
// and returns the operation count. Used by the examples and by the
// calibration test tying job demands to real kernel work.
func (w *Workload) RunKernel(rng *stats.RNG, scale int) (ops uint64, err error) {
	if scale <= 0 {
		scale = 1
	}
	switch w.Name {
	case "BFS":
		g := GenerateGraph(rng, 2000*scale, 8)
		return BFS(g, 0).Ops, nil
	case "CC":
		g := GenerateGraph(rng, 2000*scale, 8)
		return ConnectedComponents(g).Ops, nil
	case "DC":
		g := GenerateGraph(rng, 2000*scale, 8)
		_, ops := DegreeCentrality(g)
		return ops, nil
	case "PRank":
		g := GenerateGraph(rng, 1000*scale, 8)
		_, ops := PageRank(g, 0.85, 10)
		return ops, nil
	case "LRTrain":
		d := GenerateDataset(rng, 500*scale, 16)
		return TrainLogistic(d, 20, 0.1).Ops, nil
	case "RndFTrain":
		d := GenerateDataset(rng, 400*scale, 12)
		return TrainForest(rng, d, 10).Ops, nil
	case "Hadoop":
		corpus := GenerateCorpus(rng, 400*scale, 20, 1000)
		return WordCount(corpus).Ops, nil
	case "MUMmer":
		a := GenerateDNA(rng, 4000*scale)
		b := GenerateDNA(rng, 4000*scale)
		return MaxExactMatch(a, b, 12).Ops, nil
	default:
		return 0, fmt.Errorf("batch: no kernel for %q", w.Name)
	}
}
