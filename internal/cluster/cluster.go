package cluster

import (
	"sort"

	"hardharvest/internal/batch"
	"hardharvest/internal/metrics"
	"hardharvest/internal/sim"
)

// RunServer simulates one server with the given batch workload.
func RunServer(cfg Config, opts Options, work *batch.Workload) *ServerResult {
	return NewServer(cfg, opts, work).Run()
}

// ClusterResult aggregates the 8-server cluster: each server runs a
// different Harvest VM batch workload; per-service latency is aggregated
// across servers (each server hosts an instance of every service, §5).
type ClusterResult struct {
	System string
	// Servers holds the individual results in workload order.
	Servers []*ServerResult
	// Service aggregates latencies across servers.
	Service map[string]*metrics.LatencyRecorder
	// WorkloadJobsPerSec maps each batch workload to its throughput.
	WorkloadJobsPerSec map[string]float64
	// BusyCores is the average busy core count per server.
	BusyCores float64
}

// ServerSeed derives fleet server i's seed from the run's seed. Server 0
// runs with the run's own seed; every fleet builder seeds its servers this
// way, so a server's stream depends only on its position in the fleet.
func ServerSeed(seed uint64, i int) uint64 { return seed + uint64(i)*7919 }

// RunCluster simulates the full 8-server cluster of the evaluation. The
// servers never communicate (microservices only talk within a server, §5),
// so they run in parallel, one per batch workload, as members of one
// sim.ShardGroup that advances them all to the horizon in a single window.
// servers limits the count (0 or >8 runs all 8).
func RunCluster(cfg Config, opts Options, servers int) *ClusterResult {
	works := batch.Workloads()
	if servers <= 0 || servers > len(works) {
		servers = len(works)
	}
	seeded := func(i int) Config {
		scfg := cfg
		scfg.Seed = ServerSeed(cfg.Seed, i)
		return scfg
	}
	results := make([]*ServerResult, servers)
	if opts.Observer != nil && opts.ServerObserver == nil {
		// A single shared observer is single-goroutine: the instrumented
		// cluster runs its servers sequentially so the one observer sees a
		// coherent stream (server runs stay individually deterministic
		// either way).
		for i := range results {
			results[i] = RunServer(seeded(i), opts, works[i])
		}
		return aggregate(opts.Name, results)
	}
	// Resolve per-server observers, build and start the servers here, in
	// server order, on the calling goroutine — observer providers may rely
	// on call order (e.g. stable trace process IDs) — then run them in
	// parallel, each owning its private observer. Start, a run to the
	// horizon and Finish are exactly Server.Run. One worker per server lets
	// the Go scheduler share the CPUs among servers of unequal cost; a
	// static split over GOMAXPROCS workers ran the 8-server cluster 15-20%
	// slower on a 2-vCPU host. The worker count never changes results.
	group := sim.NewShardGroup(servers)
	built := make([]*Server, servers)
	horizon := sim.Time(0)
	for i := range built {
		sopts := opts
		if opts.ServerObserver != nil {
			sopts.Observer = opts.ServerObserver(i, works[i].Name)
			sopts.ServerObserver = nil
		}
		srv := NewServer(seeded(i), sopts, works[i])
		srv.Start()
		horizon = max(horizon, srv.Horizon())
		srv.JoinGroup(group)
		built[i] = srv
	}
	group.Run(horizon)
	for i, srv := range built {
		results[i] = srv.Finish()
	}
	return aggregate(opts.Name, results)
}

func aggregate(system string, results []*ServerResult) *ClusterResult {
	cr := &ClusterResult{
		System:             system,
		Servers:            results,
		Service:            make(map[string]*metrics.LatencyRecorder),
		WorkloadJobsPerSec: make(map[string]float64),
	}
	for _, r := range results {
		for svc, rec := range r.Service {
			agg, ok := cr.Service[svc]
			if !ok {
				// The aggregate adopts the mode of its sources: sketch
				// recorders fold into a sketch aggregate, exact into exact.
				if rec.Sketched() {
					agg = metrics.NewLatencySketch()
				} else {
					agg = metrics.NewLatencyRecorder()
				}
				cr.Service[svc] = agg
			}
			agg.Merge(rec)
		}
		cr.WorkloadJobsPerSec[r.Workload] = r.HarvestJobsPerSec
		cr.BusyCores += r.BusyCores
	}
	for _, agg := range cr.Service {
		agg.Freeze()
	}
	if len(results) > 0 {
		cr.BusyCores /= float64(len(results))
	}
	return cr
}

// ServiceNames returns the aggregated service names sorted alphabetically.
func (cr *ClusterResult) ServiceNames() []string {
	names := make([]string, 0, len(cr.Service))
	for n := range cr.Service {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AvgP99 reports the mean of per-service P99 latencies.
func (cr *ClusterResult) AvgP99() sim.Duration {
	var sum sim.Duration
	n := 0
	for _, rec := range cr.Service {
		sum += rec.P99()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Duration(n)
}

// AvgP50 reports the mean of per-service median latencies.
func (cr *ClusterResult) AvgP50() sim.Duration {
	var sum sim.Duration
	n := 0
	for _, rec := range cr.Service {
		sum += rec.P50()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Duration(n)
}
