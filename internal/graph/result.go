package graph

import (
	"hardharvest/internal/stats"
)

// Result summarizes one DAG run from the dispatcher's side.
type Result struct {
	// Request ledger (end-to-end DAG traversals).
	Generated   uint64
	Completed   uint64
	Failed      uint64 // drained with at least one shed invocation
	InflightEnd uint64

	// RPC ledger (tier invocations).
	Dispatches     uint64
	DoneRecv       uint64
	ShedRecv       uint64
	OutstandingEnd uint64

	// E2E sketches measured end-to-end latencies (milliseconds, root
	// admission to invocation-tree completion, unfailed requests only).
	E2E *stats.Sketch

	Tiers []TierResult
}

// TierResult is one tier's dispatch view.
type TierResult struct {
	Name       string
	Servers    int
	VM         int
	Dispatches uint64
	Dones      uint64
	Sheds      uint64
	// Hop sketches measured invocation round trips through this tier
	// (milliseconds, dispatch to completion reply at the dispatcher).
	Hop *stats.Sketch
}

// Finish returns the run's DAG results after the ShardGroup reached the
// horizon.
func (d *Dispatcher) Finish() *Result { return d.Snapshot() }

// Snapshot returns the same ledger view at any quiescent point — between
// ShardGroup windows, no advance goroutines live. Counters are value
// copies; the latency sketches are the dispatcher's own (clone or extract
// quantiles before publishing across goroutines).
func (d *Dispatcher) Snapshot() *Result {
	res := &Result{
		Generated:      d.generated,
		Completed:      d.completed,
		Failed:         d.failed,
		InflightEnd:    d.inflight,
		Dispatches:     d.dispatches,
		DoneRecv:       d.doneRecv,
		ShedRecv:       d.shedRecv,
		OutstandingEnd: d.Outstanding(),
		E2E:            d.e2e,
	}
	for _, t := range d.tiers {
		res.Tiers = append(res.Tiers, TierResult{
			Name:       t.name,
			Servers:    len(t.servers),
			VM:         t.vm,
			Dispatches: t.dispatches,
			Dones:      t.dones,
			Sheds:      t.sheds,
			Hop:        t.hop,
		})
	}
	return res
}

// TierByName resolves a tier result by name (nil when absent).
func (r *Result) TierByName(name string) *TierResult {
	for i := range r.Tiers {
		if r.Tiers[i].Name == name {
			return &r.Tiers[i]
		}
	}
	return nil
}

// HopSketches maps tier names to their measured hop sketches (the
// Monte-Carlo cross-check's per-service latency source).
func (r *Result) HopSketches() map[string]*stats.Sketch {
	out := make(map[string]*stats.Sketch, len(r.Tiers))
	for i := range r.Tiers {
		out[r.Tiers[i].Name] = r.Tiers[i].Hop
	}
	return out
}

// The conservation oracle over these ledgers lives in internal/validate
// (GraphResultConservation): graph must not import validate, or the
// experiments package could never host DAG sweeps (validate's golden
// harness imports experiments).
