package route

import (
	"hardharvest/internal/stats"
	"hardharvest/internal/validate"
)

// Result summarizes one routed-fleet run from the router's side.
type Result struct {
	Policy Policy

	// Request ledger (logical units of work).
	Generated   uint64
	Completions uint64
	Sheds       uint64
	Lost        uint64
	LostAtAdmit uint64
	InflightEnd uint64

	// Attempt ledger (dispatches to backends).
	InitialDispatches uint64
	Dispatches        uint64
	Failovers         uint64
	DoneRecv          uint64
	ShedRecv          uint64
	ZombieDones       uint64
	ZombieSheds       uint64
	OutstandingEnd    uint64

	// Health/ejection/drain machinery.
	Probes     uint64
	ProbeFails uint64
	Ejections  uint64
	Readmits   uint64
	Drains     uint64

	// FleetLatency sketches measured end-to-end latencies (milliseconds,
	// generation to live completion at the router).
	FleetLatency *stats.Sketch

	Backends []BackendResult
}

// BackendResult is one backend's routed view.
type BackendResult struct {
	Name  string
	State string // healthy | unhealthy | down | ejected | draining | drained

	Dispatches   uint64
	Dones        uint64
	Sheds        uint64
	ZombieDones  uint64
	ZombieSheds  uint64
	FailoversOut uint64 // attempts stranded here and re-dispatched elsewhere
	Lost         uint64 // requests lost when stranded here out of budget/fleet

	Probes          uint64
	ProbeFails      uint64
	UnhealthySpells uint64
	Ejections       uint64
	Drains          uint64
	Crashes         uint64

	ActiveEnd int // live attempts still routed here at the end

	// EdgeLatency sketches measured dispatch-to-completion round trips
	// through this backend (milliseconds, observed at the router).
	EdgeLatency *stats.Sketch
}

// Finish returns the run's routed results after the ShardGroup reached the
// horizon.
func (rt *Router) Finish() *Result { return rt.Snapshot() }

// Snapshot returns the same ledger view at any quiescent point — between
// ShardGroup windows, no advance goroutines live. Counters are value
// copies; the latency sketches are the router's own (clone or extract
// quantiles before publishing across goroutines).
func (rt *Router) Snapshot() *Result {
	res := &Result{
		Policy:            rt.cfg.Policy,
		Generated:         rt.generated,
		Completions:       rt.completions,
		Sheds:             rt.sheds,
		Lost:              rt.lost,
		LostAtAdmit:       rt.lostAtAdmit,
		InflightEnd:       rt.generated - rt.completions - rt.sheds - rt.lost,
		InitialDispatches: rt.initialDispatches,
		Dispatches:        rt.dispatches,
		Failovers:         rt.failovers,
		DoneRecv:          rt.doneRecv,
		ShedRecv:          rt.shedRecv,
		ZombieDones:       rt.zombieDones,
		ZombieSheds:       rt.zombieSheds,
		OutstandingEnd:    rt.Outstanding(),
		Probes:            rt.probes,
		ProbeFails:        rt.probeFails,
		Ejections:         rt.ejections,
		Readmits:          rt.readmits,
		Drains:            rt.drains,
		FleetLatency:      rt.fleetLat,
	}
	for _, b := range rt.backends {
		res.Backends = append(res.Backends, BackendResult{
			Name:            b.Name,
			State:           b.state(),
			Dispatches:      b.dispatches,
			Dones:           b.dones,
			Sheds:           b.sheds,
			ZombieDones:     b.zombieDones,
			ZombieSheds:     b.zombieSheds,
			FailoversOut:    b.failoversOut,
			Lost:            b.lost,
			Probes:          b.probes,
			ProbeFails:      b.probeFails,
			UnhealthySpells: b.unhealthySpells,
			Ejections:       b.ejections,
			Drains:          b.drains,
			Crashes:         b.crashes,
			ActiveEnd:       len(b.active),
			EdgeLatency:     b.edgeLat,
		})
	}
	return res
}

// Totals maps the result onto the fleet-conservation oracle's ledger.
func (r *Result) Totals() validate.FleetTotals {
	return validate.FleetTotals{
		Generated:         r.Generated,
		Completions:       r.Completions,
		Sheds:             r.Sheds,
		Lost:              r.Lost,
		LostAtAdmit:       r.LostAtAdmit,
		InflightEnd:       r.InflightEnd,
		InitialDispatches: r.InitialDispatches,
		Dispatches:        r.Dispatches,
		Failovers:         r.Failovers,
		DoneRecv:          r.DoneRecv,
		ShedRecv:          r.ShedRecv,
		ZombieDones:       r.ZombieDones,
		ZombieSheds:       r.ZombieSheds,
		OutstandingEnd:    r.OutstandingEnd,
	}
}

// Conservation runs the fleet-conservation oracle over the result.
func (r *Result) Conservation(name string) validate.Check {
	return validate.FleetConservation(name, r.Totals())
}
