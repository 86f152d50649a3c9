package cluster

import (
	"fmt"

	"hardharvest/internal/faults"
	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
)

// Live-control surface for long-running (served) simulations.
//
// A batch run calls Run() and never touches anything here; a served run
// calls Start, then alternates StepTo with the accessors and mutators below.
// Every mutator must only be invoked between StepTo calls (at a simulated-
// time barrier): the engine is single-threaded and the caller owns the
// serialization. Mutations are designed so that a run that never calls them
// is byte-identical to a plain Run — no extra events, no extra RNG draws,
// no floating-point perturbation (intensity starts at exactly 1.0 and
// multiplying by 1.0 is an IEEE-754 identity).

// Now reports the current simulated time.
func (s *Server) Now() sim.Time { return s.eng.Now() }

// Horizon reports the run's end time. Valid after Start.
func (s *Server) Horizon() sim.Time { return s.horizon }

// MeasureWindow reports the measurement window edges. Valid after Start.
func (s *Server) MeasureWindow() (start, end sim.Time) {
	return s.measureStart, s.measureEnd
}

// Engine exposes the server's event engine for shard-group membership
// (sim.ShardGroup reads its event floor between advance windows). The
// engine remains owned by the server: callers must not execute events on it
// directly — advance the server with StepTo as usual.
func (s *Server) Engine() *sim.Engine { return s.eng }

// JoinGroup adds the server to g as a member advanced by StepTo and
// declares the horizon StepTo clamps at (sim.ShardGroup.SetHorizon), so an
// event left pending past it never holds a linked neighbour back. It may be
// called before Start: the horizon comes from the config's run window.
// Returns the member id.
func (s *Server) JoinGroup(g *sim.ShardGroup) int {
	m := g.AddFunc(s.eng, func(to sim.Time) { s.StepTo(to) })
	_, _, _, horizon := s.cfg.RunWindow()
	g.SetHorizon(m, horizon)
	return m
}

// EventsFired reports how many engine events have executed so far.
func (s *Server) EventsFired() uint64 { return s.eng.Fired() }

// EventsPending reports how many engine events are currently scheduled.
func (s *Server) EventsPending() int { return s.eng.Pending() }

// OccupancySnapshot captures current per-VM occupancy (running, blocked,
// queued, lent-out, pinned, busy cores). Unlike attaching an
// obs.SnapshotSink — which schedules its own engine tick events — polling
// this at barriers leaves the engine's event sequence untouched, so a
// served run fires exactly the events a batch run does.
func (s *Server) OccupancySnapshot() obs.Snapshot { return s.snapshot() }

// LiveTopology reports the VM/core topology for exporters.
func (s *Server) LiveTopology() obs.Topology { return s.topology() }

// SetIntensity scales the offered load of every Primary VM's arrival
// generator by x (1.0 = the configured load). Takes effect from the next
// generated inter-arrival gap; arrivals already scheduled keep their times.
func (s *Server) SetIntensity(x float64) error {
	if x <= 0 {
		return fmt.Errorf("cluster: intensity must be positive, got %v", x)
	}
	for _, v := range s.vms {
		if v.isPrimary {
			v.gen.SetIntensity(x)
		}
	}
	return nil
}

// SetVMIntensity scales one Primary VM's arrival generator by x, leaving
// the other VMs untouched — the "profile switch" primitive of scenario
// timelines. vm indexes Primary VMs in construction order
// (0..PrimaryVMs-1). Like SetIntensity, it takes effect from the next
// generated inter-arrival gap and perturbs nothing else.
func (s *Server) SetVMIntensity(vm int, x float64) error {
	if x <= 0 {
		return fmt.Errorf("cluster: intensity must be positive, got %v", x)
	}
	idx := 0
	for _, v := range s.vms {
		if !v.isPrimary {
			continue
		}
		if idx == vm {
			v.gen.SetIntensity(x)
			return nil
		}
		idx++
	}
	return fmt.Errorf("cluster: primary VM %d out of range (%d primary VMs)", vm, idx)
}

// SetHarvestOnBlock toggles harvesting of cores idled by blocking I/O at
// runtime. The flag is consulted on each dispatch/block decision, so the
// switch takes effect on the next such decision with no rescheduling.
func (s *Server) SetHarvestOnBlock(on bool) { s.opts.HarvestOnBlock = on }

// SetResilienceEnabled toggles the request-level resilience policies
// (timeout/retry/hedge/shed) at runtime. Enabling on a server constructed
// without a policy installs DefaultResilience. The jitter RNG is created
// lazily here from the run seed: construction deliberately skips the split
// when the policy starts disabled (see NewServer) so plain runs stay
// stream- and allocation-identical, and a deterministic seed derivation
// keeps replayed runs byte-identical.
func (s *Server) SetResilienceEnabled(on bool) {
	if !on {
		s.resOn = false
		return
	}
	if s.resOn {
		return
	}
	if !s.opts.Resilience.Enabled() {
		s.opts.Resilience = DefaultResilience()
	}
	if err := s.opts.Resilience.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	if s.resRNG == nil {
		s.resRNG = stats.NewRNG(s.cfg.Seed ^ 0x9e3779b97f4a7c15).Split(7)
	}
	s.deriveResilienceDeadlines()
	s.resOn = true
}

// InjectFaultPlan expands a fault plan at runtime and schedules its events
// from simulated time `from` (clamped to now) to the run horizon. The
// expansion seed mixes the run seed with `from`, so the same action replayed
// at the same barrier produces the same fault schedule, while successive
// injections of the same plan draw distinct schedules.
//
// The expanded events go into a fresh slice — never appended to s.faultEvs:
// events already scheduled by Start hold pointers into that slice, and an
// append-triggered reallocation would strand them on stale memory.
func (s *Server) InjectFaultPlan(p *faults.Plan, from sim.Time) error {
	if p == nil {
		return fmt.Errorf("cluster: nil fault plan")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("cluster: fault plan: %w", err)
	}
	if now := s.eng.Now(); from < now {
		from = now
	}
	if from >= s.horizon {
		return fmt.Errorf("cluster: fault plan starts at %v, at or past horizon %v", from, s.horizon)
	}
	evs := p.Expand(s.cfg.Seed^uint64(from), len(s.cores), sim.Duration(s.horizon-from))
	for i := range evs {
		evs[i].At = evs[i].At.Add(sim.Duration(from))
		s.eng.CallAt(evs[i].At, s, opFaultBegin, nil, &evs[i])
	}
	return nil
}
