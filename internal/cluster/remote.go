package cluster

import (
	"fmt"

	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
)

// Remote admission: with Options.RemoteAdmission a server stops generating
// its own Primary VM arrivals and instead accepts invocations pushed by a
// fleet front door (internal/route) through AdmitRemote. The server still
// owns everything downstream of admission — NIC deposit, queueing, load
// shedding, execution, faults — and reports each remote request's fate back
// through the RemoteHooks callbacks so the front door can account for
// failover and conservation without reaching into server internals.

// remoteSeedSalt derives the remote-admission sampling stream from the
// server seed. A fresh root (not a Split of the server's shared root) keeps
// routerless runs stream-identical to builds without routing support.
const remoteSeedSalt = 0xa24baed4963ee407

// RemoteHooks carries the callbacks a front door registers to learn the
// fate of remotely admitted requests and of the server as a whole. The
// callbacks run synchronously inside the server's event handlers, on the
// server's engine; a cross-member front door must forward them over
// ShardGroup.Send edges rather than touch router state directly.
type RemoteHooks struct {
	// Done fires when a remotely admitted request completes, with the
	// admission-to-completion latency on this server.
	Done func(remoteID uint64, latency sim.Duration)
	// Shed fires when queue-depth admission control rejects a remotely
	// admitted request at the door.
	Shed func(remoteID uint64)
	// Crash fires on whole-server crash (down=true) and recovery
	// (down=false) edges; overlapping crash windows produce exactly one
	// down/up pair. Consulted even without RemoteAdmission.
	Crash func(down bool)
}

// AdmitRemote admits one front-door-dispatched invocation for Primary VM
// vm. The invocation's phases are sampled server-side from the VM's service
// profile on the dedicated remote stream, so the dispatch message carries
// only the VM index and the front door's attempt id. Requires
// Options.RemoteAdmission.
func (s *Server) AdmitRemote(vm int, remoteID uint64) {
	if s.remoteRNG == nil {
		panic("cluster: AdmitRemote requires Options.RemoteAdmission")
	}
	if vm < 0 || vm >= s.harvestIdx {
		panic(fmt.Sprintf("cluster: AdmitRemote: VM %d out of primary range", vm))
	}
	if remoteID == 0 {
		panic("cluster: AdmitRemote: remoteID must be non-zero")
	}
	v := s.vms[vm]
	inv := v.gen.Profile().SampleInto(s.remoteRNG, &s.remoteScratch)
	_, nicLat, err := s.nicDev.Deposit(v.idx, 256)
	if err != nil {
		panic(err)
	}
	if !s.opts.HWQueue {
		nicLat += s.cfg.SWQueueAccess
	}
	s.reqSeq++
	s.arrivals++
	r := s.newRequest()
	r.id = s.reqSeq
	r.vmIdx = v.idx
	// Copy: inv.Phases aliases the sampling scratch.
	s.setPhases(r, inv.Phases)
	r.arrival = s.now()
	r.measured = s.measuring()
	r.remoteID = remoteID
	s.setReqState(r, rsTransit)
	if s.obs != nil {
		s.ev(obs.KindArrival, r, -1, nicLat)
	}
	s.eng.ScheduleCall(nicLat, s, opArrivalReady, nil, r)
}

// shedRemote rejects a remotely admitted attempt at the door (queue-depth
// admission control) and reports the rejection to the front door, which
// owns the retry policy.
func (s *Server) shedRemote(r *request) {
	s.sheds++
	if s.obs != nil {
		s.ev(obs.KindShed, r, -1, 0)
	}
	remoteID := r.remoteID
	s.freeRequest(r)
	if s.opts.Remote.Shed != nil {
		s.opts.Remote.Shed(remoteID)
	}
}

// SetRemoteHooks installs the front door's callbacks. Call before Start:
// the hooks observe admission, completion, and crash edges from the first
// event on.
func (s *Server) SetRemoteHooks(h RemoteHooks) { s.opts.Remote = h }

// Crashed reports whether the server currently sits inside an injected
// whole-server crash window.
func (s *Server) Crashed() bool { return s.crashDepth > 0 }
