// Package obs is the observability substrate of the cluster simulator:
// a low-overhead event stream emitted from every request-lifecycle and
// core-state transition in internal/cluster, plus ready-made observers —
// a SpanTracer that exports Chrome trace-event JSON (Perfetto compatible)
// with harvest-event counters and an HDR-style latency histogram, and a
// Sampler that snapshots per-VM occupancy on a simulated-time cadence.
//
// Observers are opt-in: with cluster.Options.Observer == nil the simulator
// pays a single nil check per hook site and allocates nothing.
package obs

import (
	"fmt"

	"hardharvest/internal/sim"
)

// Kind enumerates the simulator transitions reported to an Observer.
type Kind uint8

const (
	// KindArrival: a primary invocation entered the system (post-NIC).
	KindArrival Kind = iota
	// KindEnqueue: a ready request was stored in its VM's queue.
	KindEnqueue
	// KindDispatch: a core picked the request; Dur spans the dispatch-path
	// overheads (queue op + context switch + any critical-path flush) and
	// CrossVM marks a loan-style cross-VM transition.
	KindDispatch
	// KindReassignStart/End bracket the re-assignment portion of a cross-VM
	// dispatch (queue op + context load).
	KindReassignStart
	KindReassignEnd
	// KindFlushStart/End bracket a critical-path cache/TLB flush.
	KindFlushStart
	KindFlushEnd
	// KindBurstStart: a CPU burst began; Dur is the scheduled scaled length.
	KindBurstStart
	// KindBurstEnd: a CPU burst retired; Dur is the executed scaled time
	// attributed to the request (stall extensions are attributed to
	// re-assignment, not execution).
	KindBurstEnd
	// KindBlock: the request blocked on I/O for Dur.
	KindBlock
	// KindUnblock: the I/O completed and the request re-queued.
	KindUnblock
	// KindComplete: the request (or batch job) finished; Dur is its
	// end-to-end latency.
	KindComplete
	// KindPreempt: a hardware reclamation interrupt evicted a loaned core.
	KindPreempt
	// KindAbort: a running/starting harvest job was kicked off its core and
	// re-queued with its remaining demand.
	KindAbort
	// KindPin: an arrival (or I/O resume) landed on an unbacked vCPU and
	// stalled waiting for a reclaim (software path).
	KindPin
	// KindUnpin: a pinned request became runnable; Dur is the pinned wait.
	KindUnpin
	// KindLendStart: the hypervisor began moving an idle core to the
	// Harvest VM; Dur is the projected move latency (software path).
	KindLendStart
	// KindLendEnd: the lend completed and the core serves the Harvest VM.
	KindLendEnd
	// KindReclaimStart: the hypervisor began taking a lent core back; Dur
	// is the projected move latency (software path).
	KindReclaimStart
	// KindReclaimEnd: the reclaim completed; the core is the owner's again.
	KindReclaimEnd
	// KindCoreBusy: a core left idle to work (dispatch overheads included).
	KindCoreBusy
	// KindCoreIdle: a core ran out of work.
	KindCoreIdle
	// KindFault: an injected fault began (Dur is the fault duration, Core is
	// the victim or -1 for server-wide faults).
	KindFault
	// KindShed: an attempt was rejected by queue-depth load shedding.
	KindShed
	// KindRetry: a resilience retry attempt was launched (Req is the call id).
	KindRetry
	// KindHedge: a hedged duplicate attempt was launched (Req is the call id).
	KindHedge
	// KindHedgeWin: a hedge attempt resolved its call before the primary.
	KindHedgeWin
	// KindDeadlineMiss: a call exhausted its timeout/retry budget without
	// completing; Dur is the time spent before giving up.
	KindDeadlineMiss

	numKinds
)

var kindNames = [numKinds]string{
	"arrival", "enqueue", "dispatch",
	"reassign-start", "reassign-end", "flush-start", "flush-end",
	"burst-start", "burst-end", "block", "unblock", "complete",
	"preempt", "abort", "pin", "unpin",
	"lend-start", "lend-end", "reclaim-start", "reclaim-end",
	"core-busy", "core-idle",
	"fault", "shed", "retry", "hedge", "hedge-win", "deadline-miss",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one simulator transition. Fields that do not apply to a given
// Kind are zero (VM and Core use -1 for "none"). Events are delivered by
// value so that observers impose no allocation on the simulator.
type Event struct {
	Kind Kind
	Time sim.Time
	// Req is the request id (0 when the event has no request).
	Req uint64
	// VM is the request's VM (or the core's owner for core-state events).
	VM int
	// Core is the physical core involved, -1 when none.
	Core int
	// Dur carries the Kind-specific duration (see the Kind docs).
	Dur sim.Duration
	// IsJob marks Harvest VM batch jobs.
	IsJob bool
	// CrossVM marks loan-style cross-VM dispatches.
	CrossVM bool
	// Measured marks requests that arrived inside the measurement window.
	Measured bool
}

// Observer receives the event stream of one simulated server. Observe is
// called from the engine goroutine: implementations need no locking but
// must not retain pointers into the simulator. One Observer instance must
// not be shared between concurrently running servers.
type Observer interface {
	Observe(ev Event)
}

// KindSet is a set of event kinds, one bit per Kind.
type KindSet uint32

// AllKinds holds every kind.
const AllKinds KindSet = 1<<numKinds - 1

// KindSetOf returns the set holding exactly the given kinds.
func KindSetOf(kinds ...Kind) KindSet {
	var s KindSet
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// Selective is implemented by observers that read only some event kinds.
// The simulator may skip building and delivering the others; an observer
// must leave its state untouched for every kind outside Kinds.
type Selective interface {
	Kinds() KindSet
}

// KindsOf reports the kinds o reads: Kinds for a Selective observer, none
// for nil, and every kind otherwise.
func KindsOf(o Observer) KindSet {
	switch o := o.(type) {
	case nil:
		return 0
	case Selective:
		return o.Kinds()
	}
	return AllKinds
}

// VMInfo describes one VM of a server's topology.
type VMInfo struct {
	Idx     int
	Name    string
	Primary bool
	// Cores lists the physical cores bound to (owned by) the VM.
	Cores []int
}

// Topology describes a server at the start of a run.
type Topology struct {
	Run string // run label (system/variant name)
	VMs []VMInfo
}

// TopologyObserver is implemented by observers that want the server shape
// before any event is delivered.
type TopologyObserver interface {
	SetTopology(t Topology)
}

// Snapshot is one Sampler row: per-VM occupancy at an instant.
type Snapshot struct {
	Time sim.Time
	VMs  []VMSample
}

// VMSample is one VM's occupancy inside a Snapshot.
type VMSample struct {
	VM        int
	Running   int // requests executing on cores
	Blocked   int // requests blocked on I/O
	Queued    int // ready requests waiting for a core
	LentOut   int // cores currently lent to the Harvest VM
	Pinned    int // arrivals parked on unbacked vCPUs
	BusyCores int // owned cores not idle (overheads included)
}

// SnapshotSink is implemented by observers that want periodic state
// snapshots; the server drives the cadence from SampleInterval.
type SnapshotSink interface {
	SampleInterval() sim.Duration
	OnSnapshot(s Snapshot)
}

// multi fans a server's stream out to several observers.
type multi struct {
	obs []Observer
}

// Multi composes observers (e.g. a SpanTracer plus a Sampler) into one.
// Nil members are dropped; composing zero or one non-nil observers returns
// nil or that observer unchanged.
func Multi(observers ...Observer) Observer {
	live := make([]Observer, 0, len(observers))
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multi{obs: live}
}

// Kinds reports the union of the members' kinds (Selective).
func (m *multi) Kinds() KindSet {
	var s KindSet
	for _, o := range m.obs {
		s |= KindsOf(o)
	}
	return s
}

func (m *multi) Observe(ev Event) {
	for _, o := range m.obs {
		o.Observe(ev)
	}
}

func (m *multi) SetTopology(t Topology) {
	for _, o := range m.obs {
		if to, ok := o.(TopologyObserver); ok {
			to.SetTopology(t)
		}
	}
}

// SampleInterval reports the smallest positive member cadence (0 if no
// member samples).
func (m *multi) SampleInterval() sim.Duration {
	var min sim.Duration
	for _, o := range m.obs {
		if sk, ok := o.(SnapshotSink); ok {
			if iv := sk.SampleInterval(); iv > 0 && (min == 0 || iv < min) {
				min = iv
			}
		}
	}
	return min
}

func (m *multi) OnSnapshot(s Snapshot) {
	for _, o := range m.obs {
		if sk, ok := o.(SnapshotSink); ok && sk.SampleInterval() > 0 {
			sk.OnSnapshot(s)
		}
	}
}
