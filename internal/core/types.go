// Package core implements the paper's primary contribution: the HardHarvest
// hardware controller (§4.1, Figure 9). A controller owns a physical Request
// Queue (RQ) of fixed-size chunks, dynamically partitioned into per-VM
// logical subqueues managed by hardware Queue Managers (QMs). Cores bind to a
// QM through their MyManager register and use user-level instructions to
// dequeue, complete, and block requests. The controller performs core
// re-assignment between VMs (harvesting) and core reclamation without any
// hypervisor involvement.
//
// The package is a cycle-free structural model: methods mutate controller
// state and return decisions; the cluster simulation layer attaches latencies
// (control-network hops, context-switch costs) to those decisions.
package core

import "fmt"

// VMID identifies a virtual machine on the server.
type VMID int

// CoreID identifies a physical core on the server.
type CoreID int

// ReqID identifies a request (a microservice invocation or a Harvest VM
// vCPU task).
type ReqID uint64

// ReqStatus is the 2-bit status field of an RQ entry (§6.8).
type ReqStatus uint8

const (
	// StatusEmpty marks a free RQ slot.
	StatusEmpty ReqStatus = iota
	// StatusReady marks a request waiting to be dequeued.
	StatusReady
	// StatusRunning marks a request currently executing on a core.
	StatusRunning
	// StatusBlocked marks a request stalled on I/O; its slot is kept in the
	// subqueue until the NIC delivers the response (§4.1.5).
	StatusBlocked
)

func (s ReqStatus) String() string {
	switch s {
	case StatusEmpty:
		return "empty"
	case StatusReady:
		return "ready"
	case StatusRunning:
		return "running"
	case StatusBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("ReqStatus(%d)", uint8(s))
	}
}

// Request is the controller's view of one queued invocation: a payload
// pointer (the NIC deposited the message into the LLC via DDIO) plus status.
type Request struct {
	ID          ReqID
	VM          VMID
	PayloadAddr uint64
	// Status is written only by the controller's Queue Managers, which
	// count their Ready requests by it; callers read it but do not set it.
	Status ReqStatus
	// InOverflow marks requests currently stored in the VM's software
	// in-memory overflow subqueue rather than the hardware RQ.
	InOverflow bool
}

// CoreState tracks what a core bound to a Primary VM's QM is doing. The
// controller is the single source of truth for loan bookkeeping.
type CoreState int

const (
	// CoreIdle means the core is spinning on its QM for work.
	CoreIdle CoreState = iota
	// CoreRunningOwn means the core executes a request of the VM it is
	// bound to.
	CoreRunningOwn
	// CoreLoaned means the core is bound to a Primary VM but currently
	// executes a Harvest VM request (§4.1.4).
	CoreLoaned
)

func (s CoreState) String() string {
	switch s {
	case CoreIdle:
		return "idle"
	case CoreRunningOwn:
		return "running-own"
	case CoreLoaned:
		return "loaned"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// Errors returned by controller operations. Isolation violations are errors
// rather than panics: in hardware they would raise a fault to the hypervisor.
var (
	ErrUnknownVM     = fmt.Errorf("core: unknown VM")
	ErrUnknownCore   = fmt.Errorf("core: core not bound to any queue manager")
	ErrIsolation     = fmt.Errorf("core: cross-VM subqueue access denied")
	ErrNoQMAvail     = fmt.Errorf("core: no free queue manager / VM state register set")
	ErrVMExists      = fmt.Errorf("core: VM already registered")
	ErrCoreBound     = fmt.Errorf("core: core already bound to a VM")
	ErrBadTransition = fmt.Errorf("core: invalid request state transition")
)
