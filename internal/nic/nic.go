// Package nic models the server NIC on the request path (§4.1.3, Figure 8):
// a request packet arrives addressed to a VM, the payload is deposited into
// the LLC via DDIO, the NIC looks up the destination VM's Queue Manager in a
// local software table, and informs that QM over the dedicated control
// network. It also carries the inter-server latency used for backend
// (Memcached/Redis/MongoDB) round trips.
package nic

import (
	"fmt"

	"hardharvest/internal/sim"
)

// Latencies bundles the NIC path constants.
type Latencies struct {
	// DDIODeposit is the time to deposit the payload into the LLC.
	DDIODeposit sim.Duration
	// VMTableLookup is the software-table lookup mapping VM -> QM.
	VMTableLookup sim.Duration
	// QMNotify is the control-network message to the Queue Manager
	// (thin-link tree network, latency-sensitive, §4.1.8).
	QMNotify sim.Duration
	// InterServerRTT is the 1 us inter-server round trip of Table 1, used
	// for every blocking backend call.
	InterServerRTT sim.Duration
}

// DefaultLatencies returns the modeled constants.
func DefaultLatencies() Latencies {
	return Latencies{
		DDIODeposit:    sim.Cycles(200), // ~67 ns to write the payload lines
		VMTableLookup:  sim.Cycles(60),
		QMNotify:       sim.Cycles(30), // few hops on the dedicated tree
		InterServerRTT: sim.Microsecond,
	}
}

// ArrivalLatency is the NIC-side latency from packet arrival to the QM
// having the request pointer stored.
func (l Latencies) ArrivalLatency() sim.Duration {
	return l.DDIODeposit + l.VMTableLookup + l.QMNotify
}

// NIC routes arrivals to per-VM destinations and stamps payload addresses.
type NIC struct {
	lat     Latencies
	vmTable []bool // registered VM network addresses, indexed by VM
	nextBuf uint64
}

// New builds a NIC with the given latencies.
func New(lat Latencies) *NIC {
	return &NIC{lat: lat}
}

// Latencies reports the NIC's constants.
func (n *NIC) Latencies() Latencies { return n.lat }

// RegisterVM installs a VM's network address in the NIC's software table
// (every VM has its own network address, §4.1.3).
func (n *NIC) RegisterVM(vm int) {
	if vm < 0 {
		panic(fmt.Sprintf("nic: negative VM %d", vm))
	}
	for len(n.vmTable) <= vm {
		n.vmTable = append(n.vmTable, false)
	}
	n.vmTable[vm] = true
}

// Deposit models packet arrival for a VM: it validates the destination,
// allocates an LLC payload address (DDIO), and reports the latency until the
// destination QM knows about the request.
func (n *NIC) Deposit(vm int, payloadBytes int) (payloadAddr uint64, lat sim.Duration, err error) {
	if vm < 0 || vm >= len(n.vmTable) || !n.vmTable[vm] {
		return 0, 0, fmt.Errorf("nic: no route to VM %d", vm)
	}
	// Payload addresses are namespaced per packet; the LLC is partitioned
	// per VM with CAT so payloads never collide across VMs.
	n.nextBuf++
	addr := 0xD0_0000_0000 | (uint64(vm) << 28) | (n.nextBuf << 6)
	lat = n.lat.ArrivalLatency()
	// Large payloads take extra DDIO lines: one line per 64B beyond the
	// first.
	if payloadBytes > 64 {
		extra := int64((payloadBytes - 1) / 64)
		lat += sim.Cycles(4 * extra)
	}
	return addr, lat, nil
}
