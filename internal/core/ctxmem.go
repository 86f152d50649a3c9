package core

import "hardharvest/internal/sim"

// Request Context Memory (§4.1.8): HardHarvest extends the in-hardware
// context-switch support of uManycore — a dedicated on-chip memory reached
// over the regular NoC that saves and restores a process's register state —
// to additionally perform VM context switches. Saving and restoring happens
// in hardware with no new instructions.

// CtxMemConfig sizes the Request Context Memory.
type CtxMemConfig struct {
	// Slots is the number of contexts the memory can hold; at least one
	// per possible in-flight request per core.
	Slots int
	// ContextBytes is one saved context: 16 GPRs + 32 vector registers of
	// 64B + RIP/RFLAGS/segment state.
	ContextBytes int
	// PortBytesPerCycle is the transfer width between a core and the
	// memory.
	PortBytesPerCycle int
	// NoCRoundTrip is the regular-NoC round trip to reach the memory.
	NoCRoundTrip sim.Duration
}

// DefaultCtxMemConfig returns the configuration used in the evaluation: 72
// slots (two per core), 2.25 KB contexts, a 64B/cycle port, and a 10-cycle
// NoC round trip.
func DefaultCtxMemConfig() CtxMemConfig {
	return CtxMemConfig{
		Slots:             72,
		ContextBytes:      16*8 + 32*64 + 64, // GPRs + vector file + control
		PortBytesPerCycle: 64,
		NoCRoundTrip:      sim.Cycles(10),
	}
}

// StorageBytes reports the memory's capacity.
func (c CtxMemConfig) StorageBytes() int { return c.Slots * c.ContextBytes }

// TransferLatency reports the time to stream one context through the port.
func (c CtxMemConfig) TransferLatency() sim.Duration {
	cycles := int64((c.ContextBytes + c.PortBytesPerCycle - 1) / c.PortBytesPerCycle)
	return sim.Cycles(cycles)
}

// SwitchLatency reports a full in-hardware context switch: save the current
// context and restore the next one, pipelined over the NoC.
func (c CtxMemConfig) SwitchLatency() sim.Duration {
	// Save and restore stream back-to-back; the NoC round trip is paid
	// once because the restore is prefetched while the save drains.
	return c.NoCRoundTrip + 2*c.TransferLatency()
}
