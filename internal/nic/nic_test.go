package nic

import (
	"testing"

	"hardharvest/internal/sim"
)

func TestDepositPath(t *testing.T) {
	n := New(DefaultLatencies())
	n.RegisterVM(3)
	addr, lat, err := n.Deposit(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 {
		t.Fatal("no payload address")
	}
	if lat != n.Latencies().ArrivalLatency() {
		t.Fatalf("latency = %v, want %v", lat, n.Latencies().ArrivalLatency())
	}
	// Addresses are unique per packet and namespaced by VM.
	addr2, _, _ := n.Deposit(3, 64)
	if addr2 == addr {
		t.Fatal("payload addresses collide")
	}
	n.RegisterVM(4)
	addr3, _, _ := n.Deposit(4, 64)
	if (addr3>>28)&0xF == (addr>>28)&0xF {
		t.Fatal("VM namespaces collide")
	}
}

func TestDepositUnknownVM(t *testing.T) {
	n := New(DefaultLatencies())
	if _, _, err := n.Deposit(9, 64); err == nil {
		t.Fatal("unrouted VM should error")
	}
	n.RegisterVM(9)
	if _, _, err := n.Deposit(9, 64); err != nil {
		t.Fatal(err)
	}
	// VMs below and above a registered one stay unrouted.
	for _, vm := range []int{-1, 0, 8, 10} {
		if _, _, err := n.Deposit(vm, 64); err == nil {
			t.Fatalf("unregistered VM %d should error", vm)
		}
	}
}

func TestLargePayloadCostsMore(t *testing.T) {
	n := New(DefaultLatencies())
	n.RegisterVM(1)
	_, small, _ := n.Deposit(1, 64)
	_, big, _ := n.Deposit(1, 1024)
	if big <= small {
		t.Fatalf("1KB payload (%v) should cost more than 64B (%v)", big, small)
	}
}

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	if l.InterServerRTT != sim.Microsecond {
		t.Fatalf("inter-server RTT = %v, Table 1 says 1us", l.InterServerRTT)
	}
	if l.ArrivalLatency() <= 0 {
		t.Fatal("arrival latency must be positive")
	}
	// The dedicated control network is faster than the DDIO deposit.
	if l.QMNotify >= l.DDIODeposit {
		t.Fatal("QM notify should be cheap relative to DDIO")
	}
}
