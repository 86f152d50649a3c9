package core

import (
	"testing"

	"hardharvest/internal/sim"
)

func TestCtxMemConfig(t *testing.T) {
	cfg := DefaultCtxMemConfig()
	if cfg.StorageBytes() != cfg.Slots*cfg.ContextBytes {
		t.Fatal("storage arithmetic")
	}
	// One 2.25KB-ish context through a 64B port: ~35 cycles.
	if cfg.TransferLatency() <= 0 || cfg.TransferLatency() > sim.Cycles(100) {
		t.Fatalf("transfer latency = %v", cfg.TransferLatency())
	}
	// A full hardware switch is tens of nanoseconds (§4.1.1: "a few 10s of
	// ns" with hardware context-switch support).
	sw := cfg.SwitchLatency()
	if sw < 10*sim.Nanosecond || sw > 100*sim.Nanosecond {
		t.Fatalf("switch latency = %v, want 10s of ns", sw)
	}
}
