// Package cluster assembles the full evaluated system: an 8-server cluster
// where each server runs 8 Primary VMs (4 cores each, one SocialNet-like
// microservice per VM) and 1 Harvest VM (4 own cores plus harvested ones,
// running one batch workload). It implements the five architectures of the
// evaluation (NoHarvest, Harvest-Term, Harvest-Block, HardHarvest-Term,
// HardHarvest-Block) and the individual optimization knobs used in the
// ablation studies (Figures 12, 13, 15).
package cluster

import (
	"fmt"

	"hardharvest/internal/hypervisor"
	"hardharvest/internal/obs"
)

// Observer receives request-lifecycle and core-state events from a server
// run; see internal/obs. It is re-exported so callers wiring observers into
// Options need not import the obs package for the type alone.
type Observer = obs.Observer

// SystemKind names the five evaluated architectures.
type SystemKind int

const (
	// NoHarvest is a conventional system without core harvesting.
	NoHarvest SystemKind = iota
	// HarvestTerm is SmartHarvest-style software harvesting that takes
	// cores only when they are idle after request termination.
	HarvestTerm
	// HarvestBlock additionally takes cores idled by blocking I/O calls.
	HarvestBlock
	// HardHarvestTerm is the hardware design, harvesting on termination.
	HardHarvestTerm
	// HardHarvestBlock is the full proposal: hardware harvesting on
	// termination and on blocking calls.
	HardHarvestBlock
)

func (k SystemKind) String() string {
	switch k {
	case NoHarvest:
		return "NoHarvest"
	case HarvestTerm:
		return "Harvest-Term"
	case HarvestBlock:
		return "Harvest-Block"
	case HardHarvestTerm:
		return "HardHarvest-Term"
	case HardHarvestBlock:
		return "HardHarvest-Block"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// Systems lists the five architectures in figure order.
func Systems() []SystemKind {
	return []SystemKind{NoHarvest, HarvestTerm, HarvestBlock, HardHarvestTerm, HardHarvestBlock}
}

// ParseSystem resolves a SystemKind by its printed name.
func ParseSystem(name string) (SystemKind, error) {
	for _, k := range Systems() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown system %q (want one of %v)", name, Systems())
}

// Options select the mechanisms of a simulated system. The five named
// systems are presets; the ablation figures toggle individual fields.
type Options struct {
	Name string

	// Harvesting enables core movement between VMs.
	Harvesting bool
	// HarvestOnBlock additionally harvests cores idled by blocking I/O.
	HarvestOnBlock bool
	// SoftwareHarvest selects the SmartHarvest-style software agent
	// (predictor + emergency buffer + hypervisor moves); false selects the
	// HardHarvest controller path.
	SoftwareHarvest bool
	// Reassign selects the software re-assignment cost (KVM or optimized).
	Reassign hypervisor.ReassignKind
	// ReassignFree zeroes the software re-assignment cost (used by Figure
	// 5's Flush-only bars).
	ReassignFree bool
	// FlushOnSwitch flushes+invalidates private caches/TLBs on cross-VM
	// transitions (the secure default; Figure 4 disables it to isolate
	// hypervisor costs).
	FlushOnSwitch bool
	// HarvestVMActive gives the Harvest VM an endless job stream; Figure 4
	// keeps the Harvest VM idle.
	HarvestVMActive bool
	// EventDrivenLend moves cores on per-request events (an idle core with
	// an empty queue migrates immediately), as in the Figure 4/5 motivation
	// experiments, instead of through the SmartHarvest predictor. At most
	// one core per VM is lent this way, matching the paper's methodology
	// ("we detach an idle core from a Primary VM").
	EventDrivenLend bool

	// Hardware optimization knobs (cumulative in Figure 12):
	// HWSched: in-hardware request scheduling — cores are notified of new
	// work instantly instead of discovering it by polling.
	HWSched bool
	// HWQueue: dedicated SRAM request queues — cheap queue operations with
	// no cache-hierarchy contention.
	HWQueue bool
	// HWCtxtSw: in-hardware context save/restore via the Request Context
	// Memory.
	HWCtxtSw bool
	// Partition: way-partitioned caches/TLBs — only the harvest region is
	// flushed on transitions and Primary VMs restart on a warm non-harvest
	// region.
	Partition bool
	// EffFlush: efficient flush/invalidate hardware (1000-cycle harvest
	// region flush instead of a wbinvd-style walk).
	EffFlush bool
	// ReplPolicy: the HardHarvest replacement policy (Algorithm 1), which
	// improves hit rates for Primary VMs in general.
	ReplPolicy bool

	// Extension policies (§4.1.5 future work):
	// BurstBufferCores keeps that many idle cores per Primary VM unloaned,
	// ready for bursts — reduced harvesting aggressiveness in hardware.
	BurstBufferCores int
	// AdaptiveBlock dynamically falls back from harvest-on-block to
	// harvest-on-termination for VMs whose requests spend only short times
	// blocked on I/O (frequent short blocks make block-harvesting churn).
	AdaptiveBlock bool

	// SketchLatency selects bounded-memory mergeable latency sketches for
	// the per-VM service recorders instead of exact sample buffers: memory
	// stays flat over arbitrarily long runs at a bounded relative quantile
	// error (stats.SketchRelativeError). Fleet-scale scenario runs set it;
	// golden runs and the experiment suite keep exact recorders.
	SketchLatency bool

	// Observer, when non-nil, receives every request-lifecycle and
	// core-state transition of the run (see internal/obs for ready-made
	// tracers and samplers). The presets leave it nil: with no observer the
	// simulator pays a single nil check per hook site and allocates
	// nothing. An Observer instance must not be shared between concurrently
	// running servers; RunCluster therefore runs its servers one after
	// another, each to completion, when Observer is set. Use ServerObserver
	// to instrument a cluster without giving up server parallelism.
	Observer Observer

	// ServerObserver, when non-nil, resolves one observer per cluster
	// server: RunCluster calls it once per server, in server order, on the
	// calling goroutine, building and starting that server before resolving
	// the next, then advances the servers in parallel on a sim.ShardGroup
	// with each server owning the observer it was handed (nil leaves that
	// server uninstrumented). Because each server gets a private observer,
	// setting ServerObserver keeps the parallel path, unlike Observer.
	// ServerObserver takes precedence over Observer when both are set.
	ServerObserver func(server int, workload string) Observer

	// Resilience configures request-level timeout/retry/hedging/shedding
	// policies for Primary VM microservice calls. The zero value disables
	// all of them and keeps the simulation byte-identical to a build
	// without resilience support.
	Resilience Resilience

	// RemoteAdmission switches Primary VM request admission from the
	// server's own workload generators to an external front door (see
	// internal/route): the local per-VM arrival loops are not started and
	// requests enter through Server.AdmitRemote instead. Harvest VM batch
	// jobs remain locally generated. Off (the default) the server is
	// byte-identical to a build without remote-admission support.
	RemoteAdmission bool

	// Remote carries the callbacks a front door registers to hear about
	// the fate of remotely admitted requests and about whole-server
	// crash/recovery transitions. Only consulted when RemoteAdmission is
	// set (except Crash, which fires whenever it is non-nil).
	Remote RemoteHooks
}

// SystemOptions returns the preset for one of the five architectures.
func SystemOptions(kind SystemKind) Options {
	switch kind {
	case NoHarvest:
		return Options{
			Name:            kind.String(),
			HarvestVMActive: true,
		}
	case HarvestTerm, HarvestBlock:
		return Options{
			Name:            kind.String(),
			Harvesting:      true,
			HarvestOnBlock:  kind == HarvestBlock,
			SoftwareHarvest: true,
			Reassign:        hypervisor.ReassignOpt,
			FlushOnSwitch:   true,
			HarvestVMActive: true,
		}
	case HardHarvestTerm, HardHarvestBlock:
		return Options{
			Name:            kind.String(),
			Harvesting:      true,
			HarvestOnBlock:  kind == HardHarvestBlock,
			FlushOnSwitch:   true,
			HarvestVMActive: true,
			HWSched:         true,
			HWQueue:         true,
			HWCtxtSw:        true,
			Partition:       true,
			EffFlush:        true,
			ReplPolicy:      true,
		}
	default:
		panic(fmt.Sprintf("cluster: unknown system %d", int(kind)))
	}
}

// ExtensionVariants returns the §4.1.5 future-work policies layered on
// HardHarvest-Block: a hardware burst buffer of idle cores, and adaptive
// block-harvesting.
func ExtensionVariants() []Options {
	base := SystemOptions(HardHarvestBlock)
	buf1 := base
	buf1.Name = "+BurstBuffer-1"
	buf1.BurstBufferCores = 1
	buf2 := base
	buf2.Name = "+BurstBuffer-2"
	buf2.BurstBufferCores = 2
	adaptive := base
	adaptive.Name = "+AdaptiveBlock"
	adaptive.AdaptiveBlock = true
	return []Options{base, buf1, buf2, adaptive}
}

// Fig4Variants returns the motivation experiment of Figure 4: hypervisor
// core re-assignment with an always-idle Harvest VM and no cache flushing,
// under stock-KVM and SmartHarvest-optimized costs, moving cores on request
// termination or additionally on blocking calls.
func Fig4Variants() []Options {
	noMove := SystemOptions(NoHarvest)
	noMove.Name = "No-Move"
	noMove.HarvestVMActive = false
	mk := func(name string, kind hypervisor.ReassignKind, onBlock bool) Options {
		return Options{
			Name:            name,
			Harvesting:      true,
			HarvestOnBlock:  onBlock,
			SoftwareHarvest: true,
			EventDrivenLend: true,
			Reassign:        kind,
			FlushOnSwitch:   false, // the Harvest VM is idle: no flushing
			HarvestVMActive: false,
		}
	}
	return []Options{
		noMove,
		mk("KVM-Term", hypervisor.ReassignKVM, false),
		mk("KVM-Block", hypervisor.ReassignKVM, true),
		mk("Opt-Term", hypervisor.ReassignOpt, false),
		mk("Opt-Block", hypervisor.ReassignOpt, true),
	}
}

// Fig5Variants returns the flush motivation experiment of Figure 5: cache
// and TLB flushing on core re-assignment (free re-assignment for the
// Flush-* bars) and, for the Harvest-* bars, flushing plus the optimized
// hypervisor re-assignment of Figure 4.
func Fig5Variants() []Options {
	noFlush := SystemOptions(NoHarvest)
	noFlush.Name = "No-Flush"
	noFlush.HarvestVMActive = false
	mk := func(name string, free bool, onBlock bool) Options {
		return Options{
			Name:            name,
			Harvesting:      true,
			HarvestOnBlock:  onBlock,
			SoftwareHarvest: true,
			EventDrivenLend: true,
			Reassign:        hypervisor.ReassignOpt,
			ReassignFree:    free,
			FlushOnSwitch:   true,
			HarvestVMActive: false,
		}
	}
	return []Options{
		noFlush,
		mk("Flush-Term", true, false),
		mk("Flush-Block", true, true),
		mk("Harvest-Term", false, false),
		mk("Harvest-Block", false, true),
	}
}

// Fig12Steps returns the cumulative optimization ladder of Figure 12,
// starting from Harvest-Block and ending at full HardHarvest-Block.
func Fig12Steps() []Options {
	base := SystemOptions(HarvestBlock)
	steps := []Options{base}
	cur := base
	apply := func(name string, f func(*Options)) {
		cur.Name = name
		f(&cur)
		steps = append(steps, cur)
	}
	apply("+Sched", func(o *Options) { o.HWSched = true; o.SoftwareHarvest = false })
	apply("+Queue", func(o *Options) { o.HWQueue = true })
	apply("+CtxtSw", func(o *Options) { o.HWCtxtSw = true })
	apply("+Part", func(o *Options) { o.Partition = true })
	apply("+Flush", func(o *Options) { o.EffFlush = true })
	apply("HardHarvest", func(o *Options) { o.ReplPolicy = true })
	return steps
}

// Fig13Variants returns the ablation of Figure 13: Harvest-Block plus only
// CtxtSw, only Sched, and both.
func Fig13Variants() []Options {
	base := SystemOptions(HarvestBlock)
	ctxt := base
	ctxt.Name = "+CtxtSw"
	ctxt.HWCtxtSw = true
	sched := base
	sched.Name = "+Sched"
	sched.HWSched = true
	sched.SoftwareHarvest = false
	both := sched
	both.Name = "+CtxtSw&Sched"
	both.HWCtxtSw = true
	return []Options{base, ctxt, sched, both}
}

// Fig15Steps returns the cumulative ladder of Figure 15: NoHarvest plus
// +Sched, +Queue, +CtxtSw, +ReplPolicy (no harvesting, so partitioning and
// flushing are not relevant).
func Fig15Steps() []Options {
	cur := SystemOptions(NoHarvest)
	steps := []Options{cur}
	apply := func(name string, f func(*Options)) {
		cur.Name = name
		f(&cur)
		steps = append(steps, cur)
	}
	apply("+Sched", func(o *Options) { o.HWSched = true })
	apply("+Queue", func(o *Options) { o.HWQueue = true })
	apply("+CtxtSw", func(o *Options) { o.HWCtxtSw = true })
	apply("+ReplPolicy", func(o *Options) { o.ReplPolicy = true })
	return steps
}
