// Package graph executes request DAGs across a simulated fleet: requests
// enter a root tier and fan out over inter-tier RPCs (frontend → logic →
// cache/db, DeathStarBench-shaped), with every hop paying a network delay
// and the full NIC/queue/execute pipeline of the server it lands on. The
// end-to-end latency of a request is therefore its critical path through
// the DAG *including queueing at every tier* — the effect single-tier
// models cannot express, and the reason a harvested core in a leaf tier
// shapes the end-to-end tail differently than one in the frontend.
//
// A Spec is the static DAG: tiers (each bound to a slice of fleet servers
// and one Primary-VM service) and calls (downstream RPCs with a
// sequential/parallel mode and a fan-out degree). A Dispatcher is the
// runtime: it owns its own sim.Engine, joins the fleet's sim.ShardGroup,
// admits root requests from open-loop generators, and drives one join
// state machine per request, dispatching child RPCs through
// cluster.AdmitRemote and joining on the replies. The generators, the
// dispatch/reply plumbing and the attempt ledger are the front-door core
// it shares with route.Router (internal/front).
//
// Call semantics (mirrored exactly by ToApp's Monte-Carlo expansion):
// after a tier invocation's own service completes, its calls run in
// stages. Consecutive parallel calls form one stage whose fan-out
// invocations all start together; a sequential call is its own stage whose
// fan-out invocations chain one after another. A stage completes when
// every child *subtree* (the child invocation plus its own calls,
// recursively) completes; the next stage starts then; the invocation
// completes with its last stage. Every invocation pays exactly one
// request hop and one reply hop of NetDelay.
package graph

import (
	"fmt"
	"slices"

	"hardharvest/internal/app"
	"hardharvest/internal/sim"
)

// CallMode selects how a call's fan-out invocations are issued.
type CallMode int

const (
	// Parallel issues all fan-out invocations at once; consecutive
	// parallel calls of one tier share a stage and overlap too.
	Parallel CallMode = iota
	// Sequential issues the fan-out invocations one after another, each
	// starting when the previous child's subtree completes.
	Sequential
)

func (m CallMode) String() string {
	switch m {
	case Parallel:
		return "parallel"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("CallMode(%d)", int(m))
	}
}

// ParseCallMode resolves a mode by its spec-format name.
func ParseCallMode(s string) (CallMode, error) {
	switch s {
	case "parallel":
		return Parallel, nil
	case "sequential":
		return Sequential, nil
	default:
		return 0, fmt.Errorf("unknown call mode %q (want parallel or sequential)", s)
	}
}

// Call is one downstream RPC edge of a tier.
type Call struct {
	// Tier indexes the downstream tier in Spec.Tiers.
	Tier int
	// Mode selects stage membership (see CallMode).
	Mode CallMode
	// Fanout is the number of invocations this call issues (>= 1).
	Fanout int
}

// Tier is one service tier of the DAG.
type Tier struct {
	// Name identifies the tier in metrics, assertions, and diagnostics.
	Name string
	// Group names the fleet group whose servers serve this tier. The
	// binding is resolved by the caller (the scenario layer); the graph
	// package treats it as opaque.
	Group string
	// VM is the Primary-VM index invocations admit to on the tier's
	// servers (the VM's service profile is the tier's service time).
	VM int
	// Calls lists the downstream RPCs issued after the tier's own service
	// completes, in document order.
	Calls []Call
}

// Spec bounds. MaxFanout caps one call's degree; MaxNodes caps the
// expanded invocation tree of a single request (fan-out multiplies down
// the tree, so a small spec can explode — the bound keeps one request's
// bookkeeping, and ToApp's expansion, small and predictable).
const (
	MaxTiers  = 64
	MaxFanout = 64
	MaxNodes  = 512
)

// Spec is one validated request DAG.
type Spec struct {
	// Tiers lists the DAG's tiers; calls reference them by index.
	Tiers []Tier
	// Root indexes the entry tier requests are admitted to.
	Root int
	// NetDelay is the one-way network delay of every RPC hop, and the
	// ShardGroup lookahead of the dispatcher<->server links.
	NetDelay sim.Duration
}

// FieldError is a Spec validation failure positioned by field path
// ("tiers[2].calls[0].tier"), so front ends holding source positions can
// map it back to a file:line diagnostic.
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string { return e.Path + ": " + e.Msg }

func fieldErr(path, format string, args ...any) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the spec's structure: tier and call bounds, dangling
// tier references, call cycles, root reachability, and the expanded
// per-request invocation count. Errors are *FieldError values.
func (s *Spec) Validate() error {
	if len(s.Tiers) == 0 {
		return fieldErr("tiers", "required: define at least one tier")
	}
	if len(s.Tiers) > MaxTiers {
		return fieldErr("tiers", "%d tiers exceeds the maximum %d", len(s.Tiers), MaxTiers)
	}
	if s.NetDelay <= 0 {
		return fieldErr("rpc_delay_us", "must be positive, got %v", s.NetDelay)
	}
	if s.Root < 0 || s.Root >= len(s.Tiers) {
		return fieldErr("root", "tier index %d out of range (%d tiers)", s.Root, len(s.Tiers))
	}
	seen := make(map[string]bool, len(s.Tiers))
	for i := range s.Tiers {
		t := &s.Tiers[i]
		p := fmt.Sprintf("tiers[%d]", i)
		if t.Name == "" {
			return fieldErr(p+".tier", "required (tiers are referenced by name)")
		}
		if seen[t.Name] {
			return fieldErr(p+".tier", "duplicate tier name %q", t.Name)
		}
		seen[t.Name] = true
		if t.VM < 0 {
			return fieldErr(p+".vm", "must be non-negative, got %d", t.VM)
		}
		for j, c := range t.Calls {
			cp := fmt.Sprintf("%s.calls[%d]", p, j)
			if c.Tier < 0 || c.Tier >= len(s.Tiers) {
				return fieldErr(cp+".tier", "tier index %d out of range (%d tiers)", c.Tier, len(s.Tiers))
			}
			if c.Fanout < 1 || c.Fanout > MaxFanout {
				return fieldErr(cp+".fanout", "must be in [1, %d], got %d", MaxFanout, c.Fanout)
			}
			if c.Mode != Parallel && c.Mode != Sequential {
				return fieldErr(cp+".mode", "unknown call mode %d", int(c.Mode))
			}
		}
	}
	if err := s.checkCycles(); err != nil {
		return err
	}
	// Reachability and expansion run on a cycle-free graph.
	reach := make([]bool, len(s.Tiers))
	s.mark(s.Root, reach)
	for i := range s.Tiers {
		if !reach[i] {
			return fieldErr(fmt.Sprintf("tiers[%d].tier", i),
				"tier %q is unreachable from root tier %q", s.Tiers[i].Name, s.Tiers[s.Root].Name)
		}
	}
	sizes := make([]int, len(s.Tiers))
	if n := s.nodes(s.Root, sizes); n > MaxNodes {
		return fieldErr("tiers", "one request expands to %d tier invocations (max %d); reduce fan-out or depth", n, MaxNodes)
	}
	return nil
}

// checkCycles rejects call cycles with the cycle's tier names in the
// error, positioned at the closing back-edge.
func (s *Spec) checkCycles() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(s.Tiers))
	var stack []int
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = grey
		stack = append(stack, i)
		for j, c := range s.Tiers[i].Calls {
			switch color[c.Tier] {
			case grey:
				names := ""
				for k := len(stack) - 1; k >= 0; k-- {
					names = s.Tiers[stack[k]].Name + " -> " + names
					if stack[k] == c.Tier {
						break
					}
				}
				return fieldErr(fmt.Sprintf("tiers[%d].calls[%d].tier", i, j),
					"call cycle: %s%s", names, s.Tiers[c.Tier].Name)
			case white:
				if err := visit(c.Tier); err != nil {
					return err
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[i] = black
		return nil
	}
	for i := range s.Tiers {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Spec) mark(i int, reach []bool) {
	if reach[i] {
		return
	}
	reach[i] = true
	for _, c := range s.Tiers[i].Calls {
		s.mark(c.Tier, reach)
	}
}

// nodes memoizes the expanded invocation-subtree size of a tier.
func (s *Spec) nodes(i int, sizes []int) int {
	if sizes[i] != 0 {
		return sizes[i]
	}
	n := 1
	for _, c := range s.Tiers[i].Calls {
		n += c.Fanout * s.nodes(c.Tier, sizes)
		if n > MaxNodes {
			break // avoid overflow on adversarial fan-out towers
		}
	}
	sizes[i] = n
	return n
}

// Nodes reports the expanded invocation-tree size of one request (the
// spec must be valid).
func (s *Spec) Nodes() int {
	return s.nodes(s.Root, make([]int, len(s.Tiers)))
}

// Groups returns the fleet groups the tiers bind to, in first-appearance
// order; tiers in the same group share its servers.
func (s *Spec) Groups() []string {
	var groups []string
	for i := range s.Tiers {
		if !slices.Contains(groups, s.Tiers[i].Group) {
			groups = append(groups, s.Tiers[i].Group)
		}
	}
	return groups
}

// TierServers maps each tier to the fleet servers of its group, in fleet
// order: groups[i] names server i's group. The result is New's tiers
// argument.
func (s *Spec) TierServers(groups []string) [][]int {
	tiers := make([][]int, len(s.Tiers))
	for ti := range s.Tiers {
		for i, g := range groups {
			if g == s.Tiers[ti].Group {
				tiers[ti] = append(tiers[ti], i)
			}
		}
	}
	return tiers
}

// TierByName resolves a tier index by name (-1 when absent).
func (s *Spec) TierByName(name string) int {
	for i := range s.Tiers {
		if s.Tiers[i].Name == name {
			return i
		}
	}
	return -1
}

// stage is the runtime/composition view of a tier's calls: consecutive
// parallel calls merge into one stage, each sequential call stands alone.
type stage struct {
	par []Call // parallel members (nil for a sequential stage)
	seq Call   // the sequential call when par is nil
}

// stages partitions a tier's calls (see package comment for semantics).
func stagesOf(t *Tier) []stage {
	var out []stage
	for _, c := range t.Calls {
		if c.Mode == Sequential {
			out = append(out, stage{seq: c})
			continue
		}
		if n := len(out); n > 0 && out[n-1].par != nil {
			out[n-1].par = append(out[n-1].par, c)
			continue
		}
		out = append(out, stage{par: []Call{c}})
	}
	return out
}

// ToApp expands the spec into an internal/app DAG over the *per-request
// invocation tree*: one app stage per expanded tier invocation, with
// dependency edges encoding exactly the stage semantics above (a stage's
// children depend on every node of the previous stage's subtrees, so
// "start after the subtree completes" falls out of app's max-over-deps
// rule). Sampling each stage's latency from the tier's measured hop
// distribution then composes end-to-end latency the same way the live
// dispatcher joins it — the Monte-Carlo cross-check used by
// internal/validate in the no-queueing limit.
func (s *Spec) ToApp(name string) *app.App {
	a := &app.App{Name: name}
	// expand appends the invocation tree of tier i whose own hop starts
	// after deps, returning every appended node (the subtree).
	var expand func(i int, deps []int) []int
	expand = func(i int, deps []int) []int {
		t := &s.Tiers[i]
		self := len(a.Stages)
		a.Stages = append(a.Stages, app.Stage{Service: t.Name, Deps: append([]int(nil), deps...)})
		subtree := []int{self}
		prev := []int{self} // completion frontier gating the next stage
		for _, st := range stagesOf(t) {
			var stageNodes []int
			if st.par != nil {
				for _, c := range st.par {
					for k := 0; k < c.Fanout; k++ {
						stageNodes = append(stageNodes, expand(c.Tier, prev)...)
					}
				}
			} else {
				chain := prev
				for k := 0; k < st.seq.Fanout; k++ {
					child := expand(st.seq.Tier, chain)
					chain = child
					stageNodes = append(stageNodes, child...)
				}
				// The stage completes with the last child's subtree; earlier
				// children are already complete by then, but keeping every
				// node in the frontier is equivalent under max-over-deps.
			}
			subtree = append(subtree, stageNodes...)
			prev = stageNodes
		}
		return subtree
	}
	expand(s.Root, nil)
	return a
}

// SocialNet returns the DeathStarBench-shaped reference DAG used by
// `hhsim serve -graph` and the harvest-sensitivity sweep: a frontend
// calls a logic tier twice in parallel, and each logic invocation fans
// out to a cache and a database tier in parallel.
func SocialNet(netDelay sim.Duration) *Spec {
	return &Spec{
		NetDelay: netDelay,
		Root:     0,
		Tiers: []Tier{
			{Name: "frontend", Group: "frontend", VM: 0,
				Calls: []Call{{Tier: 1, Mode: Parallel, Fanout: 2}}},
			{Name: "logic", Group: "logic", VM: 0,
				Calls: []Call{{Tier: 2, Mode: Parallel, Fanout: 1}, {Tier: 3, Mode: Parallel, Fanout: 1}}},
			{Name: "cache", Group: "leaf", VM: 0},
			{Name: "db", Group: "leaf", VM: 1},
		},
	}
}
