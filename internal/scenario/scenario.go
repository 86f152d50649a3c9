package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/route"
	"hardharvest/internal/sim"
	"hardharvest/internal/workload"
)

// Scenario is one parsed, semantically validated scenario document.
type Scenario struct {
	Name        string
	Description string
	Seed        uint64

	// Window shape: warmup + measurement in simulated milliseconds, and
	// the barrier cadence control actions are quantized to.
	WarmupMS   int
	DurationMS int
	StepMS     int

	Fleet      []Group
	Routing    *Routing    // nil = routerless (each server generates its own arrivals)
	Graph      *GraphBlock // nil = no request DAG (mutually exclusive with Routing)
	Workload   []TimelineEntry
	Events     []EventEntry
	Assertions []Assertion

	// PerturbFleet corrupts the router's request ledger after the run
	// (Generated is incremented by one), proving the fleet-conservation
	// oracle can actually fail. Not part of the document format — it is set
	// by `hhsim run -perturb fleet-conservation` and tests only.
	PerturbFleet bool

	// PerturbGraphMC corrupts one tier's measured hop sketch after a graph
	// run, proving the Monte-Carlo cross-check (graph_mc) can actually
	// fail. Set by `hhsim run -perturb graph-mc` and tests only.
	PerturbGraphMC bool

	// Strict makes every server's always-on invariant checker panic on the
	// first violation with replay context instead of counting it. Not part
	// of the document format — set by `hhsim run -strict` (the chaos-smoke
	// CI soak) and tests.
	Strict bool

	baseDir string // resolves plan_file references
}

// Routing is the scenario's fleet-front-door block. When present, the
// workload is admitted at a router (internal/route) and dispatched to the
// fleet over fixed-delay network edges; timeline entries then reconfigure
// the router's generators instead of each server's. Unset fields take the
// route.DefaultConfig values.
type Routing struct {
	Policy          string  // round_robin | least_outstanding | weighted
	NetworkDelayUS  float64 // per-edge network delay (microseconds)
	ProbeIntervalMS float64 // health-check cadence (milliseconds)
	UnhealthyAfter  int     // consecutive probe failures before unhealthy
	HealthyAfter    int     // consecutive probe successes before healthy
	EjectAfter      int     // consecutive sheds tripping the breaker (0 = off)
	EjectBackoffMS  float64 // first re-admission backoff (milliseconds)
	MaxFailovers    int     // per-request failover budget

	line int
	n    *node
}

// fieldLine reports the source line a routing field appeared on.
func (r *Routing) fieldLine(name string) int {
	if r.n != nil {
		if l, ok := r.n.keyLines[name]; ok {
			return l
		}
	}
	return r.line
}

// defaultRouting mirrors route.DefaultConfig in scenario units.
func defaultRouting() Routing {
	d := route.DefaultConfig()
	return Routing{
		Policy:          d.Policy.String(),
		NetworkDelayUS:  float64(d.NetDelay) / float64(sim.Microsecond),
		ProbeIntervalMS: float64(d.ProbeInterval) / float64(sim.Millisecond),
		UnhealthyAfter:  d.UnhealthyAfter,
		HealthyAfter:    d.HealthyAfter,
		EjectAfter:      d.EjectAfter,
		EjectBackoffMS:  float64(d.EjectBackoff) / float64(sim.Millisecond),
		MaxFailovers:    d.MaxFailovers,
	}
}

// toConfig converts the block to a route.Config. Callers run it only after
// validation, so the conversion cannot fail there.
func (r *Routing) toConfig() (route.Config, error) {
	pol, err := route.ParsePolicy(r.Policy)
	if err != nil {
		return route.Config{}, err
	}
	return route.Config{
		Policy:         pol,
		NetDelay:       sim.Duration(r.NetworkDelayUS * float64(sim.Microsecond)),
		ProbeInterval:  sim.Duration(r.ProbeIntervalMS * float64(sim.Millisecond)),
		UnhealthyAfter: r.UnhealthyAfter,
		HealthyAfter:   r.HealthyAfter,
		EjectAfter:     r.EjectAfter,
		EjectBackoff:   sim.Duration(r.EjectBackoffMS * float64(sim.Millisecond)),
		MaxFailovers:   r.MaxFailovers,
	}, nil
}

// Group is one homogeneous slice of the fleet.
type Group struct {
	Name     string
	Count    int
	System   string // cluster.SystemKind name (the harvest policy)
	Workload string // batch workload run by each server's Harvest VM

	// Server shape; zero values take the Table 1 defaults (36/8/4/4).
	Cores           int
	PrimaryVMs      int
	CoresPerPrimary int
	HarvestCores    int

	// Generation names a hardware generation from the generation table;
	// ExecFactor sets the CPU-speed factor directly. Exactly one may be
	// set; both zero means factor 1.0 (the Table 1 baseline).
	Generation string
	ExecFactor float64

	// LoadScale overrides the group's offered-load multiplier (0 = the
	// Table 1 default).
	LoadScale float64

	line int
	n    *node // retained for exact field-line diagnostics in validate
}

// fieldLine reports the source line a group field appeared on (the group's
// own line when the field was defaulted).
func (g *Group) fieldLine(name string) int {
	if g.n != nil {
		if l, ok := g.n.keyLines[name]; ok {
			return l
		}
	}
	return g.line
}

// generations maps hardware-generation names to CPU-burst execution-time
// factors relative to the Table 1 baseline: older generations run the same
// work slower, newer ones faster. Heterogeneous fleets mix them.
var generations = map[string]float64{
	"gen1": 1.15,
	"gen2": 1.00,
	"gen3": 0.88,
}

// generationNames lists the valid generation names, sorted, for messages.
func generationNames() string {
	names := make([]string, 0, len(generations))
	for n := range generations {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// effExecFactor reports the group's CPU-speed factor.
func (g *Group) effExecFactor() float64 {
	if g.Generation != "" {
		return generations[g.Generation]
	}
	if g.ExecFactor > 0 {
		return g.ExecFactor
	}
	return 1.0
}

// Timeline entry kinds (the workload section).
const (
	TlIntensity   = "intensity"    // set the offered-load multiplier
	TlFlashCrowd  = "flash_crowd"  // multiply the baseline for a window
	TlVMIntensity = "vm_intensity" // profile switch: scale one Primary VM
)

// TimelineEntry is one workload-timeline step.
type TimelineEntry struct {
	AtMS       float64
	Kind       string
	Intensity  float64 // intensity, vm_intensity
	Factor     float64 // flash_crowd
	DurationMS float64 // flash_crowd
	VM         int     // vm_intensity
	Target     Target

	line   int
	atLine int
}

// Event kinds (the events section).
const (
	EvFaults         = "faults"           // inject a fault plan
	EvResilience     = "resilience"       // toggle timeout/retry/hedge/shed
	EvHarvestOnBlock = "harvest_on_block" // toggle harvest-on-block
	EvDrain          = "drain"            // graceful drain (requires routing)
)

// EventEntry is one scripted control event.
type EventEntry struct {
	AtMS       float64
	Kind       string
	On         bool         // resilience, harvest_on_block
	Plan       *faults.Plan // faults: inline plan
	PlanFile   string       // faults: JSON plan file (relative to the scenario)
	DeadlineMS float64      // drain: in-flight completion deadline
	Target     Target

	line   int
	atLine int
}

// Target selects the servers an entry applies to: a fleet group by name, a
// single server by fleet index, or (neither set) every server.
type Target struct {
	Group  string
	Server int // fleet index; -1 = unset
	line   int
}

// All reports whether the target selects the whole fleet.
func (t Target) All() bool { return t.Group == "" && t.Server < 0 }

func (t Target) String() string {
	switch {
	case t.Group != "":
		return "group " + t.Group
	case t.Server >= 0:
		return "server " + strconv.Itoa(t.Server)
	default:
		return "all"
	}
}

// Assertion is one end-of-run check. Numeric metrics need at least one
// bound; oracle check metrics (flow_balance, littles_law, graph_mc) take
// none. Tier metrics (tier_*) select a DAG tier by name instead of a
// group/server target.
type Assertion struct {
	Metric string
	Min    *float64
	Max    *float64
	Target Target
	Tier   string // tier_* metrics: the DAG tier evaluated (graph mode)

	line       int
	metricLine int
	tierLine   int
}

// errAt builds a positioned decode/validation error. The "line N:" prefix
// is rewritten to "file:N:" by Load, so every diagnostic reaches the user
// as "scenario.yaml:12: events[0].kind: ...".
func errAt(line int, path, format string, args ...any) error {
	return fmt.Errorf("line %d: %s: %s", line, path, fmt.Sprintf(format, args...))
}

// prefixFile rewrites an internal "line N: ..." error into "file:N: ...".
func prefixFile(path string, err error) error {
	s := err.Error()
	if rest, ok := strings.CutPrefix(s, "line "); ok {
		return fmt.Errorf("%s:%s", path, rest)
	}
	return fmt.Errorf("%s: %s", path, s)
}

// Load reads, parses, and semantically validates a scenario file. Files
// ending in .json parse as JSON; everything else as the YAML subset.
// Returned errors are positioned: "path:line: field: message".
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Parse(data, strings.EqualFold(filepath.Ext(path), ".json"), filepath.Dir(path))
	if err != nil {
		return nil, prefixFile(path, err)
	}
	return sc, nil
}

// Parse decodes and validates a scenario document. asJSON selects the
// front end; baseDir resolves plan_file references (empty = CWD).
func Parse(data []byte, asJSON bool, baseDir string) (*Scenario, error) {
	var root *node
	var err error
	if asJSON {
		root, err = parseJSONTree(data)
	} else {
		root, err = parseYAMLTree(data)
	}
	if err != nil {
		return nil, err
	}
	sc := &Scenario{baseDir: baseDir}
	if err := sc.decode(root); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// ---- generic decode helpers ----

func wantKind(n *node, path string, k nodeKind) error {
	if n.kind != k {
		return errAt(n.line, path, "want a %s, got a %s", k, n.kind)
	}
	return nil
}

func decStr(n *node, path string) (string, error) {
	if n.kind != nScalar {
		return "", errAt(n.line, path, "want a string, got a %s", n.kind)
	}
	return n.scalar, nil
}

func decF64(n *node, path string) (float64, error) {
	if n.kind != nScalar || n.quoted {
		return 0, errAt(n.line, path, "want a number, got a %s", describeScalar(n))
	}
	v, err := strconv.ParseFloat(n.scalar, 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, errAt(n.line, path, "want a number, got %q", n.scalar)
	}
	return v, nil
}

func decInt(n *node, path string) (int, error) {
	if n.kind != nScalar || n.quoted {
		return 0, errAt(n.line, path, "want an integer, got a %s", describeScalar(n))
	}
	v, err := strconv.Atoi(n.scalar)
	if err != nil {
		return 0, errAt(n.line, path, "want an integer, got %q", n.scalar)
	}
	return v, nil
}

func decU64(n *node, path string) (uint64, error) {
	if n.kind != nScalar || n.quoted {
		return 0, errAt(n.line, path, "want a non-negative integer, got a %s", describeScalar(n))
	}
	v, err := strconv.ParseUint(n.scalar, 10, 64)
	if err != nil {
		return 0, errAt(n.line, path, "want a non-negative integer, got %q", n.scalar)
	}
	return v, nil
}

func decBool(n *node, path string) (bool, error) {
	if n.kind == nScalar && !n.quoted {
		switch n.scalar {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
	}
	return false, errAt(n.line, path, "want true or false, got a %s", describeScalar(n))
}

func describeScalar(n *node) string {
	if n.kind != nScalar {
		return n.kind.String()
	}
	if n.quoted {
		return fmt.Sprintf("string %q", n.scalar)
	}
	if n.scalar == "" {
		return "null"
	}
	return fmt.Sprintf("scalar %q", n.scalar)
}

// fieldSet drives one object's decode: document-order iteration with
// unknown-field rejection naming the valid fields.
type fieldSet map[string]func(v *node, path string) error

func decodeObj(n *node, path string, fields fieldSet) error {
	if err := wantKind(n, path, nMap); err != nil {
		return err
	}
	for _, k := range n.keys {
		kp := path + "." + k
		if path == "" {
			kp = k
		}
		fn, ok := fields[k]
		if !ok {
			names := make([]string, 0, len(fields))
			for f := range fields {
				names = append(names, f)
			}
			sort.Strings(names)
			return errAt(n.keyLine(k), kp, "unknown field (want one of %s)", strings.Join(names, ", "))
		}
		if err := fn(n.children[k], kp); err != nil {
			return err
		}
	}
	return nil
}

func decodeList(n *node, path string, item func(v *node, path string, i int) error) error {
	if err := wantKind(n, path, nList); err != nil {
		return err
	}
	for i, it := range n.items {
		if err := item(it, fmt.Sprintf("%s[%d]", path, i), i); err != nil {
			return err
		}
	}
	return nil
}

// ---- scenario decode ----

func (sc *Scenario) decode(root *node) error {
	sc.StepMS = 10
	sc.Seed = 1
	return decodeObj(root, "", fieldSet{
		"name":        func(v *node, p string) (err error) { sc.Name, err = decStr(v, p); return },
		"description": func(v *node, p string) (err error) { sc.Description, err = decStr(v, p); return },
		"seed":        func(v *node, p string) (err error) { sc.Seed, err = decU64(v, p); return },
		"warmup_ms":   func(v *node, p string) (err error) { sc.WarmupMS, err = decInt(v, p); return },
		"duration_ms": func(v *node, p string) (err error) { sc.DurationMS, err = decInt(v, p); return },
		"step_ms":     func(v *node, p string) (err error) { sc.StepMS, err = decInt(v, p); return },
		"fleet": func(v *node, p string) error {
			return decodeList(v, p, sc.decodeGroup)
		},
		"routing": func(v *node, p string) error {
			return sc.decodeRouting(v, p)
		},
		"graph": func(v *node, p string) error {
			return sc.decodeGraph(v, p)
		},
		"workload": func(v *node, p string) error {
			return decodeList(v, p, sc.decodeTimeline)
		},
		"events": func(v *node, p string) error {
			return decodeList(v, p, sc.decodeEvent)
		},
		"assertions": func(v *node, p string) error {
			return decodeList(v, p, sc.decodeAssertion)
		},
	})
}

func (sc *Scenario) decodeGroup(v *node, path string, _ int) error {
	g := Group{line: v.line, n: v, Count: 1}
	def := cluster.DefaultConfig()
	g.Cores = def.CoresPerServer
	g.PrimaryVMs = def.PrimaryVMs
	g.CoresPerPrimary = def.CoresPerPrimary
	g.HarvestCores = def.HarvestOwnCores
	g.System = cluster.HardHarvestBlock.String()
	g.Workload = "BFS"
	err := decodeObj(v, path, fieldSet{
		"group":             func(v *node, p string) (err error) { g.Name, err = decStr(v, p); return },
		"count":             func(v *node, p string) (err error) { g.Count, err = decInt(v, p); return },
		"system":            func(v *node, p string) (err error) { g.System, err = decStr(v, p); return },
		"workload":          func(v *node, p string) (err error) { g.Workload, err = decStr(v, p); return },
		"cores":             func(v *node, p string) (err error) { g.Cores, err = decInt(v, p); return },
		"primary_vms":       func(v *node, p string) (err error) { g.PrimaryVMs, err = decInt(v, p); return },
		"cores_per_primary": func(v *node, p string) (err error) { g.CoresPerPrimary, err = decInt(v, p); return },
		"harvest_cores":     func(v *node, p string) (err error) { g.HarvestCores, err = decInt(v, p); return },
		"generation":        func(v *node, p string) (err error) { g.Generation, err = decStr(v, p); return },
		"exec_factor":       func(v *node, p string) (err error) { g.ExecFactor, err = decF64(v, p); return },
		"load_scale":        func(v *node, p string) (err error) { g.LoadScale, err = decF64(v, p); return },
	})
	if err != nil {
		return err
	}
	sc.Fleet = append(sc.Fleet, g)
	return nil
}

func (sc *Scenario) decodeRouting(v *node, path string) error {
	r := defaultRouting()
	r.line, r.n = v.line, v
	err := decodeObj(v, path, fieldSet{
		"policy":            func(v *node, p string) (err error) { r.Policy, err = decStr(v, p); return },
		"network_delay_us":  func(v *node, p string) (err error) { r.NetworkDelayUS, err = decF64(v, p); return },
		"probe_interval_ms": func(v *node, p string) (err error) { r.ProbeIntervalMS, err = decF64(v, p); return },
		"unhealthy_after":   func(v *node, p string) (err error) { r.UnhealthyAfter, err = decInt(v, p); return },
		"healthy_after":     func(v *node, p string) (err error) { r.HealthyAfter, err = decInt(v, p); return },
		"eject_after":       func(v *node, p string) (err error) { r.EjectAfter, err = decInt(v, p); return },
		"eject_backoff_ms":  func(v *node, p string) (err error) { r.EjectBackoffMS, err = decF64(v, p); return },
		"max_failovers":     func(v *node, p string) (err error) { r.MaxFailovers, err = decInt(v, p); return },
	})
	if err != nil {
		return err
	}
	sc.Routing = &r
	return nil
}

// decodeTarget installs the shared group/server selector fields into a
// fieldSet.
func decodeTarget(t *Target, fields fieldSet) fieldSet {
	t.Server = -1
	fields["group"] = func(v *node, p string) (err error) {
		t.line = v.line
		t.Group, err = decStr(v, p)
		return
	}
	fields["server"] = func(v *node, p string) (err error) {
		t.line = v.line
		t.Server, err = decInt(v, p)
		return
	}
	return fields
}

func (sc *Scenario) decodeTimeline(v *node, path string, _ int) error {
	e := TimelineEntry{line: v.line, atLine: v.line}
	err := decodeObj(v, path, decodeTarget(&e.Target, fieldSet{
		"at_ms": func(v *node, p string) (err error) {
			e.atLine = v.line
			e.AtMS, err = decF64(v, p)
			return
		},
		"kind":        func(v *node, p string) (err error) { e.Kind, err = decStr(v, p); return },
		"intensity":   func(v *node, p string) (err error) { e.Intensity, err = decF64(v, p); return },
		"factor":      func(v *node, p string) (err error) { e.Factor, err = decF64(v, p); return },
		"duration_ms": func(v *node, p string) (err error) { e.DurationMS, err = decF64(v, p); return },
		"vm":          func(v *node, p string) (err error) { e.VM, err = decInt(v, p); return },
	}))
	if err != nil {
		return err
	}
	sc.Workload = append(sc.Workload, e)
	return nil
}

func (sc *Scenario) decodeEvent(v *node, path string, _ int) error {
	e := EventEntry{line: v.line, atLine: v.line}
	err := decodeObj(v, path, decodeTarget(&e.Target, fieldSet{
		"at_ms": func(v *node, p string) (err error) {
			e.atLine = v.line
			e.AtMS, err = decF64(v, p)
			return
		},
		"kind": func(v *node, p string) (err error) { e.Kind, err = decStr(v, p); return },
		"on":   func(v *node, p string) (err error) { e.On, err = decBool(v, p); return },
		"plan": func(v *node, p string) error {
			plan, err := decodePlan(v, p)
			if err != nil {
				return err
			}
			e.Plan = plan
			return nil
		},
		"plan_file":   func(v *node, p string) (err error) { e.PlanFile, err = decStr(v, p); return },
		"deadline_ms": func(v *node, p string) (err error) { e.DeadlineMS, err = decF64(v, p); return },
	}))
	if err != nil {
		return err
	}
	sc.Events = append(sc.Events, e)
	return nil
}

// decodePlan converts an inline plan node back to JSON and funnels it
// through faults.Parse, so plan validation (field paths, rate bounds,
// scripted-event checks) lives in exactly one place.
func decodePlan(v *node, path string) (*faults.Plan, error) {
	if err := wantKind(v, path, nMap); err != nil {
		return nil, err
	}
	data, err := json.Marshal(v.toAny())
	if err != nil {
		return nil, errAt(v.line, path, "%v", err)
	}
	plan, err := faults.Parse(data)
	if err != nil {
		return nil, errAt(v.line, path, "%v", err)
	}
	return plan, nil
}

func (sc *Scenario) decodeAssertion(v *node, path string, _ int) error {
	a := Assertion{line: v.line, metricLine: v.line}
	err := decodeObj(v, path, decodeTarget(&a.Target, fieldSet{
		"metric": func(v *node, p string) (err error) {
			a.metricLine = v.line
			a.Metric, err = decStr(v, p)
			return
		},
		"min": func(v *node, p string) error {
			f, err := decF64(v, p)
			if err != nil {
				return err
			}
			a.Min = &f
			return nil
		},
		"max": func(v *node, p string) error {
			f, err := decF64(v, p)
			if err != nil {
				return err
			}
			a.Max = &f
			return nil
		},
		"tier": func(v *node, p string) (err error) {
			a.tierLine = v.line
			a.Tier, err = decStr(v, p)
			return
		},
	}))
	if err != nil {
		return err
	}
	sc.Assertions = append(sc.Assertions, a)
	return nil
}

// ---- semantic validation ----

// maxFleetServers bounds fleet expansion so a malformed count cannot
// allocate an unbounded simulation. Thousand-server fleets are in scope:
// the sharded runner advances servers in parallel and their latency
// recorders run in bounded sketch mode, so memory stays flat per server.
const maxFleetServers = 4096

// Servers reports the expanded fleet size.
func (sc *Scenario) Servers() int {
	n := 0
	for i := range sc.Fleet {
		n += sc.Fleet[i].Count
	}
	return n
}

func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return errAt(1, "name", "required (a scenario must be named)")
	}
	if sc.DurationMS <= 0 {
		return errAt(1, "duration_ms", "required and must be positive, got %d", sc.DurationMS)
	}
	if sc.WarmupMS < 0 {
		return errAt(1, "warmup_ms", "must be non-negative, got %d", sc.WarmupMS)
	}
	if sc.StepMS <= 0 {
		return errAt(1, "step_ms", "must be positive, got %d", sc.StepMS)
	}
	if sc.StepMS > sc.DurationMS {
		return errAt(1, "step_ms", "barrier step %dms exceeds duration_ms %d", sc.StepMS, sc.DurationMS)
	}
	if len(sc.Fleet) == 0 {
		return errAt(1, "fleet", "required: define at least one server group")
	}
	seen := map[string]bool{}
	for i := range sc.Fleet {
		if err := sc.validateGroup(&sc.Fleet[i], fmt.Sprintf("fleet[%d]", i), seen); err != nil {
			return err
		}
	}
	if n := sc.Servers(); n > maxFleetServers {
		return errAt(sc.Fleet[0].line, "fleet", "expands to %d servers (max %d)", n, maxFleetServers)
	}
	if err := sc.validateRouting(); err != nil {
		return err
	}
	if err := sc.validateGraph(); err != nil {
		return err
	}
	for i := range sc.Workload {
		if err := sc.validateTimeline(&sc.Workload[i], fmt.Sprintf("workload[%d]", i)); err != nil {
			return err
		}
	}
	for i := range sc.Events {
		if err := sc.validateEvent(&sc.Events[i], fmt.Sprintf("events[%d]", i)); err != nil {
			return err
		}
	}
	for i := range sc.Assertions {
		if err := sc.validateAssertion(&sc.Assertions[i], fmt.Sprintf("assertions[%d]", i)); err != nil {
			return err
		}
	}
	return nil
}

func (sc *Scenario) validateGroup(g *Group, path string, seen map[string]bool) error {
	if g.Name == "" {
		return errAt(g.line, path+".group", "required (groups are targeted by name)")
	}
	if seen[g.Name] {
		return errAt(g.line, path+".group", "duplicate group name %q", g.Name)
	}
	seen[g.Name] = true
	if g.Count < 1 {
		return errAt(g.line, path+".count", "must be >= 1, got %d", g.Count)
	}
	if _, err := cluster.ParseSystem(g.System); err != nil {
		return errAt(g.fieldLine("system"), path+".system", "%v", err)
	}
	if _, err := batch.WorkloadByName(g.Workload); err != nil {
		return errAt(g.fieldLine("workload"), path+".workload", "%v", err)
	}
	if g.Cores < 1 || g.PrimaryVMs < 1 || g.CoresPerPrimary < 1 || g.HarvestCores < 0 {
		return errAt(g.line, path, "server shape fields must be positive "+
			"(cores=%d primary_vms=%d cores_per_primary=%d harvest_cores=%d)",
			g.Cores, g.PrimaryVMs, g.CoresPerPrimary, g.HarvestCores)
	}
	if need := g.PrimaryVMs*g.CoresPerPrimary + g.HarvestCores; need > g.Cores {
		return errAt(g.fieldLine("cores"), path+".cores", "%d primary_vms x %d cores + %d harvest cores = %d exceeds cores=%d",
			g.PrimaryVMs, g.CoresPerPrimary, g.HarvestCores, need, g.Cores)
	}
	if g.Generation != "" {
		if _, ok := generations[g.Generation]; !ok {
			return errAt(g.fieldLine("generation"), path+".generation", "unknown generation %q (want one of %s)",
				g.Generation, generationNames())
		}
		if g.ExecFactor != 0 {
			return errAt(g.line, path+".exec_factor", "generation and exec_factor are mutually exclusive")
		}
	}
	if g.ExecFactor < 0 || g.ExecFactor > 10 {
		return errAt(g.line, path+".exec_factor", "must be in (0, 10], got %g", g.ExecFactor)
	}
	if g.LoadScale < 0 {
		return errAt(g.line, path+".load_scale", "must be positive, got %g", g.LoadScale)
	}
	return nil
}

// validateRouting checks the routing block and its fleet preconditions:
// the front door replicates one generator set per (server, primary VM), so
// every group must agree on primary_vms.
func (sc *Scenario) validateRouting() error {
	r := sc.Routing
	if r == nil {
		return nil
	}
	if _, err := route.ParsePolicy(r.Policy); err != nil {
		return errAt(r.fieldLine("policy"), "routing.policy", "%v", err)
	}
	cfg, _ := r.toConfig()
	if err := cfg.Validate(); err != nil {
		// route.Config errors already lead with the routing.<field> path.
		return fmt.Errorf("line %d: %v", r.line, err)
	}
	want := sc.Fleet[0].PrimaryVMs
	for i := range sc.Fleet {
		if g := &sc.Fleet[i]; g.PrimaryVMs != want {
			return errAt(g.fieldLine("primary_vms"), fmt.Sprintf("fleet[%d].primary_vms", i),
				"routing requires a uniform primary_vms across groups (group %q has %d, group %q has %d)",
				g.Name, g.PrimaryVMs, sc.Fleet[0].Name, want)
		}
	}
	return nil
}

// lastBarrierMS is the latest barrier a control action may land on: the
// run's final in-window barrier. An at_ms that quantizes past it could
// never take effect, so it is rejected at validation time rather than
// silently dropped at run time.
func (sc *Scenario) lastBarrierMS() float64 {
	return float64(sc.WarmupMS + sc.DurationMS - sc.StepMS)
}

// checkAt validates a timestamp and reports the barrier it lands on.
func (sc *Scenario) checkAt(atMS float64, line int, path string) error {
	if atMS < 0 || math.IsNaN(atMS) {
		return errAt(line, path, "must be non-negative, got %g", atMS)
	}
	step := float64(sc.StepMS)
	barrier := math.Ceil(atMS/step) * step
	if barrier > sc.lastBarrierMS() {
		return errAt(line, path, "%gms lands on barrier %gms, past the last in-run barrier "+
			"(warmup_ms+duration_ms-step_ms = %gms)", atMS, barrier, sc.lastBarrierMS())
	}
	return nil
}

func (sc *Scenario) validateTarget(t *Target, path string) error {
	if t.Group != "" && t.Server >= 0 {
		return errAt(t.line, path, "group and server are mutually exclusive")
	}
	if t.Group != "" {
		for i := range sc.Fleet {
			if sc.Fleet[i].Name == t.Group {
				return nil
			}
		}
		return errAt(t.line, path+".group", "unknown fleet group %q", t.Group)
	}
	if t.Server >= sc.Servers() {
		return errAt(t.line, path+".server", "server %d out of range (fleet has %d servers)",
			t.Server, sc.Servers())
	}
	return nil
}

// targetedGroups yields the fleet groups a target selects.
func (sc *Scenario) targetedGroups(t Target) []*Group {
	var out []*Group
	idx := 0
	for i := range sc.Fleet {
		g := &sc.Fleet[i]
		switch {
		case t.Group != "":
			if g.Name == t.Group {
				out = append(out, g)
			}
		case t.Server >= 0:
			if t.Server >= idx && t.Server < idx+g.Count {
				out = append(out, g)
			}
		default:
			out = append(out, g)
		}
		idx += g.Count
	}
	return out
}

func (sc *Scenario) validateTimeline(e *TimelineEntry, path string) error {
	if err := sc.checkAt(e.AtMS, e.atLine, path+".at_ms"); err != nil {
		return err
	}
	if err := sc.validateTarget(&e.Target, path); err != nil {
		return err
	}
	// In graph mode the dispatcher owns the generators, replicated only
	// for the root tier's servers: an entry that selects no root-tier
	// server could never take effect, and per-VM switches have no meaning
	// (the DAG pins each tier to one VM).
	if sc.Graph != nil && sc.Graph.spec != nil {
		if e.Kind == TlVMIntensity {
			return errAt(e.line, path+".kind", "%s does not apply in graph mode (each tier is pinned to one VM)", TlVMIntensity)
		}
		hit := false
		for _, g := range sc.targetedGroups(e.Target) {
			if g.Name == sc.rootGroup() {
				hit = true
			}
		}
		if !hit {
			return errAt(e.line, path, "selects no root-tier server (graph workload applies to root group %q generators)",
				sc.rootGroup())
		}
	}
	switch e.Kind {
	case TlIntensity:
		if err := workload.CheckIntensity(e.Intensity); err != nil {
			return errAt(e.line, path+".intensity", "%v", err)
		}
		if e.Factor != 0 || e.DurationMS != 0 {
			return errAt(e.line, path, "factor/duration_ms only apply to kind %q", TlFlashCrowd)
		}
	case TlFlashCrowd:
		if e.Factor <= 0 {
			return errAt(e.line, path+".factor", "must be positive, got %g", e.Factor)
		}
		if e.DurationMS <= 0 {
			return errAt(e.line, path+".duration_ms", "must be positive, got %g", e.DurationMS)
		}
		if e.Intensity != 0 {
			return errAt(e.line, path, "intensity only applies to kinds %q and %q", TlIntensity, TlVMIntensity)
		}
		if err := sc.checkAt(e.AtMS+e.DurationMS, e.atLine, path+".duration_ms"); err != nil {
			return err
		}
	case TlVMIntensity:
		if err := workload.CheckIntensity(e.Intensity); err != nil {
			return errAt(e.line, path+".intensity", "%v", err)
		}
		if e.VM < 0 {
			return errAt(e.line, path+".vm", "must be non-negative, got %d", e.VM)
		}
		for _, g := range sc.targetedGroups(e.Target) {
			if e.VM >= g.PrimaryVMs {
				return errAt(e.line, path+".vm", "vm %d out of range for group %q (%d primary VMs)",
					e.VM, g.Name, g.PrimaryVMs)
			}
		}
	case "":
		return errAt(e.line, path+".kind", "required (one of %s, %s, %s)", TlIntensity, TlFlashCrowd, TlVMIntensity)
	default:
		return errAt(e.line, path+".kind", "unknown timeline kind %q (want one of %s, %s, %s)",
			e.Kind, TlIntensity, TlFlashCrowd, TlVMIntensity)
	}
	return nil
}

func (sc *Scenario) validateEvent(e *EventEntry, path string) error {
	if err := sc.checkAt(e.AtMS, e.atLine, path+".at_ms"); err != nil {
		return err
	}
	if err := sc.validateTarget(&e.Target, path); err != nil {
		return err
	}
	switch e.Kind {
	case EvFaults:
		if (e.Plan == nil) == (e.PlanFile == "") {
			return errAt(e.line, path, "kind %q needs exactly one of plan or plan_file", EvFaults)
		}
		if e.PlanFile != "" {
			plan, err := faults.Load(filepath.Join(sc.baseDir, e.PlanFile))
			if err != nil {
				return errAt(e.line, path+".plan_file", "%v", err)
			}
			e.Plan = plan
		}
	case EvResilience, EvHarvestOnBlock:
		if e.Plan != nil || e.PlanFile != "" {
			return errAt(e.line, path, "plan/plan_file only apply to kind %q", EvFaults)
		}
	case EvDrain:
		if sc.Routing == nil {
			return errAt(e.line, path, "kind %q requires a routing block (drain is a front-door operation)", EvDrain)
		}
		if e.Plan != nil || e.PlanFile != "" {
			return errAt(e.line, path, "plan/plan_file only apply to kind %q", EvFaults)
		}
		if e.DeadlineMS <= 0 {
			return errAt(e.line, path+".deadline_ms", "must be positive, got %g", e.DeadlineMS)
		}
		if _, ok := sim.FromMilliseconds(e.DeadlineMS); !ok {
			return errAt(e.line, path+".deadline_ms", "%g ms does not fit the simulated clock", e.DeadlineMS)
		}
	case "":
		return errAt(e.line, path+".kind", "required (one of %s, %s, %s, %s)",
			EvFaults, EvResilience, EvHarvestOnBlock, EvDrain)
	default:
		return errAt(e.line, path+".kind", "unknown event kind %q (want one of %s, %s, %s, %s)",
			e.Kind, EvFaults, EvResilience, EvHarvestOnBlock, EvDrain)
	}
	if e.Kind != EvDrain && e.DeadlineMS != 0 {
		return errAt(e.line, path, "deadline_ms only applies to kind %q", EvDrain)
	}
	return nil
}

func (sc *Scenario) validateAssertion(a *Assertion, path string) error {
	if err := sc.validateTarget(&a.Target, path); err != nil {
		return err
	}
	if a.Metric == "" {
		return errAt(a.line, path+".metric", "required (one of %s)", metricNames())
	}
	m, ok := metricsByName[a.Metric]
	if !ok {
		return errAt(a.metricLine, path+".metric", "unknown metric %q (want one of %s)",
			a.Metric, metricNames())
	}
	if m.fleet() {
		if sc.Routing == nil {
			return errAt(a.metricLine, path+".metric", "fleet metric %q requires a routing block", a.Metric)
		}
		if !a.Target.All() {
			return errAt(a.line, path, "fleet metric %q evaluates at the router and takes no group/server target", a.Metric)
		}
	}
	if m.graph() || m.tier() {
		if sc.Graph == nil {
			return errAt(a.metricLine, path+".metric", "graph metric %q requires a graph block", a.Metric)
		}
		if !a.Target.All() {
			return errAt(a.line, path, "graph metric %q evaluates at the DAG dispatcher and takes no group/server target", a.Metric)
		}
	}
	if m.tier() {
		if a.Tier == "" {
			return errAt(a.line, path+".tier", "required: tier metric %q names the DAG tier it evaluates", a.Metric)
		}
		if sc.Graph.spec.TierByName(a.Tier) < 0 {
			return errAt(a.tierLine, path+".tier", "unknown tier %q", a.Tier)
		}
	} else if a.Tier != "" {
		return errAt(a.tierLine, path+".tier", "tier only applies to tier_* metrics, not %q", a.Metric)
	}
	if m.check != nil || m.fleetCheck != nil || m.graphCheck != nil {
		if a.Min != nil || a.Max != nil {
			return errAt(a.line, path, "oracle check %q takes no min/max bounds", a.Metric)
		}
		return nil
	}
	if a.Min == nil && a.Max == nil {
		return errAt(a.line, path, "metric %q needs a min or max bound", a.Metric)
	}
	if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
		return errAt(a.line, path, "min %g exceeds max %g", *a.Min, *a.Max)
	}
	return nil
}
