package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dagYAML is the graph-mode mutation base: an inline three-tier DAG (fe ->
// mid x2 -> leafy, sequential leaf hop) over two fleet groups, with the
// back group serving two tiers. Every diagnostics case below is one edit
// away.
const dagYAML = `name: dag-test
seed: 12
warmup_ms: 10
duration_ms: 100
step_ms: 10
graph:
  rpc_delay_us: 20
  root: fe
  tiers:
    - tier: fe
      group: web
      calls:
        - tier: mid
          mode: parallel
          fanout: 2
    - tier: mid
      group: back
      calls:
        - tier: leafy
          mode: sequential
          fanout: 1
    - tier: leafy
      group: back
fleet:
  - group: web
    count: 1
  - group: back
    count: 2
workload:
  - at_ms: 20
    kind: intensity
    intensity: 1.3
assertions:
  - metric: graph_completed
    min: 20
  - metric: graph_failed
    max: 0
  - metric: tier_rpcs
    tier: mid
    min: 40
  - metric: graph_conservation
  - metric: flow_balance
  - metric: littles_law
`

// TestGraphRunDeterministic is the graph-mode cornerstone: a DAG scenario
// must pass its assertions plus the mandatory graph-conservation oracle,
// render the dispatcher's ledgers, and produce byte-identical summaries
// across repeats and at any worker count.
func TestGraphRunDeterministic(t *testing.T) {
	want, err := quick(t, dagYAML).RunShards(1)
	if err != nil {
		t.Fatal(err)
	}
	if !want.OK() {
		t.Fatalf("graph run failed (%d):\n%s", want.Failed, want.Summary)
	}
	if want.Graph == nil {
		t.Fatal("graph run reported no dispatcher result")
	}
	for _, wantStr := range []string{
		"graph: root=fe rpc_delay_us=20",
		"dag: generated=",
		"e2e latency: p50=",
		"tier fe servers=1 vm=0",
		"tier mid servers=2 vm=0",
		"tier leafy servers=2 vm=0",
		"graph conservation PASS",
		"PASS graph_conservation holds [all]",
		"PASS tier_rpcs >= 40 [all] — tier mid tier_rpcs=",
	} {
		if !strings.Contains(want.Summary, wantStr) {
			t.Errorf("summary missing %q:\n%s", wantStr, want.Summary)
		}
	}
	for _, shards := range []int{1, 2, 8, 0} {
		got, err := quick(t, dagYAML).RunShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary != want.Summary {
			t.Fatalf("graph summary diverged at shards=%d:\n--- shards=1 ---\n%s--- shards=%d ---\n%s",
				shards, want.Summary, shards, got.Summary)
		}
	}

	// The seed must matter.
	other, err := quick(t, strings.Replace(dagYAML, "seed: 12", "seed: 13", 1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if other.Summary == want.Summary {
		t.Fatal("different seeds produced identical graph summaries")
	}
}

// lineOf reports the 1-based line of the first occurrence of anchor.
func lineOf(t *testing.T, doc, anchor string) int {
	t.Helper()
	i := strings.Index(doc, anchor)
	if i < 0 {
		t.Fatalf("anchor %q not in document", anchor)
	}
	return 1 + strings.Count(doc[:i], "\n")
}

// TestGraphDiagnostics pins the positioned file:line: field shape of every
// graph-block failure mode: cycles, dangling tier references, fan-out
// bounds, group binding, and the file/inline exclusivity rules.
func TestGraphDiagnostics(t *testing.T) {
	edit := func(old, new string) string {
		if !strings.Contains(dagYAML, old) {
			t.Fatalf("fixture lost mutation anchor %q", old)
		}
		return strings.Replace(dagYAML, old, new, 1)
	}
	cases := []struct {
		name string
		doc  string
		// anchor, when set, must carry the error's scenario.yaml:<line>
		// position; field and msg must both appear in the error.
		anchor string
		field  string
		msg    string
	}{
		{
			name: "call cycle names the loop",
			doc: edit("    - tier: leafy\n      group: back\nfleet:",
				"    - tier: leafy\n      group: back\n      calls:\n        - tier: fe\nfleet:"),
			anchor: "- tier: fe\nfleet:",
			field:  "graph.tiers[2].calls[0].tier",
			msg:    "call cycle: fe -> mid -> leafy -> fe",
		},
		{
			name:   "dangling call tier",
			doc:    edit("- tier: leafy\n          mode: sequential", "- tier: nosuch\n          mode: sequential"),
			anchor: "- tier: nosuch",
			field:  "graph.tiers[1].calls[0].tier",
			msg:    `unknown tier "nosuch" (tiers: fe, mid, leafy)`,
		},
		{
			name:   "zero fanout",
			doc:    edit("fanout: 2", "fanout: 0"),
			anchor: "fanout: 0",
			field:  "graph.tiers[0].calls[0].fanout",
			msg:    "must be in [1, 64], got 0",
		},
		{
			name:   "fanout over bound",
			doc:    edit("fanout: 2", "fanout: 65"),
			anchor: "fanout: 65",
			field:  "graph.tiers[0].calls[0].fanout",
			msg:    "must be in [1, 64], got 65",
		},
		{
			name:   "unknown call mode",
			doc:    edit("mode: parallel", "mode: zigzag"),
			anchor: "mode: zigzag",
			field:  "graph.tiers[0].calls[0].mode",
			msg:    `unknown call mode "zigzag"`,
		},
		{
			name:   "unknown fleet group",
			doc:    edit("      group: web", "      group: wbe"),
			anchor: "      group: wbe",
			field:  "graph.tiers[0].group",
			msg:    `unknown fleet group "wbe"`,
		},
		{
			name:  "missing tier group",
			doc:   edit("      group: web\n", ""),
			field: "graph.tiers[0].group",
			msg:   "required (each tier is served by a fleet group)",
		},
		{
			name:   "vm out of range",
			doc:    edit("      group: web\n", "      group: web\n      vm: 99\n"),
			anchor: "vm: 99",
			field:  "graph.tiers[0].vm",
			msg:    `vm 99 out of range for group "web" (8 primary VMs)`,
		},
		{
			name:   "unknown root",
			doc:    edit("root: fe", "root: nope"),
			anchor: "root: nope",
			field:  "graph.root",
			msg:    `unknown tier "nope" (tiers: fe, mid, leafy)`,
		},
		{
			name:   "zero rpc delay",
			doc:    edit("rpc_delay_us: 20", "rpc_delay_us: 0"),
			anchor: "rpc_delay_us: 0",
			field:  "graph.rpc_delay_us",
			msg:    "must be positive",
		},
		{
			name: "unreachable tier",
			doc: edit("      calls:\n        - tier: leafy\n          mode: sequential\n          fanout: 1\n",
				""),
			anchor: "- tier: leafy\n      group: back",
			field:  "graph.tiers[2].tier",
			msg:    `tier "leafy" is unreachable from root tier "fe"`,
		},
		{
			name:  "routing and graph exclusive",
			doc:   edit("fleet:", "routing:\n  policy: round_robin\nfleet:"),
			field: "graph",
			msg:   "graph and routing are mutually exclusive",
		},
		{
			name: "fleet group serving no tier",
			doc: edit("  - group: back\n    count: 2\n",
				"  - group: back\n    count: 2\n  - group: spare\n    count: 1\n"),
			field: "graph.tiers",
			msg:   `fleet group "spare" serves no tier`,
		},
		{
			name:   "file exclusive with inline fields",
			doc:    edit("  rpc_delay_us: 20", "  file: x.yaml\n  rpc_delay_us: 20"),
			anchor: "file: x.yaml",
			field:  "graph.file",
			msg:    "file is exclusive with inline graph fields",
		},
		{
			name: "duplicate tier name",
			doc: `name: dup
duration_ms: 40
step_ms: 10
graph:
  tiers:
    - tier: a
      group: web
      calls:
        - tier: b
    - tier: b
      group: web
    - tier: b
      group: web
fleet:
  - group: web
    count: 1
`,
			field: "graph.tiers[2].tier",
			msg:   `duplicate tier name "b"`,
		},
		{
			name: "missing graph file",
			doc: `name: nofile
duration_ms: 40
step_ms: 10
graph:
  file: nope.graph.yaml
fleet:
  - group: web
    count: 1
`,
			field: "graph.file",
			msg:   "nope.graph.yaml",
		},
		{
			name: "empty graph block",
			doc: edit(`  rpc_delay_us: 20
  root: fe
  tiers:
    - tier: fe
      group: web
      calls:
        - tier: mid
          mode: parallel
          fanout: 2
    - tier: mid
      group: back
      calls:
        - tier: leafy
          mode: sequential
          fanout: 1
    - tier: leafy
      group: back
`, "  rpc_delay_us: 20\n"),
			field: "graph.tiers",
			msg:   "required: define at least one tier",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "scenario.yaml")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			if err == nil {
				t.Fatal("damaged graph scenario unexpectedly loaded")
			}
			if tc.anchor != "" {
				pos := "scenario.yaml:" + itoa(lineOf(t, tc.doc, tc.anchor)) + ":"
				if !strings.Contains(err.Error(), pos) {
					t.Errorf("error %q\nnot positioned at %q", err, pos)
				}
			} else if !strings.Contains(err.Error(), "scenario.yaml:") {
				t.Errorf("error %q carries no scenario.yaml position", err)
			}
			for _, w := range []string{tc.field, tc.msg} {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q\nmissing %q", err, w)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestGraphFileReference: a graph: {file:} scenario resolves the DAG from
// the referenced document, and errors inside the file are doubly
// positioned — the scenario's graph.file line wrapping the graph file's own
// line.
func TestGraphFileReference(t *testing.T) {
	graphDoc := `rpc_delay_us: 15
root: a
tiers:
  - tier: a
    group: web
    calls:
      - tier: b
        fanout: 2
  - tier: b
    group: web
`
	scenarioDoc := `name: filed
seed: 3
duration_ms: 60
step_ms: 10
graph:
  file: chain.graph.yaml
fleet:
  - group: web
    count: 1
assertions:
  - metric: graph_completed
    min: 1
  - metric: graph_conservation
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "chain.graph.yaml"), []byte(graphDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "scenario.yaml")
	if err := os.WriteFile(path, []byte(scenarioDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path)
	if err != nil {
		t.Fatalf("file-referenced graph rejected: %v", err)
	}
	spec := sc.Graph.Spec()
	if spec == nil || len(spec.Tiers) != 2 || spec.Nodes() != 3 {
		t.Fatalf("file graph compiled wrong: %+v", spec)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("file-referenced graph run failed:\n%s", rep.Summary)
	}

	// Damage inside the graph file: the diagnostic must name the scenario's
	// graph.file line AND the graph file's own position.
	bad := strings.Replace(graphDoc, "fanout: 2", "fanout: 0", 1)
	if err := os.WriteFile(filepath.Join(dir, "chain.graph.yaml"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("damaged graph file accepted")
	}
	for _, w := range []string{
		"scenario.yaml:6: graph.file",
		"chain.graph.yaml:" + itoa(lineOf(t, bad, "fanout: 0")),
		"tiers[0].calls[0].fanout",
		"must be in [1, 64]",
	} {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("file-graph error %q\nmissing %q", err, w)
		}
	}
}

// TestGraphPerturbMCTeeth: -perturb graph-mc corrupts one tier's measured
// hop sketch after the run. The Monte-Carlo cross-check must fail on
// exactly that drift while the counter-based conservation oracle stays
// green — proof the analytic relation has teeth independent of the ledgers.
func TestGraphPerturbMCTeeth(t *testing.T) {
	clean, err := Load("../../scenarios/socialnet-mc.yaml")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("unperturbed MC scenario failed:\n%s", rep.Summary)
	}

	sc, err := Load("../../scenarios/socialnet-mc.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sc.PerturbGraphMC = true
	rep, err = sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("perturbed hop sketch passed:\n%s", rep.Summary)
	}
	if !strings.Contains(rep.Summary, "FAIL graph_mc") {
		t.Fatalf("failure does not name graph_mc:\n%s", rep.Summary)
	}
	if !strings.Contains(rep.Summary, "PASS graph_conservation holds") ||
		!strings.Contains(rep.Summary, "graph conservation PASS") {
		t.Fatalf("counter conservation should survive a sketch-only perturbation:\n%s", rep.Summary)
	}
}

// TestGraphLibraryScenariosPass runs the shipped DAG scenario library end
// to end — the same gate CI's dag-smoke job applies.
func TestGraphLibraryScenariosPass(t *testing.T) {
	for _, name := range []string{"socialnet-dag.yaml", "socialnet-mc.yaml"} {
		t.Run(name, func(t *testing.T) {
			sc, err := Load(filepath.Join("../../scenarios", name))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("library scenario failed (%d):\n%s", rep.Failed, rep.Summary)
			}
		})
	}
}

// FuzzGraphParse fuzzes the graph-block front end: whatever the input, the
// parser must never panic, and any accepted graph must have compiled to a
// spec that passes its own structural validation. The seed corpus covers
// inline and file-referenced graphs plus each rejection class (cycles,
// dangling refs, fan-out bounds, bad modes, group binding).
func FuzzGraphParse(f *testing.F) {
	seeds := []string{
		dagYAML,
		// File-referenced graph (resolved against testdata/).
		`name: filed
duration_ms: 40
step_ms: 10
graph:
  file: socialnet.graph.yaml
fleet:
  - group: fe
    count: 1
  - group: mid
    count: 1
  - group: leaf
    count: 1
`,
		strings.Replace(dagYAML, "- tier: leafy\n      group: back",
			"- tier: leafy\n      group: back\n      calls:\n        - tier: fe", 1), // cycle
		strings.Replace(dagYAML, "tier: leafy\n          mode", "tier: ghost\n          mode", 1), // dangling
		strings.Replace(dagYAML, "fanout: 2", "fanout: 0", 1),
		strings.Replace(dagYAML, "fanout: 2", "fanout: 9999", 1),
		strings.Replace(dagYAML, "mode: parallel", "mode: diagonal", 1),
		strings.Replace(dagYAML, "      group: web", "      group: unknown", 1),
		strings.Replace(dagYAML, "root: fe", "root: 7", 1),
		"graph:\n  tiers:\n", // structurally empty
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		sc, err := Parse([]byte(doc), false, "testdata")
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		if sc.Graph == nil {
			return
		}
		spec := sc.Graph.Spec()
		if spec == nil {
			t.Fatal("accepted graph scenario has no compiled spec")
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("accepted graph fails its own validation: %v", verr)
		}
	})
}
