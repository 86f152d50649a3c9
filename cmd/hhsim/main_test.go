package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI tests re-execute the test binary as hhsim: TestMain dispatches
// to main() when HHSIM_RUN_MAIN is set, so no separate build artifact is
// needed and `go test ./cmd/hhsim` covers real flag parsing, stream
// separation, and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("HHSIM_RUN_MAIN") == "1" {
		os.Args = append(os.Args[:1], strings.Split(os.Getenv("HHSIM_ARGS"), " ")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hhsim re-runs the test binary as the CLI with the given args and returns
// stdout, stderr, and the exit code.
func hhsim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(),
		"HHSIM_RUN_MAIN=1",
		"HHSIM_ARGS="+strings.Join(args, " "))
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("re-exec: %v", err)
	}
	return stdout.String(), stderr.String(), code
}

func TestList(t *testing.T) {
	out, _, code := hhsim(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"table1", "fig11", "fig16", "summary"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, stderr, code := hhsim(t, "-exp", "nope")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("stderr %q does not explain the failure", stderr)
	}
}

func TestNoModeIsUsageError(t *testing.T) {
	if _, _, code := hhsim(t); code != 2 {
		t.Errorf("exit %d, want 2 (usage)", code)
	}
}

// TestExpTable runs one cheap experiment and checks the rendered table
// lands on stdout while the timing line stays on stderr.
func TestExpTable(t *testing.T) {
	out, stderr, code := hhsim(t, "-exp", "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "== table1:") {
		t.Errorf("stdout missing table header:\n%s", out)
	}
	if !strings.Contains(stderr, "(table1 in") {
		t.Errorf("timing line not on stderr: %q", stderr)
	}
	if strings.Contains(out, "(table1 in") {
		t.Errorf("timing line leaked to stdout")
	}
}

// TestJSONAllSingleDocument asserts `-json -all` emits exactly one JSON
// array of tables on stdout — nothing else — so the output pipes straight
// into jq. Timing lines must all be on stderr. This is the documented
// stream contract; quick scale keeps it a few seconds.
func TestJSONAllSingleDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs every experiment")
	}
	out, stderr, code := hhsim(t, "-json", "-all", "-measure-ms", "100")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var tables []struct {
		ID      string   `json:"ID"`
		Columns []string `json:"Columns"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	if err := dec.Decode(&tables); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\nstdout starts: %.200s", err, out)
	}
	if dec.More() {
		t.Errorf("stdout holds more than one JSON document")
	}
	if len(tables) < 20 {
		t.Errorf("decoded %d tables, want every experiment", len(tables))
	}
	if !strings.Contains(stderr, "(fig11 in") {
		t.Errorf("per-experiment timing lines missing from stderr")
	}
}

// TestDeterminism runs the same experiment twice and requires
// byte-identical stdout: the simulation is seeded and the CLI adds no
// nondeterminism of its own.
func TestDeterminism(t *testing.T) {
	a, _, codeA := hhsim(t, "-exp", "fig6", "-json")
	b, _, codeB := hhsim(t, "-exp", "fig6", "-json")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exits %d/%d", codeA, codeB)
	}
	if a != b {
		t.Errorf("two identical invocations differ on stdout")
	}
}

// TestValidateExitCodes covers the oracle mode's contract: 0 when every
// check passes, 1 when a perturbed constant makes checks fail, 2 for a
// malformed -perturb spec, and -perturb without -validate is a usage
// error.
func TestValidateExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the oracle suite three times")
	}
	out, stderr, code := hhsim(t, "-validate", "-measure-ms", "200")
	if code != 0 {
		t.Fatalf("clean -validate exit %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "PASS analytic/littles-law-identity/") ||
		!strings.Contains(out, "PASS metamorphic/time-rescaling/") {
		t.Errorf("check listing missing expected lines:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("clean run printed FAIL lines:\n%s", out)
	}

	out, _, code = hhsim(t, "-validate", "-measure-ms", "200", "-perturb", "partition-flush-wait=3")
	if code != 1 {
		t.Errorf("perturbed -validate exit %d, want 1", code)
	}
	if !strings.Contains(out, "FAIL analytic/table1-calibration/PartitionFlushWait") {
		t.Errorf("perturbed run does not name the corrupted constant:\n%s", out)
	}
	if !strings.Contains(out, "relation:") {
		t.Errorf("failure does not state the violated relation:\n%s", out)
	}

	if _, _, code = hhsim(t, "-validate", "-perturb", "bogus"); code != 2 {
		t.Errorf("malformed -perturb exit %d, want 2", code)
	}
	if _, _, code = hhsim(t, "-perturb", "load-scale=2"); code != 2 {
		t.Errorf("-perturb without -validate exit %d, want 2", code)
	}
}

// TestFlagValidation: unusable numeric flags must exit 2 with an
// explanation before any run construction, not panic mid-run or silently
// disable an output.
func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-exp", "table1", "-sample-us", "0"},
		{"-exp", "table1", "-sample-us", "-5"},
		{"-exp", "table1", "-parallel", "-1"},
		{"-exp", "table1", "-measure-ms", "-100"},
	}
	for _, args := range cases {
		out, stderr, code := hhsim(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstdout: %s\nstderr: %s", args, code, out, stderr)
			continue
		}
		if !strings.Contains(stderr, "must be") || !strings.Contains(stderr, "got ") {
			t.Errorf("%v: stderr does not explain the rejected value: %q", args, stderr)
		}
		if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "usage") {
			t.Errorf("%v: stderr has no usage text: %q", args, stderr)
		}
	}
}

const cliScenario = `name: cli-smoke
seed: 9
warmup_ms: 10
duration_ms: 40
step_ms: 10
fleet:
  - group: web
    count: 1
workload:
  - at_ms: 10
    kind: intensity
    intensity: 1.4
assertions:
  - metric: completions
    min: 1
  - metric: flow_balance
`

// TestScenarioCLI covers the run/validate subcommand contract: validate is
// parse+check only with positioned diagnostics, run prints a deterministic
// summary, and exit codes distinguish assertion failure (1) from malformed
// input (2).
func TestScenarioCLI(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.yaml", cliScenario)
	bad := write("bad.yaml", strings.Replace(cliScenario, "kind: intensity", "kind: sorcery", 1))
	failing := write("failing.yaml", strings.Replace(cliScenario, "min: 1", "min: 1000000", 1))

	out, stderr, code := hhsim(t, "validate", good)
	if code != 0 {
		t.Fatalf("validate good: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "ok: ") || !strings.Contains(out, `scenario "cli-smoke"`) {
		t.Errorf("validate output: %q", out)
	}

	out, stderr, code = hhsim(t, "validate", good, bad)
	if code != 1 {
		t.Errorf("validate with bad file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "bad.yaml:10: workload[0].kind: unknown timeline kind \"sorcery\"") {
		t.Errorf("validate diagnostic not positioned: %q", stderr)
	}
	if !strings.Contains(out, "ok: ") {
		t.Errorf("good file not reported ok alongside bad one: %q", out)
	}

	runA, stderr, code := hhsim(t, "run", good)
	if code != 0 {
		t.Fatalf("run: exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"== hhsim scenario summary ==", "scenario=cli-smoke", "result: PASS"} {
		if !strings.Contains(runA, want) {
			t.Errorf("run summary missing %q:\n%s", want, runA)
		}
	}
	runB, _, _ := hhsim(t, "run", good)
	if runA != runB {
		t.Errorf("two runs of the same scenario differ:\n--- a ---\n%s--- b ---\n%s", runA, runB)
	}

	// -shards is an execution detail: stdout must be byte-identical at any
	// worker count (the default run above used every CPU).
	for _, n := range []string{"1", "2", "8"} {
		runN, stderr, code := hhsim(t, "run", "-shards", n, good)
		if code != 0 {
			t.Fatalf("run -shards %s: exit %d, stderr: %s", n, code, stderr)
		}
		if runN != runA {
			t.Errorf("-shards %s changed the summary:\n--- default ---\n%s--- shards=%s ---\n%s",
				n, runA, n, runN)
		}
	}

	out, _, code = hhsim(t, "run", failing)
	if code != 1 {
		t.Errorf("failing assertions: exit %d, want 1", code)
	}
	if !strings.Contains(out, "FAIL completions >= 1000000") || !strings.Contains(out, "result: FAIL") {
		t.Errorf("failure summary wrong:\n%s", out)
	}

	if _, stderr, code = hhsim(t, "run", bad); code != 2 {
		t.Errorf("run on malformed scenario: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if _, _, code = hhsim(t, "run"); code != 2 {
		t.Errorf("run without a file: exit %d, want 2", code)
	}
	if _, _, code = hhsim(t, "validate"); code != 2 {
		t.Errorf("validate without files: exit %d, want 2", code)
	}
}

const cliRoutedScenario = `name: cli-routed
seed: 11
warmup_ms: 10
duration_ms: 40
step_ms: 10
routing:
  policy: round_robin
  probe_interval_ms: 5
fleet:
  - group: web
    count: 2
events:
  - at_ms: 10
    kind: faults
    server: 0
    plan: {"events": [{"at_ms": 0, "kind": "crash", "duration_ms": 6}]}
assertions:
  - metric: failovers
    min: 1
  - metric: lost
    max: 0
  - metric: fleet_conservation
`

// TestScenarioCLIRouted covers the routed front-door contract end to end:
// the summary gains router/backend sections, stays byte-identical at any
// -shards value and across repeats, and -perturb fleet-conservation
// corrupts the ledger so the mandatory oracle fails the run — while being
// a usage error for routerless scenarios or unknown fields.
func TestScenarioCLIRouted(t *testing.T) {
	dir := t.TempDir()
	routed := filepath.Join(dir, "routed.yaml")
	if err := os.WriteFile(routed, []byte(cliRoutedScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.yaml")
	if err := os.WriteFile(plain, []byte(cliScenario), 0o644); err != nil {
		t.Fatal(err)
	}

	runA, stderr, code := hhsim(t, "run", routed)
	if code != 0 {
		t.Fatalf("run routed: exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"routing: policy=round_robin",
		"router: generated=",
		"backend server0[web]",
		"fleet conservation PASS",
		"result: PASS",
	} {
		if !strings.Contains(runA, want) {
			t.Errorf("routed summary missing %q:\n%s", want, runA)
		}
	}
	for _, n := range []string{"1", "2", "8"} {
		runN, stderr, code := hhsim(t, "run", "-shards", n, routed)
		if code != 0 {
			t.Fatalf("run -shards %s: exit %d, stderr: %s", n, code, stderr)
		}
		if runN != runA {
			t.Errorf("-shards %s changed the routed summary:\n--- default ---\n%s--- shards=%s ---\n%s",
				n, runA, n, runN)
		}
	}

	out, _, code := hhsim(t, "run", "-perturb", "fleet-conservation", routed)
	if code != 1 {
		t.Errorf("perturbed routed run: exit %d, want 1", code)
	}
	if !strings.Contains(out, "fleet_conservation FAIL") || !strings.Contains(out, "result: FAIL") {
		t.Errorf("perturbed summary does not fail conservation:\n%s", out)
	}

	if _, stderr, code = hhsim(t, "run", "-perturb", "fleet-conservation", plain); code != 2 {
		t.Errorf("perturb on routerless scenario: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if _, stderr, code = hhsim(t, "run", "-perturb", "bogus", routed); code != 2 {
		t.Errorf("unknown perturb field: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if _, stderr, code = hhsim(t, "validate", "-perturb", "fleet-conservation", routed); code != 2 {
		t.Errorf("perturb on validate: exit %d, want 2 (stderr %q)", code, stderr)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof files
// for the batch path and for `hhsim run`, and leave standard output byte for
// byte the same as a run without them.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	scen := filepath.Join(dir, "s.yaml")
	if err := os.WriteFile(scen, []byte(cliScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	profFlags := []string{"-cpuprofile", cpu, "-memprofile", mem}
	cases := []struct{ plain, profiled []string }{
		{[]string{"-exp", "table1"}, append([]string{"-exp", "table1"}, profFlags...)},
		{[]string{"run", scen}, append(append([]string{"run"}, profFlags...), scen)},
	}
	for _, c := range cases {
		os.Remove(cpu)
		os.Remove(mem)
		plain, stderr, code := hhsim(t, c.plain...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", c.plain, code, stderr)
		}
		out, stderr, code := hhsim(t, c.profiled...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", c.profiled, code, stderr)
		}
		if out != plain {
			t.Errorf("%v: stdout changed with profiling on:\n%s\nwithout:\n%s", c.profiled, out, plain)
		}
		for _, p := range []string{cpu, mem} {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Errorf("%v: profile %s missing or empty (%v)", c.profiled, p, err)
			}
		}
	}
	if _, stderr, code := hhsim(t, "validate", "-cpuprofile", filepath.Join(dir, "v.pprof"), scen); code != 2 ||
		!strings.Contains(stderr, "only apply to run") {
		t.Errorf("validate -cpuprofile: exit %d, stderr %q", code, stderr)
	}
}
