package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bless regenerates the scenario golden summaries instead of diffing:
//
//	go test ./internal/scenario -run TestGolden -bless
var bless = flag.Bool("bless", false, "regenerate golden summaries instead of comparing")

// goldenScenarios are the byte-pinned scenario summaries: the DAG pipeline
// (socialnet-dag), the router's crash/failover/zombie path (failover), its
// intensity actions, drain and faults (rolling-deploy), a DAG rooted on
// VM 1 (graph-root-vm1), whose summary moves if the dispatcher's generator
// streams are drawn in any other order, and the routerless server actions:
// intensity, flash crowd and resilience (flash-crowd), harvest-on-block
// toggles (policy-ab), and a fault plan whose crash begins exactly on its
// action barrier (rack-failure).
var goldenScenarios = []struct{ name, path string }{
	{"socialnet-dag", "../../scenarios/socialnet-dag.yaml"},
	{"failover", "../../scenarios/failover.yaml"},
	{"rolling-deploy", "../../scenarios/rolling-deploy.yaml"},
	{"graph-root-vm1", "testdata/graph-root-vm1.yaml"},
	{"flash-crowd", "../../scenarios/flash-crowd.yaml"},
	{"policy-ab", "../../scenarios/policy-ab.yaml"},
	{"rack-failure", "../../scenarios/rack-failure.yaml"},
}

// TestGolden pins the full rendered summary of each golden scenario byte
// for byte. A summary is a pure function of its scenario (no wall-clock,
// no map order), so any drift is a behaviour change — in the router, the
// dispatcher, the join state machine, the sketches, or the renderer — and
// must be reviewed and re-blessed.
func TestGolden(t *testing.T) {
	for _, g := range goldenScenarios {
		t.Run(g.name, func(t *testing.T) {
			goldenPath := filepath.Join("testdata", "golden", g.name+".summary.txt")
			sc, err := Load(g.path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sc.RunShards(1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("golden scenario failed its own assertions:\n%s", rep.Summary)
			}
			if *bless {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(rep.Summary), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("blessed %s (%d bytes)", goldenPath, len(rep.Summary))
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("load golden summary (regenerate with -bless): %v", err)
			}
			if rep.Summary != string(want) {
				t.Fatalf("summary drifted from blessed golden:\n%s", firstDiffLine(string(want), rep.Summary))
			}

			// The artifact must be shard-invariant too: a golden blessed at
			// one worker count must match any other.
			for _, shards := range []int{2, 8} {
				got, err := quick(t, mustRead(t, g.path)).RunShards(shards)
				if err != nil {
					t.Fatal(err)
				}
				if got.Summary != string(want) {
					t.Fatalf("golden diverged at shards=%d:\n%s", shards, firstDiffLine(string(want), got.Summary))
				}
			}
		})
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstDiffLine renders the first line where two summaries diverge.
func firstDiffLine(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "line " + itoa(i+1) + ":\n  blessed: " + w[i] + "\n  got:     " + g[i]
		}
	}
	return "length changed: blessed " + itoa(len(w)) + " lines, got " + itoa(len(g))
}
