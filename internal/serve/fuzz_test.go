package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

// Action logs recorded by the replay-determinism tests: liveRun's
// one-server schedule, TestRoutedServeReplayDeterminism's and
// TestGraphServeReplayDeterminism's.
const (
	singleLog = `{"hhsim_serve_log":1,"config":{"system":"HardHarvest-Block","workload":"BFS","seed":3,"warmup_ms":10,"sim_ms":60,"step_ms":10}}
{"at":0,"kind":"intensity","intensity":1.5}
{"at":20000000000,"kind":"resilience","on":true}
{"at":20000000000,"kind":"faults","plan":{"events":[{"at_ms":5,"kind":"core_offline","core":3,"duration_ms":8}]}}
{"at":30000000000,"kind":"harvest_on_block"}
`
	routedLog = `{"hhsim_serve_log":1,"config":{"system":"HardHarvest-Block","workload":"BFS","seed":3,"warmup_ms":10,"sim_ms":60,"step_ms":10,"routed":true,"backends":3,"policy":"least_outstanding"}}
{"at":0,"kind":"intensity","intensity":1.4}
{"at":10000000000,"kind":"faults","plan":{"events":[{"at_ms":5,"kind":"crash","duration_ms":10}]}}
{"at":20000000000,"kind":"drain","server":2,"deadline_ms":3}
`
	graphLog = `{"hhsim_serve_log":1,"config":{"system":"HardHarvest-Block","workload":"BFS","seed":3,"warmup_ms":10,"sim_ms":60,"step_ms":10,"backends":1,"graph":"socialnet"}}
{"at":0,"kind":"intensity","intensity":1.4}
{"at":10000000000,"kind":"faults","plan":{"events":[{"at_ms":5,"kind":"core_offline","core":3,"duration_ms":8}]}}
{"at":20000000000,"kind":"harvest_on_block"}
`
)

// FuzzReplay: for any action log, Replay returns a summary or an error and
// never panics. Besides the recorded logs it is seeded with a drain
// deadline and a fault duration past the simulated clock's range, which
// used to wrap into negative delays. Inputs that would build a large fleet
// or a long, dense run are skipped (see costly), so every input replays in
// well under a second.
func FuzzReplay(f *testing.F) {
	f.Add(singleLog)
	f.Add(routedLog)
	f.Add(graphLog)
	f.Add(strings.Replace(routedLog, `"deadline_ms":3`, `"deadline_ms":1e10`, 1))
	f.Add(strings.Replace(singleLog, `"duration_ms":8`, `"duration_ms":1e10`, 1))
	f.Fuzz(func(t *testing.T, log string) {
		if costly(log) {
			t.Skip()
		}
		summary, err := Replay(strings.NewReader(log))
		if err == nil && summary == "" {
			t.Fatal("Replay returned neither a summary nor an error")
		}
	})
}

// costly reports whether a log asks for more than a fuzz input should: a
// header with sim_ms or warmup_ms over 100 or more than 4 backends, or an
// action that scales the offered load or a fault plan's rates past 4x.
// Lines that do not decode are left to Replay, which rejects them.
func costly(log string) bool {
	lines := strings.Split(log, "\n")
	var hdr logHeader
	if json.Unmarshal([]byte(lines[0]), &hdr) == nil {
		c := hdr.Config
		if c.SimMS > 100 || c.WarmupMS > 100 || c.Backends > 4 {
			return true
		}
	}
	for _, line := range lines[1:] {
		var a Action
		if json.Unmarshal([]byte(line), &a) != nil {
			continue
		}
		if a.Intensity > 4 || (a.Plan != nil && a.Plan.Intensity > 4) {
			return true
		}
	}
	return false
}
