package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// ---- hand-rolled Prometheus text-exposition (0.0.4) parser ----
//
// Deliberately no dependency on a client library: the parser accepts only
// what the format specifies, so it doubles as a well-formedness check on
// everything /metrics emits.

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	name, help, typ string
	samples         []promSample
}

// parseExposition parses the full scrape body, failing the test on any
// malformed line, sample without a preceding # TYPE, or duplicate series.
func parseExposition(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	seen := map[string]bool{} // name + rendered labels
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln, line)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{name: name}
				fams[name] = f
			}
			f.help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram" && typ != "summary" && typ != "untyped") {
				t.Fatalf("line %d: bad TYPE: %q", ln, line)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{name: name}
				fams[name] = f
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln, line)
		}
		s, err := parseSample(line)
		if err != nil {
			t.Fatalf("line %d: %v: %q", ln, err, line)
		}
		fam := familyOf(fams, s.name)
		if fam == nil || fam.typ == "" {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln, s.name)
		}
		key := s.name + renderLabels(s.labels)
		if seen[key] {
			t.Fatalf("line %d: duplicate series %q", ln, key)
		}
		seen[key] = true
		fam.samples = append(fam.samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// familyOf resolves a sample name to its family, honoring the histogram
// child-series suffixes.
func familyOf(fams map[string]*promFamily, name string) *promFamily {
	if f := fams[name]; f != nil {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := fams[base]; f != nil && f.typ == "histogram" {
				return f
			}
		}
	}
	return nil
}

func parseSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no metric name")
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		rest, err = parseLabels(rest[1:], s.labels)
		if err != nil {
			return s, err
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.value = v
	return s, nil
}

// parseLabels consumes `k="v",...}` handling \\, \" and \n escapes, and
// returns whatever follows the closing brace.
func parseLabels(rest string, into map[string]string) (string, error) {
	for {
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq <= 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return "", fmt.Errorf("bad label at %q", rest)
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		for {
			if rest == "" {
				return "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := rest[0]
			rest = rest[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if rest == "" {
					return "", fmt.Errorf("dangling escape in %q", key)
				}
				e := rest[0]
				rest = rest[1:]
				switch e {
				case '\\', '"':
					val.WriteByte(e)
				case 'n':
					val.WriteByte('\n')
				default:
					return "", fmt.Errorf("bad escape \\%c in %q", e, key)
				}
				continue
			}
			val.WriteByte(c)
		}
		into[key] = val.String()
		rest = strings.TrimPrefix(rest, ",")
	}
}

func renderLabels(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "{%s=%q}", k, m[k])
	}
	return b.String()
}

// checkHistogram asserts cumulative-bucket monotonicity, the +Inf bucket,
// and bucket/count agreement for one histogram family.
func checkHistogram(t *testing.T, fams map[string]*promFamily, name string) {
	t.Helper()
	fam := fams[name]
	if fam == nil || fam.typ != "histogram" {
		t.Fatalf("%s: missing or not a histogram", name)
	}
	type bk struct {
		le float64
		n  float64
	}
	var buckets []bk
	var count, sum float64
	haveCount, haveInf := false, false
	for _, s := range fam.samples {
		switch s.name {
		case name + "_bucket":
			le := s.labels["le"]
			if le == "+Inf" {
				haveInf = true
				buckets = append(buckets, bk{math.Inf(1), s.value})
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le=%q", name, le)
			}
			buckets = append(buckets, bk{f, s.value})
		case name + "_count":
			count, haveCount = s.value, true
		case name + "_sum":
			sum = s.value
		}
	}
	if !haveInf || !haveCount {
		t.Fatalf("%s: missing +Inf bucket or _count", name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	prev := -1.0
	for _, b := range buckets {
		if b.n < prev {
			t.Fatalf("%s: bucket le=%g count %g < previous %g (not cumulative)", name, b.le, b.n, prev)
		}
		prev = b.n
	}
	if inf := buckets[len(buckets)-1].n; inf != count {
		t.Fatalf("%s: +Inf bucket %g != _count %g", name, inf, count)
	}
	if count > 0 && sum < 0 {
		t.Fatalf("%s: negative _sum %g", name, sum)
	}
}

// ---- lifecycle test ----

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func sampleValue(t *testing.T, fams map[string]*promFamily, name string, want map[string]string) float64 {
	t.Helper()
	fam := familyOf(fams, name)
	if fam == nil {
		t.Fatalf("metric %s not exposed", name)
	}
outer:
	for _, s := range fam.samples {
		if s.name != name {
			continue
		}
		for k, v := range want {
			if s.labels[k] != v {
				continue outer
			}
		}
		return s.value
	}
	t.Fatalf("no sample %s%v", name, want)
	return 0
}

func TestHTTPLifecycle(t *testing.T) {
	cfg := quickCfg()
	r, err := NewRunner(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Subscribe(4096)
	defer cancel()
	r.Pause()
	go r.Loop()
	ts := httptest.NewServer(NewHTTP(r))
	defer ts.Close()

	// Scrape 1: paused at t=0, well-formed exposition.
	fams := parseExposition(t, getBody(t, ts.URL+"/metrics"))
	checkHistogram(t, fams, "hhsim_request_latency_seconds")
	if v := sampleValue(t, fams, "hhsim_paused", nil); v != 1 {
		t.Fatalf("hhsim_paused = %g, want 1", v)
	}
	simT0 := sampleValue(t, fams, "hhsim_sim_time_seconds", nil)
	arr0 := sampleValue(t, fams, "hhsim_events_total", map[string]string{"kind": "arrivals"})
	if v := sampleValue(t, fams, "hhsim_info", map[string]string{
		"system": cfg.System, "workload": cfg.Workload, "seed": "3"}); v != 1 {
		t.Fatalf("hhsim_info = %g, want 1", v)
	}
	for _, name := range []string{"hhsim_sim_horizon_seconds", "hhsim_run_done",
		"hhsim_intensity", "hhsim_engine_events_total", "hhsim_actions_applied_total",
		"hhsim_vm_occupancy"} {
		if familyOf(fams, name) == nil {
			t.Fatalf("metric %s not exposed", name)
		}
	}

	// Queue a config change over HTTP, then advance two barriers.
	if code, body := post(t, ts.URL+"/api/config", `{"intensity": 2.0, "resilience": true}`); code != http.StatusAccepted {
		t.Fatalf("config POST: %d: %s", code, body)
	}
	for i := 0; i < 2; i++ {
		if code, body := post(t, ts.URL+"/api/step", ""); code != http.StatusOK {
			t.Fatalf("step POST: %d: %s", code, body)
		}
		<-ch
	}

	// Scrape 2: time and counters moved monotonically, actions applied.
	fams2 := parseExposition(t, getBody(t, ts.URL+"/metrics"))
	checkHistogram(t, fams2, "hhsim_request_latency_seconds")
	simT1 := sampleValue(t, fams2, "hhsim_sim_time_seconds", nil)
	if simT1 <= simT0 {
		t.Fatalf("sim time did not advance: %g -> %g", simT0, simT1)
	}
	arr1 := sampleValue(t, fams2, "hhsim_events_total", map[string]string{"kind": "arrivals"})
	if arr1 < arr0 || arr1 == 0 {
		t.Fatalf("arrivals counter not monotone/active: %g -> %g", arr0, arr1)
	}
	if v := sampleValue(t, fams2, "hhsim_actions_applied_total", nil); v != 2 {
		t.Fatalf("hhsim_actions_applied_total = %g, want 2", v)
	}
	if v := sampleValue(t, fams2, "hhsim_intensity", nil); v != 2 {
		t.Fatalf("hhsim_intensity = %g, want 2", v)
	}

	// /api/state agrees with the scrape.
	var st struct {
		SimMS   float64 `json:"sim_ms"`
		Paused  bool    `json:"paused"`
		Actions int     `json:"actions"`
		VMs     []struct {
			Name string `json:"name"`
		} `json:"vms"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/api/state")), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Paused || st.Actions != 2 || st.SimMS/1000 != simT1 || len(st.VMs) == 0 {
		t.Fatalf("state mismatch: %+v (sim_time_seconds=%g)", st, simT1)
	}

	// Malformed / rejected requests.
	if code, _ := post(t, ts.URL+"/api/config", `{`); code != http.StatusBadRequest {
		t.Fatalf("truncated body: %d, want 400", code)
	}
	if code, _ := post(t, ts.URL+"/api/config", `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty config: %d, want 400", code)
	}
	if code, _ := post(t, ts.URL+"/api/config", `{"intensity": -1}`); code != http.StatusBadRequest {
		t.Fatalf("bad intensity: %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/api/step")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/step: %d, want 405", resp.StatusCode)
	}

	// Resume and stream the rest of the run as NDJSON.
	tsResp, err := http.Get(ts.URL + "/api/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer tsResp.Body.Close()
	if ct := tsResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("timeseries Content-Type = %q", ct)
	}
	if code, body := post(t, ts.URL+"/api/resume", ""); code != http.StatusOK {
		t.Fatalf("resume POST: %d: %s", code, body)
	}
	var last TimePoint
	points := 0
	dec := json.NewDecoder(tsResp.Body)
	for {
		var tp TimePoint
		if err := dec.Decode(&tp); err != nil {
			t.Fatalf("timeseries decode after %d points: %v", points, err)
		}
		points++
		last = tp
		if tp.Done {
			break
		}
	}
	if points == 0 || !last.Done {
		t.Fatalf("timeseries ended early: %d points, done=%v", points, last.Done)
	}
	for tp := range ch { // drain our own subscription to the end of the run
		if tp.Done {
			break
		}
	}

	// Final scrape: run done, step now refused, then shutdown.
	fams3 := parseExposition(t, getBody(t, ts.URL+"/metrics"))
	if v := sampleValue(t, fams3, "hhsim_run_done", nil); v != 1 {
		t.Fatalf("hhsim_run_done = %g, want 1", v)
	}
	// At done the engine reports the last fired event's time, which sits at
	// or just below the horizon (the grace tail rarely runs right up to it).
	if v, h := sampleValue(t, fams3, "hhsim_sim_time_seconds", nil),
		sampleValue(t, fams3, "hhsim_sim_horizon_seconds", nil); v > h || v <= simT1 {
		t.Fatalf("done but sim time %g outside (%g, %g]", v, simT1, h)
	}
	if _, ok := r.Summary(); !ok {
		t.Fatal("no summary after completed run")
	}
	if code, body := post(t, ts.URL+"/api/shutdown", ""); code != http.StatusOK {
		t.Fatalf("shutdown POST: %d: %s", code, body)
	}
	select {
	case <-r.ShutdownRequested():
	default:
		t.Fatal("shutdown not signalled")
	}
}

func TestTimeseriesSSE(t *testing.T) {
	cfg := quickCfg()
	cfg.SimMS = 30
	r, err := NewRunner(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Pause()
	go r.Loop()
	ts := httptest.NewServer(NewHTTP(r))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/timeseries", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	r.Resume()
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line: %q", line)
		}
		var tp TimePoint
		if err := json.Unmarshal([]byte(data), &tp); err != nil {
			t.Fatalf("bad SSE payload: %v: %q", err, data)
		}
		events++
		if tp.Done {
			break
		}
	}
	if events == 0 {
		t.Fatal("no SSE events received")
	}
}

// TestMetricsScrapeStableWhilePaused: two scrapes of an unchanged simulator
// must be byte-identical — CI's serve-smoke job relies on this property for
// its exposition diffing.
func TestMetricsScrapeStableWhilePaused(t *testing.T) {
	r, err := NewRunner(quickCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Pause()
	go r.Loop()
	ts := httptest.NewServer(NewHTTP(r))
	defer ts.Close()
	a := getBody(t, ts.URL+"/metrics")
	b := getBody(t, ts.URL+"/metrics")
	if !bytes.Equal([]byte(a), []byte(b)) {
		t.Fatal("paused scrapes differ")
	}
	r.Shutdown()
}

// TestHTTPRoutedSurfaces: routed runs expose the router on /api/state and
// /metrics, accept drain/targeted-fault config POSTs, and routerless runs
// keep both surfaces free of router artifacts.
func TestHTTPRoutedSurfaces(t *testing.T) {
	r, err := NewRunner(routedCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Subscribe(4096)
	defer cancel()
	r.Pause()
	go r.Loop()
	ts := httptest.NewServer(NewHTTP(r))
	defer ts.Close()

	// Queue a drain over HTTP, then advance two barriers so it applies.
	if code, body := post(t, ts.URL+"/api/config", `{"server": 1, "drain_deadline_ms": 3}`); code != http.StatusAccepted {
		t.Fatalf("drain POST: %d: %s", code, body)
	}
	for i := 0; i < 2; i++ {
		if code, body := post(t, ts.URL+"/api/step", ""); code != http.StatusOK {
			t.Fatalf("step POST: %d: %s", code, body)
		}
		<-ch
	}

	var st struct {
		Router *RouterPoint `json:"router"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/api/state")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Router == nil {
		t.Fatal("routed /api/state has no router block")
	}
	if st.Router.Policy != "least_outstanding" || len(st.Router.Backends) != 3 {
		t.Fatalf("router block mismatch: %+v", st.Router)
	}
	if st.Router.Drains != 1 {
		t.Fatalf("drain not applied: %+v", st.Router)
	}

	fams := parseExposition(t, getBody(t, ts.URL+"/metrics"))
	if v := sampleValue(t, fams, "hhsim_router_health_total", map[string]string{"kind": "drains"}); v != 1 {
		t.Fatalf("hhsim_router_health_total{kind=drains} = %g, want 1", v)
	}
	if v := sampleValue(t, fams, "hhsim_router_backend_up", map[string]string{"backend": "server0", "state": "healthy"}); v != 1 {
		t.Fatalf("server0 not up: %g", v)
	}
	for _, name := range []string{"hhsim_router_requests_total", "hhsim_router_outstanding",
		"hhsim_router_fleet_latency_ms", "hhsim_router_backend_attempts_total",
		"hhsim_router_backend_active"} {
		if familyOf(fams, name) == nil {
			t.Fatalf("metric %s not exposed", name)
		}
	}
	r.Shutdown()

	// Routerless surfaces stay clean: no router JSON key, no router families.
	plain, err := NewRunner(quickCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain.Pause()
	go plain.Loop()
	ts2 := httptest.NewServer(NewHTTP(plain))
	defer ts2.Close()
	if body := getBody(t, ts2.URL+"/api/state"); strings.Contains(body, `"router"`) {
		t.Fatalf("routerless state leaked a router block:\n%s", body)
	}
	if body := getBody(t, ts2.URL+"/metrics"); strings.Contains(body, "hhsim_router_") {
		t.Fatalf("routerless scrape leaked router families:\n%s", body)
	}
	if code, body := post(t, ts2.URL+"/api/config", `{"server": 1, "drain_deadline_ms": 3}`); code != http.StatusAccepted {
		// Enqueue-time validation is config-independent; the apply-time drop
		// is covered in serve_test. Accepting here is the expected contract.
		t.Fatalf("drain POST enqueue: %d: %s", code, body)
	}
	plain.Shutdown()
}

// TestHTTPDrainDeadlineOverflow: POST /api/config with a drain deadline
// past the simulated clock's range is a 400, and the loop keeps stepping
// with nothing applied (it used to accept the POST and panic at the next
// barrier).
func TestHTTPDrainDeadlineOverflow(t *testing.T) {
	r, err := NewRunner(routedCfg(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Subscribe(4096)
	defer cancel()
	r.Pause()
	go r.Loop()
	ts := httptest.NewServer(NewHTTP(r))
	defer ts.Close()
	defer r.Shutdown()

	code, body := post(t, ts.URL+"/api/config", `{"server": 1, "drain_deadline_ms": 1e10}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "does not fit the simulated clock") {
		t.Fatalf("overflowing drain POST: %d: %s", code, body)
	}
	if code, body := post(t, ts.URL+"/api/step", ""); code != http.StatusOK {
		t.Fatalf("step POST: %d: %s", code, body)
	}
	<-ch
	if st := r.State(); st.Actions != 0 || st.Router.Drains != 0 {
		t.Fatalf("rejected drain reached the run: actions=%d drains=%d", st.Actions, st.Router.Drains)
	}
}
