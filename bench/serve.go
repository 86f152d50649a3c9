package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"hardharvest/internal/serve"
	"hardharvest/internal/sim"
)

// scrapePeriod is the in-process scraper's open-loop cadence.
const scrapePeriod = 10 * time.Millisecond

// livePs is GOMAXPROCS while a served run loops: one P for the runner's
// loop, one for the readers beside it.
const livePs = 2

// serveWorkload is a routed serve.RunConfig driven through serve.NewRunner
// and Loop, unpaced, while an in-process open-loop scraper calls
// GET /metrics on serve.NewHTTP every scrapePeriod. No socket is opened.
type serveWorkload struct {
	src        []byte // the RunConfig JSON
	shards     int
	durationMS int
	fileSeed   uint64
}

func newServeWorkload(shards, durationMS int) (*serveWorkload, error) {
	src, err := workloadFiles.ReadFile("workloads/serve-live.json")
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{src: src, shards: shards, durationMS: durationMS}
	cfg, err := w.load(0)
	if err != nil {
		return nil, err
	}
	w.fileSeed = cfg.Seed
	return w, nil
}

// load decodes the RunConfig and applies the run's seed (0 keeps the
// file's).
func (w *serveWorkload) load(seed uint64) (serve.RunConfig, error) {
	var cfg serve.RunConfig
	dec := json.NewDecoder(bytes.NewReader(w.src))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("serve-live.json: %w", err)
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if w.durationMS > 0 {
		cfg.SimMS = w.durationMS
	}
	return cfg, nil
}

func (w *serveWorkload) seed() uint64 { return w.fileSeed }

func (w *serveWorkload) setup(seed uint64) error {
	cfg, err := w.load(seed)
	if err != nil {
		return err
	}
	_, err = serve.NewRunner(cfg, nil, 0)
	return err
}

// liveStats are the serve surface's own measurements of one run.
type liveStats struct {
	barriers    []float64 // host ms between consecutive Subscribe points
	scrapes     []float64 // host ms per /metrics call, from its due time
	lags        []float64 // host ms each scrape started after its due time
	scrapeBusy  time.Duration
	scrapeBytes int
}

// untraced times Loop start to Summary.
func (w *serveWorkload) untraced(seed uint64) (*outcome, error) {
	cfg, err := w.load(seed)
	if err != nil {
		return nil, err
	}
	// NewRunner sizes its shard group from GOMAXPROCS, so it is built while
	// the process runs on procs Ps; the loop then gets livePs, leaving the
	// subscriber and the scraper a P of their own beside it.
	r, err := serve.NewRunner(cfg, nil, 0)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(livePs))
	// One point per barrier: the buffer holds them all, so a slow reader
	// never makes the runner drop one.
	step := sim.Duration(cfg.StepMS) * sim.Millisecond
	points, cancel := r.Subscribe(int(sim.Duration(r.State().Horizon)/step) + 2)
	live := &liveStats{}
	start := time.Now()

	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		last := start
		for range points {
			now := time.Now()
			live.barriers = append(live.barriers, ms(now.Sub(last)))
			last = now
		}
	}()

	stop := make(chan struct{})
	scrapeDone := make(chan string, 1)
	go func() { scrapeDone <- scrape(serve.NewHTTP(r), start, stop, live) }()

	r.Loop()
	summary, done := r.Summary()
	wall := time.Since(start)
	close(stop)
	scrapeFailure := <-scrapeDone
	cancel()
	<-recvDone

	out := &outcome{
		wall:   wall,
		reqs:   r.State().Counters.Completions,
		digest: digest(summary),
		lines:  summaryLines(summary, "  result: ", "  counters: ", "router: ", "  replies: ", "  health: "),
		live:   live,
	}
	switch {
	case !done:
		out.failure = "serve run did not reach its horizon"
	case !strings.Contains(summary, "\noracle: PASS"):
		out.failure = "serve oracle: " + strings.Join(summaryLines(summary, "oracle: "), "")
	case scrapeFailure != "":
		out.failure = scrapeFailure
	}
	return out, nil
}

// scrape calls GET /metrics every scrapePeriod from start until stop is
// closed, timing each call from its due time, and returns the first bad
// response ("" when every scrape succeeded).
func scrape(h http.Handler, start time.Time, stop <-chan struct{}, live *liveStats) string {
	failure := ""
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * scrapePeriod)
		select {
		case <-stop:
			return failure
		case <-time.After(time.Until(due)):
		}
		begin := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		end := time.Now()
		if failure == "" && (rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "hhsim_run_done ")) {
			failure = fmt.Sprintf("scrape %d: status %d, %d bytes", k, rec.Code, rec.Body.Len())
		}
		live.scrapes = append(live.scrapes, ms(end.Sub(due)))
		live.lags = append(live.lags, ms(begin.Sub(due)))
		live.scrapeBusy += end.Sub(begin)
		live.scrapeBytes += rec.Body.Len()
	}
}

// traced rebuilds the runner's routed fleet with the assembler and drives
// it barrier by barrier, as Loop does.
func (w *serveWorkload) traced(seed uint64, tr *tracer) (*outcome, error) {
	start := time.Now()
	end := tr.begin("scenario.load")
	cfg, err := w.load(seed)
	end()
	if err != nil {
		return nil, err
	}
	f, err := assembleServe(cfg, w.shards, tr)
	if err != nil {
		return nil, err
	}
	f.run(tr)
	if err := f.finish(tr); err != nil {
		return nil, err
	}
	failure := f.oracle(tr)
	return &outcome{
		wall:    time.Since(start),
		lines:   append(f.serverLines(), routerLines(f.routeRes)...),
		failure: failure,
		front:   f.frontMetrics(),
	}, nil
}
