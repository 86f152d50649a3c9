package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hardharvest/internal/serve"
)

// serveMain implements the `hhsim serve` subcommand: a long-lived
// simulation server with a Prometheus /metrics endpoint and a REST control
// surface (see internal/serve). It prints the listen address to stderr
// (machine-readable for tests), the end-of-run summary to stdout when the
// horizon is reached, and keeps serving until POST /api/shutdown or a
// signal. With -replay it runs headless: the action log is replayed and
// only the summary is printed.
func serveMain(args []string) {
	fs := flag.NewFlagSet("hhsim serve", flag.ExitOnError)
	cfg := serve.DefaultRunConfig()
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (use :0 for an ephemeral port)")
	fs.StringVar(&cfg.System, "system", cfg.System, "system architecture (e.g. HardHarvest-Block, NoHarvest)")
	fs.StringVar(&cfg.Workload, "workload", cfg.Workload, "harvest VM batch workload (e.g. BFS)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.WarmupMS, "warmup-ms", cfg.WarmupMS, "warmup window [simulated ms]")
	fs.IntVar(&cfg.SimMS, "sim-ms", cfg.SimMS, "measurement window [simulated ms]")
	fs.IntVar(&cfg.StepMS, "step-ms", cfg.StepMS, "barrier cadence [simulated ms]")
	pace := fs.Float64("pace", 0, "simulated seconds per wall second (0 = as fast as possible)")
	paused := fs.Bool("paused", false, "start with the pacing loop paused (advance via POST /api/step or /api/resume)")
	actionLog := fs.String("actionlog", "", "append applied control actions to this NDJSON file (replayable)")
	replay := fs.String("replay", "", "replay an action log headless and print its summary")
	routed := fs.Bool("routed", false, "serve a routed fleet behind a front-door router instead of one server")
	backends := fs.Int("backends", 3, "fleet size (with -routed) or servers per tier group (with -graph)")
	policy := fs.String("policy", "", "routing policy: round_robin, least_outstanding, weighted (with -routed)")
	graphName := fs.String("graph", "", "serve a request-DAG fleet over a built-in graph (socialnet); exclusive with -routed")
	fs.Parse(args)

	// Assign the fleet fields only in fleet modes: routerless config JSON
	// (the action-log header, /api/state) must stay byte-identical to
	// pre-fleet builds.
	if *routed && *graphName != "" {
		fmt.Fprintln(os.Stderr, "-routed and -graph are exclusive")
		os.Exit(2)
	}
	if *routed {
		cfg.Routed = true
		cfg.Backends = *backends
		cfg.Policy = *policy
	}
	if *graphName != "" {
		cfg.Graph = *graphName
		cfg.Backends = *backends
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		summary, err := serve.Replay(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(summary)
		return
	}

	var logW *os.File
	if *actionLog != "" {
		f, err := os.Create(*actionLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logW = f
		defer f.Close()
	}

	runner, err := newServeRunner(cfg, logW, *pace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *paused {
		runner.Pause()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Announce the bound address on stderr before serving: tests and
	// scripts listen for this line to learn the ephemeral port.
	fmt.Fprintf(os.Stderr, "hhsim serve: listening on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: serve.NewHTTP(runner)}
	go hs.Serve(ln)

	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		runner.Loop()
		if summary, ok := runner.Summary(); ok {
			fmt.Print(summary)
			fmt.Fprintf(os.Stderr, "hhsim serve: run complete (still serving; POST /api/shutdown to exit)\n")
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case <-runner.ShutdownRequested():
	case <-sigCh:
		runner.Shutdown()
	}
	<-loopDone
	// Shutdown, not Close: the POST /api/shutdown that got us here is still
	// writing its response, and Close would cut it off (the client sees
	// EOF). The deadline bounds how long a stuck client can hold the exit.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	cancel()
	if logW != nil {
		logW.Sync()
	}
}

// newServeRunner keeps the nil-interface subtlety out of serveMain: passing
// a nil *os.File directly would hand serve a non-nil io.Writer wrapping a
// nil pointer.
func newServeRunner(cfg serve.RunConfig, logW *os.File, pace float64) (*serve.Runner, error) {
	if logW == nil {
		return serve.NewRunner(cfg, nil, pace)
	}
	return serve.NewRunner(cfg, logW, pace)
}
