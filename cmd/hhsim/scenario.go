package main

import (
	"flag"
	"fmt"
	"os"

	"hardharvest/internal/scenario"
)

// scenarioMain implements `hhsim run <scenario>` and `hhsim validate
// <scenario...>`.
//
// validate parses and semantically checks each file without running
// anything: exit 0 when every file is well-formed, 1 otherwise, with one
// "file:line: field: why" diagnostic per rejected file.
//
// run executes one scenario and prints its deterministic summary. Exit 0
// when every declared assertion and implicit oracle check passes, 1 when
// any fails (or the run itself errors), 2 for a malformed scenario or
// usage.
func scenarioMain(cmd string, args []string) int {
	fs := flag.NewFlagSet("hhsim "+cmd, flag.ContinueOnError)
	shards := fs.Int("shards", 0,
		"worker goroutines for the sharded fleet runner (0 = all CPUs); the summary is byte-identical at any value")
	perturb := fs.String("perturb", "",
		"corrupt a ledger to prove an oracle has teeth (fields: fleet-conservation, graph-mc)")
	strict := fs.Bool("strict", false,
		"panic on the first invariant violation with replay info (instead of counting violations)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	fs.Usage = func() {
		if cmd == "run" {
			fmt.Fprintf(os.Stderr, "usage: hhsim run [-shards n] [-strict] [-perturb fleet-conservation|graph-mc] [-cpuprofile f] [-memprofile f] <scenario.(yaml|json)>\n")
			fmt.Fprintf(os.Stderr, "  runs one fleet scenario and prints its summary; exit 1 if assertions fail\n")
		} else {
			fmt.Fprintf(os.Stderr, "usage: hhsim validate <scenario.(yaml|json)>...\n")
			fmt.Fprintf(os.Stderr, "  parses + semantically checks scenarios without running them\n")
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fs.Usage()
		return 2
	}

	if cmd == "validate" {
		if *perturb != "" {
			fmt.Fprintln(os.Stderr, "-perturb only applies to run")
			return 2
		}
		if *strict {
			fmt.Fprintln(os.Stderr, "-strict only applies to run")
			return 2
		}
		if *cpuProfile != "" || *memProfile != "" {
			fmt.Fprintln(os.Stderr, "-cpuprofile and -memprofile only apply to run")
			return 2
		}
		rc := 0
		for _, path := range files {
			sc, err := scenario.Load(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				rc = 1
				continue
			}
			fmt.Printf("ok: %s: scenario %q, %d servers, %d timeline entries, %d events, %d assertions\n",
				path, sc.Name, sc.Servers(), len(sc.Workload), len(sc.Events), len(sc.Assertions))
		}
		return rc
	}

	if len(files) != 1 {
		fs.Usage()
		return 2
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rc := runScenario(files[0], *shards, *strict, *perturb)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return rc
}

// runScenario loads, runs and summarises one scenario for `hhsim run`,
// returning its exit code.
func runScenario(path string, shards int, strict bool, perturb string) int {
	sc, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sc.Strict = strict
	switch perturb {
	case "":
	case "fleet-conservation":
		if sc.Routing == nil {
			fmt.Fprintln(os.Stderr, "-perturb fleet-conservation needs a routed scenario (routing block)")
			return 2
		}
		sc.PerturbFleet = true
	case "graph-mc":
		if sc.Graph == nil {
			fmt.Fprintln(os.Stderr, "-perturb graph-mc needs a DAG scenario (graph block)")
			return 2
		}
		sc.PerturbGraphMC = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -perturb field %q (fields: fleet-conservation, graph-mc)\n", perturb)
		return 2
	}
	rep, err := sc.RunShards(shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(rep.Summary)
	if !rep.OK() {
		return 1
	}
	return 0
}
