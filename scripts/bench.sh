#!/usr/bin/env bash
# bench.sh — run the performance-pinning benchmarks and write
# BENCH_baseline.json (ns/op, allocs/op and B/op per benchmark).
#
# Usage:
#   scripts/bench.sh              # run + rewrite BENCH_baseline.json
#   scripts/bench.sh -check      # run + diff against the baseline:
#                                 - allocs/op: fails if any benchmark
#                                   allocates more than the committed number
#                                   + 10% slack
#                                 - B/op: fails if any benchmark allocates
#                                   more bytes than the committed number +
#                                   5% + 1 KiB (BYTES_SLACK, BYTES_FLOOR);
#                                   the 1 KiB absorbs the runtime's own
#                                   small allocations in the short runs
#                                 - ns/op: fails if a gated benchmark (the
#                                   end-to-end hot paths listed in NS_GATED)
#                                   runs more than BENCH_NS_SLACK (default
#                                   3%) over the baseline; other benchmarks
#                                   are reported only. Set BENCH_SKIP_NS=1 on
#                                   hardware that does not match the pinning
#                                   machine.
#
# ns-gated benchmarks run with -count 5 and are scored on the per-benchmark
# minimum (min-of-5 strips scheduler/turbo noise far better than a mean);
# the remaining benchmarks are allocation pins, which are deterministic, so
# one repeat suffices. The engine microbenchmarks (ENGINE_RE) time one
# queue operation of tens of nanoseconds, so they run at ENGINE_BENCHTIME
# iterations, min-of-5, where their ns/op reads the operation rather than
# timer and warm-up noise. Every tripped gate is reported with its measured
# and pinned values.
#
# The baseline is committed so reviewers can see the pinned numbers and CI
# can gate on allocation and hot-path-latency regressions.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
[[ "${1:-}" == "-check" ]] && CHECK=1

# ns-gated: end-to-end hot paths (the server loop carries the always-on
# invariant checker; the sharded path carries the fleet runner). The
# allocation pins cover one benchmark per layer: controller
# (BenchmarkControllerCycle), engine, server (hardware and, through
# BenchmarkServerSoftware, software harvesting), shard group, router
# (BenchmarkRoutedFleet), DAG dispatcher (BenchmarkGraphDispatch), scenario
# runner (BenchmarkScenarioRun, one sub-benchmark per scenarios/ file), and
# the live serve runner (BenchmarkServeStep routed, BenchmarkServeSingle on
# one server).
NS_GATED_RE='BenchmarkServerSimulation$'
ENGINE_RE='BenchmarkEngine(ScheduleCall|ScheduleClosure|HeapChurn|Hold)$'
ENGINE_BENCHTIME=200000x
OTHER_RE='BenchmarkControllerCycle$|BenchmarkServerNilObserver|BenchmarkShardedVsSerial|BenchmarkRoutedFleet$|BenchmarkGraphDispatch$|BenchmarkScenarioRun$|BenchmarkServerSoftware$|BenchmarkServeStep$|BenchmarkServeSingle$'
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

# -benchtime 5x keeps the suite fast while still amortising setup.
go test -run '^$' -bench "$NS_GATED_RE" -benchtime 5x -benchmem -count 5 ./... 2>&1 | tee "$OUT"
go test -run '^$' -bench "$ENGINE_RE" -benchtime "$ENGINE_BENCHTIME" -benchmem -count 5 ./internal/sim/ 2>&1 | tee -a "$OUT"
go test -run '^$' -bench "$OTHER_RE" -benchtime 5x -benchmem -count 1 ./... 2>&1 | tee -a "$OUT"

python3 - "$OUT" "$CHECK" <<'EOF'
import json, os, re, sys

out_path, check = sys.argv[1], sys.argv[2] == "1"
rows = {}
pat = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op"
)
for line in open(out_path):
    m = pat.match(line.strip())
    if m:
        name, ns = m.group(1), float(m.group(2))
        nbytes, allocs = int(m.group(3)), int(m.group(4))
        row = rows.setdefault(name, {"ns_per_op": ns, "allocs_per_op": allocs, "bytes_per_op": nbytes})
        # min ns/op across -count repeats; allocs/op and B/op take the
        # largest repeat, so a pin covers every run it was measured on.
        row["ns_per_op"] = min(row["ns_per_op"], ns)
        row["allocs_per_op"] = max(row["allocs_per_op"], allocs)
        row["bytes_per_op"] = max(row["bytes_per_op"], nbytes)

if not rows:
    sys.exit("bench.sh: no benchmark results parsed")

NS_GATED = {"BenchmarkServerSimulation"}  # must mirror NS_GATED_RE above
NS_SLACK = float(os.environ.get("BENCH_NS_SLACK", "0.03"))
BYTES_SLACK = 0.05  # B/op budget: pinned * (1 + BYTES_SLACK) + BYTES_FLOOR
BYTES_FLOOR = 1024
SKIP_NS = os.environ.get("BENCH_SKIP_NS", "") == "1"

if check:
    base = json.load(open("BENCH_baseline.json"))["benchmarks"]
    tripped = []
    for name, got in sorted(rows.items()):
        want = base.get(name)
        if want is None:
            print(f"  new benchmark (not in baseline): {name}")
            continue
        budget = int(want["allocs_per_op"] * 1.10) + 8
        status = "ok"
        if got["allocs_per_op"] > budget:
            status = "REGRESSION"
            tripped.append(
                f"{name}: measured {got['allocs_per_op']} allocs/op vs "
                f"pinned {want['allocs_per_op']} (budget {budget})")
        print(f"  {name}: {got['allocs_per_op']} allocs/op "
              f"(pinned {want['allocs_per_op']}, budget {budget}) {status}")
        if "bytes_per_op" in want:
            b_budget = int(want["bytes_per_op"] * (1 + BYTES_SLACK)) + BYTES_FLOOR
            b_status = "ok"
            if got["bytes_per_op"] > b_budget:
                b_status = "REGRESSION"
                tripped.append(
                    f"{name}: measured {got['bytes_per_op']} B/op vs "
                    f"pinned {want['bytes_per_op']} (budget {b_budget}, "
                    f"slack {BYTES_SLACK:.0%} + {BYTES_FLOOR} B)")
            print(f"  {name}: {got['bytes_per_op']} B/op "
                  f"(pinned {want['bytes_per_op']}, budget {b_budget}) {b_status}")
        else:
            print(f"  {name}: {got['bytes_per_op']} B/op (not pinned)")
        if name in NS_GATED and not SKIP_NS:
            ns_budget = want["ns_per_op"] * (1 + NS_SLACK)
            ns_status = "ok"
            if got["ns_per_op"] > ns_budget:
                ns_status = "REGRESSION"
                tripped.append(
                    f"{name}: measured {got['ns_per_op']:.0f} ns/op min-of-5 vs "
                    f"pinned {want['ns_per_op']:.0f} (budget {ns_budget:.0f}, "
                    f"slack {NS_SLACK:.0%})")
            print(f"  {name}: {got['ns_per_op']:.0f} ns/op min-of-5 "
                  f"(pinned {want['ns_per_op']:.0f}, budget {ns_budget:.0f}, "
                  f"slack {NS_SLACK:.0%}) {ns_status}")
    if tripped:
        print("bench.sh: benchmark gate tripped:")
        for line in tripped:
            print(f"  REGRESSION {line}")
        sys.exit(1)
    sys.exit(0)
else:
    doc = {
        "note": "Pinned by scripts/bench.sh; allocs/op (10% slack) and B/op "
                "(5% slack + 1 KiB) are gated for every benchmark, ns/op is "
                "gated (3% slack, min-of-5) for BenchmarkServerSimulation "
                "and informational elsewhere.",
        "benchmarks": dict(sorted(rows.items())),
    }
    with open("BENCH_baseline.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print("wrote BENCH_baseline.json")
EOF
