#!/usr/bin/env bash
# compare.sh — compare two commits on the end-to-end benchmark.
#
# Usage, from the repository root:
#   bash bench/compare.sh A B [PAIRS]
#
# Exports commits A and B with `git archive` into a temporary directory and
# overlays this checkout's bench/ and BENCHMARK.json on both, so the two sides
# run identical benchmark code. For every workload it then runs PAIRS
# (default 10) pairs, seed i for pair i, alternating which side runs first.
# For each end-to-end metric and workload it prints both sides' medians and
# quartiles, how many pairs B won (ties count for neither side), and a
# verdict, using the bounds in BENCHMARK.json:
#
#   improved    B won at least 9/10 of the pairs and the medians differ by
#               more than A's own quartile spread
#   regressed   B's median is worse than A's by more than the bound
#   unresolved  A's quartile spread is wider than the bound, and not every
#               B run beat every A run
#   no worse    otherwise
#
# A run that prints "correct": false is reported and fails the comparison.
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: bench/compare.sh A B [PAIRS]" >&2
	exit 2
fi
A=$(git rev-parse --verify "$1^{commit}")
B=$(git rev-parse --verify "$2^{commit}")
PAIRS=${3:-10}
ROOT=$(git rev-parse --show-toplevel)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

for side in A B; do
	rev=${!side}
	mkdir -p "$WORK/$side"
	git -C "$ROOT" archive "$rev" | tar -x -C "$WORK/$side"
	rm -rf "$WORK/$side/bench"
	cp -R "$ROOT/bench" "$WORK/$side/bench"
	cp "$ROOT/BENCHMARK.json" "$WORK/$side/BENCHMARK.json"
	echo "compare.sh: $side = $rev" >&2
done

SECONDS_PER_RUN=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")
WORKLOADS=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$ROOT/BENCHMARK.json")
RESULTS="$WORK/results.jsonl"

run_side() { # side workload seed
	local line
	line=$(cd "$WORK/$1" && bash bench/run.sh --workload "$2" --seed "$3" \
		--seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
	printf '{"side": "%s", "workload": "%s", "seed": %s, "result": %s}\n' "$1" "$2" "$3" "$line" >>"$RESULTS"
}

for w in $WORKLOADS; do
	for ((i = 1; i <= PAIRS; i++)); do
		if ((i % 2)); then first=A second=B; else first=B second=A; fi
		run_side "$first" "$w" "$i"
		run_side "$second" "$w" "$i"
		echo "compare.sh: $w pair $i/$PAIRS done" >&2
	done
done

python3 - "$RESULTS" "$ROOT/BENCHMARK.json" <<'EOF'
import json, statistics, sys

results = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
bad = [r for r in results if not r["result"].get("correct")]
for r in bad:
    print(f"INCORRECT run: side {r['side']} {r['workload']} seed {r['seed']}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]

print(f"{'workload':<16} {'metric':<20} {'A q1/med/q3':<36} {'B q1/med/q3':<36} {'B wins':>7}  verdict")
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        pairs = {}
        for r in results:
            if r["workload"] == w and r["result"].get("correct"):
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        a = [p["A"] for p in pairs]
        b = [p["B"] for p in pairs]
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(p["B"], p["A"]) for p in pairs)
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        worse = (bm - am) / am if lower else (am - bm) / am
        spread = (a3 - a1) / am if am else 0.0
        all_better = all(better(x, y) for x in b for y in a)
        if wins >= 0.9 * len(pairs) and abs(bm - am) > (a3 - a1):
            verdict = "improved"
        elif worse > bound:
            verdict = "regressed"
        elif spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "no worse"
        fmt = lambda q: "%.4g / %.4g / %.4g" % q
        print(f"{w:<16} {name:<20} {fmt((a1, am, a3)):<36} {fmt((b1, bm, b3)):<36} {wins:>3}/{len(pairs):<3}  {verdict}")
sys.exit(1 if bad else 0)
EOF
