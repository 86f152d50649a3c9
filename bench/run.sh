#!/usr/bin/env bash
# run.sh — build the end-to-end benchmark from source and run it.
#
# Usage, from the repository root:
#   bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
#
# The benchmark is its own Go module (bench/go.mod) that uses this checkout's
# packages through a replace directive. The binary, the Go build cache, Go's
# temporary files and the Perfetto traces all stay under .bench_build/ in the
# current directory; nothing is downloaded. Build errors exit non-zero before
# anything is printed on standard output.
set -euo pipefail

out="$(pwd)/.bench_build"
bench="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/tmp"

(
	cd "$bench"
	GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOWORK=off \
		GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$out/hhbench" . >&2
)
exec "$out/hhbench" "$@"
