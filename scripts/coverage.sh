#!/usr/bin/env bash
# coverage.sh — per-package statement coverage summary with enforced floors.
#
#   scripts/coverage.sh          # print the summary table
#   scripts/coverage.sh -check   # additionally fail if a floored package
#                                # dropped below its pinned minimum
#
# Floors pin the packages that carry the simulator's correctness burden.
# They are set ~1 point under the measured value at the time of pinning:
# tight enough that deleting a test file or landing a large untested
# subsystem fails CI, loose enough that a small refactor does not.
set -euo pipefail
cd "$(dirname "$0")/.."

# package-path floor-percent
FLOORS="
internal/cluster 93.0
internal/sim 91.0
internal/serve 87.0
internal/scenario 85.0
internal/stats 90.0
internal/route 85.0
internal/graph 85.0
internal/front 90.0
"

check=false
[ "${1:-}" = "-check" ] && check=true

out=$(go test -cover ./... 2>&1 | grep -E '^ok' || true)
if [ -z "$out" ]; then
  echo "coverage.sh: go test -cover produced no package results" >&2
  exit 1
fi

printf '%-40s %s\n' "package" "coverage"
fail=0
while IFS= read -r line; do
  pkg=$(echo "$line" | awk '{print $2}' | sed 's,^hardharvest/,,')
  cov=$(echo "$line" | grep -oE '[0-9]+\.[0-9]+% of statements' | grep -oE '^[0-9]+\.[0-9]+' || true)
  [ -z "$cov" ] && cov="0.0"
  floor=$(echo "$FLOORS" | awk -v p="$pkg" '$1 == p {print $2}')
  note=""
  if [ -n "$floor" ]; then
    note="(floor ${floor}%)"
    if $check && awk -v c="$cov" -v f="$floor" 'BEGIN{exit !(c < f)}'; then
      note="(floor ${floor}% — FAIL)"
      fail=1
    fi
  fi
  printf '%-40s %6s%% %s\n' "$pkg" "$cov" "$note"
done <<< "$out"

if [ "$fail" -ne 0 ]; then
  echo >&2
  echo "coverage.sh: a floored package dropped below its pinned minimum" >&2
  exit 1
fi
