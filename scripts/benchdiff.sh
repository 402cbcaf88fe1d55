#!/usr/bin/env bash
# Bench-regression guard: regenerates the stable experiment JSON and diffs
# its tables against EVERY committed BENCH_*.json trajectory point (a PR
# that records a new point would otherwise be compared only against itself).
# Fails on unexplained row changes — engine-effort columns (expansions,
# pivots) may move and new columns/rows may appear, but historical schedule
# values may not change unless REBASELINE.json records the change, and every
# entry of that record must be used by some baseline (see cmd/benchdiff for
# the exact policy).
#
# Usage: scripts/benchdiff.sh [baseline.json ...]   (default: all BENCH_N.json;
# the record's entries must all be used by the baselines given)
set -euo pipefail
cd "$(dirname "$0")/.."

baselines=("$@")
if [ ${#baselines[@]} -eq 0 ]; then
	mapfile -t baselines < <(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n)
	if [ ${#baselines[@]} -eq 0 ]; then
		echo "benchdiff: no committed BENCH_*.json baseline found" >&2
		exit 2
	fi
fi

current=$(mktemp /tmp/benchdiff.XXXXXX.json)
trap 'rm -f "$current"' EXIT
echo "regenerating experiment tables (sequential, stable) ..."
go run ./cmd/pcbench -json -stable -workers 1 > "$current"
go build -o /tmp/benchdiff-bin ./cmd/benchdiff
/tmp/benchdiff-bin REBASELINE.json "${baselines[@]}" "$current"
