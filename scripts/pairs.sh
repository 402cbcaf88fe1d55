#!/usr/bin/env bash
# Paired serving-benchmark runs of two checkouts, for a speed claim.
#
# Usage: scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED...
#
# For every seed it runs servebench/run.sh once in each checkout at
# BENCHMARK.json's run_seconds, untraced, flipping which side runs first from
# one pair to the next (the parent first on the first seed).  Every run's
# output is kept in OUT (PAIRS_OUT, default a new directory under /tmp) as
# <side>-seed<N>.log, and its result line is appended to parent.jsonl or
# change.jsonl.  cmd/benchpairs then prints, per end-to-end metric, each
# side's median and quartiles, the change's wins and whether the median gap
# exceeds the parent's IQR, and each side's failed ops.
#
# run.sh builds into .bench_build/ at each checkout's root; nothing is
# written under servebench/.  A run that answers wrongly (exit 1) still
# yields its result line; any other failure stops the script.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)

if [ $# -lt 4 ]; then
	echo "usage: scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED..." >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$here/BENCHMARK.json")
out=${PAIRS_OUT:-$(mktemp -d /tmp/pairs.XXXXXX)}
mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"
echo "pairs: $workload at ${seconds}s, seeds $*, output in $out"

# run SIDE DIR SEED runs one benchmark and keeps its result line.
run() {
	local log="$out/$1-seed$3.log" status=0
	(cd "$2" && bash servebench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) \
		> "$log" 2>&1 || status=$?
	if [ "$status" -gt 1 ] || ! tail -n 1 "$log" | grep -q '^{'; then
		echo "pairs: $1 run of seed $3 failed (exit $status), see $log" >&2
		exit 1
	fi
	tail -n 1 "$log" >> "$out/$1.jsonl"
	echo "pairs: seed $3 $1: $(tail -n 1 "$log")"
}

first=parent
for seed in "$@"; do
	if [ "$first" = parent ]; then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
		first=change
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
		first=parent
	fi
done
cd "$here"
go run ./cmd/benchpairs BENCHMARK.json "$out/parent.jsonl" "$out/change.jsonl"
