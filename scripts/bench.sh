#!/usr/bin/env bash
# Regenerates the perf-trajectory point for the current revision: the full
# experiment suite as machine-readable JSON, run sequentially (-workers 1)
# and without wall times (-stable) so the tables are byte-reproducible, plus
# a `timings` block of wall-clock ns/op figures for the solver and search
# benchmarks (BenchmarkRevisedSolve*: the E7 and serving sizes, each a
# verified cascade solve like every revised solve; BenchmarkBatchSolve*,
# BenchmarkModelBatch*, and BenchmarkOptSearch{AStar,Dijkstra}*: the exact
# engine and its blind reference) plus the incremental-path pairs
# (BenchmarkDualResolve*, BenchmarkModelExtendResolve/BenchmarkModelColdResolve,
# BenchmarkReplayIncrementalStep/BenchmarkReplayColdStep — the last pair's
# ratio is the trace-replay speedup pcbench -replay reports), plus the
# serving benchmark's own solves (BenchmarkLPColdCensus: lp-cold's 126
# instances, once per op; BenchmarkLPColdCensusTied: the same tie-broken),
# so the perf trajectory is tracked alongside the counters.  Timings are
# informational: cmd/benchdiff never compares them.
#
# Usage: scripts/bench.sh [output-file]
#
# Without an argument the output goes to the next unused BENCH_N.json, so a
# new PR appends a trajectory point instead of silently overwriting the
# oldest one.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-}"
if [ -z "$out" ]; then
	n=1
	while [ -e "BENCH_${n}.json" ]; do
		n=$((n + 1))
	done
	out="BENCH_${n}.json"
fi
bench=$(mktemp /tmp/bench-timings.XXXXXX)
trap 'rm -f "$bench"' EXIT
echo "running solver/search benchmarks for the timings block ..."
go test -run '^$' -bench 'BenchmarkRevisedSolve|BenchmarkBatchSolve|BenchmarkModelBatch|BenchmarkOptSearch|BenchmarkDualResolve|BenchmarkModelExtendResolve|BenchmarkModelColdResolve|BenchmarkReplay|BenchmarkLPColdCensus' ./... > "$bench"
go run ./cmd/pcbench -json -stable -workers 1 -timings "$bench" > "$out"
echo "wrote $out"
