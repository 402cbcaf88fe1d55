#!/usr/bin/env bash
# Allocation-regression guard for the hot paths:
#
#  * The pooled LP solve paths (reused Solver, see BenchmarkLPSolveRevised /
#    BenchmarkLPSolveFlat) must stay O(1) allocs per solve — that property is
#    what keeps the E7/E8 sweeps allocation-free in steady state.
#  * The revised solver's engine (internal/lp's BenchmarkRevisedSolveE7Size)
#    must keep its working state — steepest-edge weight arrays, the sparse
#    pivot-row accumulator, and the LU factorization workspace — on the
#    reusable Solver: a cold solve on warmed buffers allocates only the
#    Solution, its X vector and the certificate's dual copy, so the same
#    MAX_ALLOCS bound applies, also at serving size
#    (BenchmarkRevisedSolveServeSize, n=40, D=3).  Every revised solve runs
#    the verified cascade, so these benchmarks also guarantee that the
#    certificate check never adds per-solve allocations beyond that copy.
#  * The batched LP paths must hold their amortization promises:
#    BenchmarkBatchSolveE7Size (internal/lp) runs twelve cold E7-size solves
#    (six models, each solved twice) through one lp.Batch, where steady
#    state is two allocations per solve (the Solution and its X vector — the
#    solver buffers and the duals copy live in the batch), so the op-level
#    bound is 24; BenchmarkModelBatchBuild (root)
#    rebuilds two E7-sized models per op through lpmodel.BuildInto, whose
#    remaining allocations are the per-instance block index plus map/closure
#    small change, bounded at 64 per op.
#  * The incremental solve path (internal/lpmodel's
#    BenchmarkModelExtendResolve: one appended request, one warm dual
#    re-solve) allocates O(rows added by the extension) — growth appends on
#    the Problem arenas plus the re-solve's Solution — a small constant
#    (186 at the 16 iterations run here) on the E7-sized workload.  A
#    regression to rebuilding or re-factorizing per step would scale with
#    the whole program (tens of thousands), so the 512 bound has margin
#    without masking one.
#  * The exact-search engine (BenchmarkOptSearchAStar*) must keep its flat
#    arena + open-addressing memory layer: its allocs/op on a fixed instance
#    is a small constant (per-search tables, the schedule, and growth
#    doublings of the fetch records and queue buckets), while a
#    regression to per-node allocation would scale with the ~50k states of
#    the E7-sized search and blow far past the limit.
#
# Runs the benchmarks once (-benchtime 1x; the LP ones warm the solver up
# before the timer) and fails if allocs/op exceeds the per-group limits.
set -euo pipefail
cd "$(dirname "$0")/.."
MAX_ALLOCS="${MAX_ALLOCS:-8}"
MAX_OPT_ALLOCS="${MAX_OPT_ALLOCS:-2000}"
MAX_BATCH_ALLOCS="${MAX_BATCH_ALLOCS:-24}"
MAX_BATCH_BUILD_ALLOCS="${MAX_BATCH_BUILD_ALLOCS:-64}"
MAX_EXTEND_ALLOCS="${MAX_EXTEND_ALLOCS:-512}"
out=$(go test -run '^$' -bench 'BenchmarkLPSolve(Revised|Flat)$|BenchmarkOptSearchAStar|BenchmarkModelBatchBuild$' -benchmem -benchtime 1x .)
lpout=$(go test -run '^$' -bench 'BenchmarkRevisedSolveE7Size$|BenchmarkRevisedSolveServeSize$|BenchmarkBatchSolveE7Size$' -benchmem -benchtime 1x ./internal/lp)
extout=$(go test -run '^$' -bench 'BenchmarkModelExtendResolve$' -benchmem -benchtime 16x ./internal/lpmodel)
out=$(printf '%s\n%s\n%s' "$out" "$lpout" "$extout")
echo "$out"
echo "$out" | awk -v max="$MAX_ALLOCS" -v optmax="$MAX_OPT_ALLOCS" \
	-v batchmax="$MAX_BATCH_ALLOCS" -v batchbuildmax="$MAX_BATCH_BUILD_ALLOCS" \
	-v extendmax="$MAX_EXTEND_ALLOCS" '
	/^BenchmarkLPSolve|^BenchmarkRevisedSolve/ {
		allocs = $(NF-1)
		if (allocs + 0 > max + 0) {
			printf "FAIL: %s allocates %s allocs/op (max %s)\n", $1, allocs, max
			bad = 1
		}
	}
	/^BenchmarkBatchSolve/ {
		allocs = $(NF-1)
		if (allocs + 0 > batchmax + 0) {
			printf "FAIL: %s allocates %s allocs/op (max %s)\n", $1, allocs, batchmax
			bad = 1
		}
	}
	/^BenchmarkModelBatchBuild/ {
		allocs = $(NF-1)
		if (allocs + 0 > batchbuildmax + 0) {
			printf "FAIL: %s allocates %s allocs/op (max %s)\n", $1, allocs, batchbuildmax
			bad = 1
		}
	}
	/^BenchmarkModelExtendResolve/ {
		allocs = $(NF-1)
		if (allocs + 0 > extendmax + 0) {
			printf "FAIL: %s allocates %s allocs/op (max %s)\n", $1, allocs, extendmax
			bad = 1
		}
	}
	/^BenchmarkOptSearchAStar/ {
		allocs = $(NF-1)
		if (allocs + 0 > optmax + 0) {
			printf "FAIL: %s allocates %s allocs/op (max %s)\n", $1, allocs, optmax
			bad = 1
		}
	}
	END {
		if (!bad) printf "alloc guard OK (LP max %s, batch max %s/%s, extend max %s, opt max %s allocs/op)\n", max, batchmax, batchbuildmax, extendmax, optmax
		exit bad
	}'
