// Package pfcache's root benchmark harness regenerates every experiment of
// EXPERIMENTS.md as a testing.B benchmark, so that
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results (the per-experiment tables are printed once
// per benchmark) and additionally measures the cost of the main algorithmic
// building blocks.  The BenchmarkLP* group watches the hot path of the
// E7/E8 sweeps (the simplex solver of internal/lp and the model builder of
// internal/lpmodel) and is what the CI allocation guard checks; internal/lp's
// own benchmarks compare the revised simplex against the flat-tableau path
// and the retired dense reference implementation.
package pfcache_test

import (
	"fmt"
	"sync"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/experiments"
	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/parallel"
	"pfcache/internal/report"
	"pfcache/internal/sim"
	"pfcache/internal/single"
	"pfcache/internal/workload"
)

// printOnce ensures each experiment table is printed a single time even
// though the benchmark body runs b.N times.
var printOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab *report.Table
	for i := 0; i < b.N; i++ {
		tab, err = exp.Run(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done && tab != nil {
		fmt.Printf("\n%s\n", tab)
	}
}

// Experiment benchmarks: one per table of the experiment index in
// EXPERIMENTS.md.

func BenchmarkE1IntroExample(b *testing.B)            { runExperiment(b, "E1") }
func BenchmarkE2IntroParallelExample(b *testing.B)    { runExperiment(b, "E2") }
func BenchmarkE3AggressiveRatio(b *testing.B)         { runExperiment(b, "E3") }
func BenchmarkE4AggressiveLowerBound(b *testing.B)    { runExperiment(b, "E4") }
func BenchmarkE5DelaySweep(b *testing.B)              { runExperiment(b, "E5") }
func BenchmarkE6Combination(b *testing.B)             { runExperiment(b, "E6") }
func BenchmarkE7ParallelLPOptimal(b *testing.B)       { runExperiment(b, "E7") }
func BenchmarkE8ParallelHeuristics(b *testing.B)      { runExperiment(b, "E8") }
func BenchmarkA1SynchronizationAblation(b *testing.B) { runExperiment(b, "A1") }
func BenchmarkA2EvictionAblation(b *testing.B)        { runExperiment(b, "A2") }

// Component micro-benchmarks: cost of the individual building blocks on a
// medium workload, so regressions in the substrates are visible without
// running the full experiment suite.

func mediumSingleDiskInstance() *core.Instance {
	return core.SingleDisk(workload.Zipf(2000, 128, 1.1, 7), 32, 8)
}

func mediumParallelInstance() *core.Instance {
	seq := workload.Interleaved(600, 3, 24)
	return workload.Instance(seq, 16, 6, 3, workload.AssignStripe, 7)
}

func BenchmarkAlgorithmAggressive(b *testing.B) {
	in := mediumSingleDiskInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := single.Aggressive(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmConservative(b *testing.B) {
	in := mediumSingleDiskInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := single.Conservative(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmDelayBest(b *testing.B) {
	in := mediumSingleDiskInstance()
	d0 := single.BestDelay(in.F)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := single.Delay(in, d0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmParallelAggressive(b *testing.B) {
	in := mediumParallelInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Aggressive(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleExecutor(b *testing.B) {
	in := mediumSingleDiskInstance()
	sched, err := single.Aggressive(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(in, sched, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveOptimalSmall(b *testing.B) {
	seq := workload.Uniform(14, 7, 3)
	in := workload.Instance(seq, 3, 2, 2, workload.AssignStripe, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimal(in, opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The BenchmarkOptSearch* group tracks the exact-search engine of
// internal/opt on the instance sizes of experiment E7: the old size (n=11,
// the pre-rewrite ceiling) and the new size (n=22, D=3, unlocked by the
// A*/branch-and-bound rewrite).  The AStar/Dijkstra pairs keep the informed
// engine comparable with the blind uniform-cost reference; CI's bench smoke
// runs the group and scripts/allocguard.sh bounds the AStar paths' allocs/op.

func optSearchOldSizeInstance() *core.Instance {
	seq := workload.Uniform(11, 6, 900)
	return workload.Instance(seq, 3, 2, 3, workload.AssignStripe, 0)
}

func optSearchE7SizeInstance() *core.Instance {
	seq := workload.Uniform(22, 10, 900)
	return workload.Instance(seq, 4, 4, 3, workload.AssignStripe, 0)
}

func benchOptSearch(b *testing.B, in *core.Instance, opts opt.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimal(in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptSearchAStarOldSize(b *testing.B) {
	benchOptSearch(b, optSearchOldSizeInstance(), opt.Options{})
}

func BenchmarkOptSearchDijkstraOldSize(b *testing.B) {
	benchOptSearch(b, optSearchOldSizeInstance(), opt.Options{Bound: opt.BoundNone, NoHeuristic: true})
}

func BenchmarkOptSearchAStarE7Size(b *testing.B) {
	benchOptSearch(b, optSearchE7SizeInstance(), opt.Options{})
}

func BenchmarkOptSearchDijkstraE7Size(b *testing.B) {
	benchOptSearch(b, optSearchE7SizeInstance(), opt.Options{Bound: opt.BoundNone, NoHeuristic: true})
}

// BenchmarkOptSearchLandmarkE7Size isolates the landmark layer's cost on the
// E7-sized search: matching bound plus the precomputed landmark table, with
// dominance merging off.  Compare with MatchingE7Size for what the landmark
// table buys, with AStarE7Size (the full engine) for what dominance saves and
// with DijkstraE7Size for what the bounds save.
func BenchmarkOptSearchLandmarkE7Size(b *testing.B) {
	benchOptSearch(b, optSearchE7SizeInstance(), opt.Options{NoDominance: true})
}

// BenchmarkOptSearchMatchingE7Size is the E7-sized search on the per-state
// matching bound alone, landmarks and dominance off: the baseline
// LandmarkE7Size must beat for the landmark table to earn its place.
func BenchmarkOptSearchMatchingE7Size(b *testing.B) {
	benchOptSearch(b, optSearchE7SizeInstance(), opt.Options{NoLandmarks: true, NoDominance: true})
}

func BenchmarkLPRelaxation(b *testing.B) {
	seq := workload.Uniform(18, 8, 3)
	in := workload.Instance(seq, 4, 3, 2, workload.AssignStripe, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lpmodel.LowerBound(in, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem4Pipeline(b *testing.B) {
	seq := workload.Uniform(16, 7, 5)
	in := workload.Instance(seq, 4, 3, 2, workload.AssignStripe, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lpmodel.Plan(in, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = workload.Zipf(5000, 256, 1.1, int64(i))
	}
}

// e7SizedModel builds the synchronized-schedule LP at the size used by the
// E7 sweep (the hot path motivating the flat solver).
func e7SizedModel(b *testing.B) *lpmodel.Model {
	b.Helper()
	seq := workload.Uniform(11, 6, 900)
	in := workload.Instance(seq, 3, 2, 3, workload.AssignStripe, 0)
	m, err := lpmodel.Build(in)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchLPSolve measures repeated solves of the E7-sized model with a reused
// Solver: the steady-state cost of one simplex solve in the sweeps.  A few
// untimed warm-up solves populate the buffers — the first runs the cold
// path, the rest the warm-started path a re-solved Model takes (the model
// captures its optimal basis, so every subsequent solve replays it; the LU
// workspace keeps growing for a couple of factorizations because each one
// permutes the basis rows) — so even -benchtime 1x (the CI allocation
// guard) reports the steady-state allocs/op.
func benchLPSolve(b *testing.B, opts lp.Options) {
	m := e7SizedModel(b)
	solver := lp.NewSolver()
	for warmup := 0; warmup < 4; warmup++ {
		if _, err := m.SolveWith(solver, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveWith(solver, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSolveRevised is the production revised-simplex path (the
// default).  Compare with BenchmarkDenseSolveE7Size in internal/lp for the
// pre-refactor dense path.
func BenchmarkLPSolveRevised(b *testing.B) {
	benchLPSolve(b, lp.Options{Method: lp.MethodRevised})
}

// BenchmarkLPSolveFlat is the PR-1 flat-tableau path on the same model.
func BenchmarkLPSolveFlat(b *testing.B) {
	benchLPSolve(b, lp.Options{Method: lp.MethodFlat})
}

// BenchmarkLPModelBuild measures constructing the synchronized-schedule LP
// (variable enumeration plus sparse constraint ingestion) at the E7 size.
func BenchmarkLPModelBuild(b *testing.B) {
	seq := workload.Uniform(11, 6, 900)
	in := workload.Instance(seq, 3, 2, 3, workload.AssignStripe, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lpmodel.Build(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelBatchBuild measures the arena-backed rebuild path behind
// lpmodel.ModelBatch: two E7-sized instances alternately rebuilt into one
// Model with BuildInto, so every iteration performs two full builds (the
// shapes differ, so nothing short-circuits) against converged buffers —
// interval tables, variable maps, constraint scratch and the Problem's
// coefficient arena are all reused.  Compare with BenchmarkLPModelBuild for
// the from-scratch cost of the same builds; scripts/allocguard.sh bounds
// this path's allocs/op.
func BenchmarkModelBatchBuild(b *testing.B) {
	seq1 := workload.Uniform(11, 6, 900)
	in1 := workload.Instance(seq1, 3, 2, 3, workload.AssignStripe, 0)
	seq2 := workload.Uniform(11, 6, 901)
	in2 := workload.Instance(seq2, 3, 2, 3, workload.AssignStripe, 0)
	var m lpmodel.Model
	for warmup := 0; warmup < 4; warmup++ {
		if err := lpmodel.BuildInto(&m, in1); err != nil {
			b.Fatal(err)
		}
		if err := lpmodel.BuildInto(&m, in2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lpmodel.BuildInto(&m, in1); err != nil {
			b.Fatal(err)
		}
		if err := lpmodel.BuildInto(&m, in2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecTrace measures the schedule executor with event tracing
// enabled, the mode the debugging tools and pcsim use.
func BenchmarkExecTrace(b *testing.B) {
	in := mediumSingleDiskInstance()
	sched, err := single.Aggressive(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(in, sched, sim.Options{Trace: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Events) == 0 {
			b.Fatal("trace empty")
		}
	}
}
