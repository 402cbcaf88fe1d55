package lp

import "sync/atomic"

// Counters is a snapshot of the package-wide solve counters.  The experiment
// driver records these alongside benchmark tables so the per-revision
// trajectory files (BENCH_*.json) capture how much simplex work a full run
// performs, not just how long it took.
type Counters struct {
	// Solves is the number of completed Solver.Solve calls.
	Solves uint64
	// Iterations is the total number of simplex pivots across all solves.
	Iterations uint64
	// Phase1Pivots is the part of Iterations spent in phase one, finding a
	// basic feasible solution.
	Phase1Pivots uint64
	// PricingPasses is the total number of full reduced-cost sweeps.
	PricingPasses uint64
	// Refactorizations is the total number of basis-inverse rebuilds
	// performed by the revised method (LU factorizations or eta-file
	// reinversions, per Options.Basis).
	Refactorizations uint64
	// EtaColumns is the total number of eta columns appended by the revised
	// method (update etas, plus reinversion fills on the BasisEta path).
	EtaColumns uint64
	// LUFills is the total fill-in created by BasisLU factorizations.
	LUFills uint64
	// WarmStarts is the number of solves that skipped phase one by starting
	// from a transferred prior basis.
	WarmStarts uint64
	// NumericRefactors is the number of refactorizations that found a
	// recorded symbolic skeleton and attempted a numeric-only replay.
	NumericRefactors uint64
	// SymbolicReuses is the number of replays that verified, skipping the
	// Markowitz analysis (see lusym.go).
	SymbolicReuses uint64
	// VerifiedSolves is the number of cascade solves whose result passed the
	// independent certificate check (Verify).
	VerifiedSolves uint64
	// VerifyFailures is the number of Optimal results the certificate check
	// rejected (each one triggers a cascade fallback).
	VerifyFailures uint64
	// CascadeFallbacks is the number of rungs abandoned by the self-healing
	// cascade (verification failures, singular refactorizations and
	// exhausted pivot budgets all count).
	CascadeFallbacks uint64
	// DualPivots is the total number of dual simplex pivots performed by
	// warm re-solves (Options.Dual).
	DualPivots uint64
	// FTUpdates is the total number of Forrest–Tomlin row-spike updates
	// absorbed into U factors (Options.Update == UpdateFT).
	FTUpdates uint64
}

var stats struct {
	solves, iters, phase1, passes, refactors, etas, luFills atomic.Uint64
	warmStarts, symReuses, numRefactors                     atomic.Uint64
	verified, verifyFails, cascadeFalls                     atomic.Uint64
	dualPivots, ftUpdates                                   atomic.Uint64
}

// recordSolve folds one finished solve into the package counters; callers
// run concurrently (the experiment pool solves on several goroutines).
func recordSolve(sol *Solution) {
	stats.solves.Add(1)
	stats.iters.Add(uint64(sol.Iterations))
	stats.phase1.Add(uint64(sol.Phase1Iterations))
	stats.passes.Add(uint64(sol.PricingPasses))
	stats.refactors.Add(uint64(sol.Refactorizations))
	stats.etas.Add(uint64(sol.EtaColumns))
	stats.luFills.Add(uint64(sol.LUFills))
	stats.symReuses.Add(uint64(sol.SymbolicReuses))
	stats.numRefactors.Add(uint64(sol.NumericRefactors))
	stats.dualPivots.Add(uint64(sol.DualIterations))
	stats.ftUpdates.Add(uint64(sol.FTUpdates))
	if sol.WarmStarted {
		stats.warmStarts.Add(1)
	}
}

// StatsSnapshot returns the current package-wide solve counters.
func StatsSnapshot() Counters {
	return Counters{
		Solves:           stats.solves.Load(),
		Iterations:       stats.iters.Load(),
		Phase1Pivots:     stats.phase1.Load(),
		PricingPasses:    stats.passes.Load(),
		Refactorizations: stats.refactors.Load(),
		EtaColumns:       stats.etas.Load(),
		LUFills:          stats.luFills.Load(),
		WarmStarts:       stats.warmStarts.Load(),
		NumericRefactors: stats.numRefactors.Load(),
		SymbolicReuses:   stats.symReuses.Load(),
		VerifiedSolves:   stats.verified.Load(),
		VerifyFailures:   stats.verifyFails.Load(),
		CascadeFallbacks: stats.cascadeFalls.Load(),
		DualPivots:       stats.dualPivots.Load(),
		FTUpdates:        stats.ftUpdates.Load(),
	}
}

// StatsReset zeroes the package-wide solve counters.
func StatsReset() {
	stats.solves.Store(0)
	stats.iters.Store(0)
	stats.phase1.Store(0)
	stats.passes.Store(0)
	stats.refactors.Store(0)
	stats.etas.Store(0)
	stats.luFills.Store(0)
	stats.warmStarts.Store(0)
	stats.symReuses.Store(0)
	stats.numRefactors.Store(0)
	stats.verified.Store(0)
	stats.verifyFails.Store(0)
	stats.cascadeFalls.Store(0)
	stats.dualPivots.Store(0)
	stats.ftUpdates.Store(0)
}
