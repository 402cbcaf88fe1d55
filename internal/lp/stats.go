package lp

import "sync/atomic"

// Counters is a snapshot of a Stats sink.  The experiment driver records
// these alongside benchmark tables so the per-revision trajectory files
// (BENCH_*.json) capture how much simplex work a full run performs, not just
// how long it took.
type Counters struct {
	// Solves is the number of completed Solver.Solve calls.
	Solves uint64
	// Iterations is the total number of simplex pivots across all solves.
	Iterations uint64
	// Phase1Pivots is the part of Iterations spent in phase one, finding a
	// basic feasible solution.
	Phase1Pivots uint64
	// BlandPivots is the part of Iterations priced by Bland's rule after a
	// run of degenerate pivots, on the revised and the flat path alike.
	BlandPivots uint64
	// PricingPasses is the total number of full reduced-cost sweeps.
	PricingPasses uint64
	// Refactorizations is the total number of basis-inverse rebuilds (LU
	// factorizations) performed by the revised method.
	Refactorizations uint64
	// EtaColumns is the total number of eta columns appended by the revised
	// method between refactorizations.
	EtaColumns uint64
	// LUFills is the total fill-in created by the LU factorizations.
	LUFills uint64
	// WarmStarts is the number of solves that skipped phase one by starting
	// from a transferred prior basis.
	WarmStarts uint64
	// VerifiedSolves is the number of revised solves whose result passed the
	// independent certificate check (Verify); every Optimal revised solve
	// counts here, a MethodFlat solve never does.
	VerifiedSolves uint64
	// VerifyFailures is the number of Optimal results the certificate check
	// rejected (each one triggers a cascade fallback).
	VerifyFailures uint64
	// CascadeFallbacks is the number of rungs abandoned by the self-healing
	// cascade (verification failures, singular refactorizations and
	// exhausted pivot budgets all count).
	CascadeFallbacks uint64
	// DualPivots is the total number of dual simplex pivots performed by
	// warm re-solves (Solver.SolveFrom).
	DualPivots uint64
}

// Stats is a counter sink: every solve run with Options.Stats pointing at it
// adds its work here.  The fields are atomic, so one sink may be shared by
// solves on several goroutines (the experiment pool solves concurrently); the
// sums are order-independent, so a sink's totals are reproducible under the
// concurrent driver.  The zero value is an empty sink.
type Stats struct {
	solves, iters, phase1, bland, passes, refactors, etas, luFills atomic.Uint64
	warmStarts, verified, verifyFails, cascadeFalls, dualPivots    atomic.Uint64
}

// Add folds c into the sink.  Solves record through it, and a caller that
// owns several sinks sums them into one with it.  A nil sink ignores the call.
func (s *Stats) Add(c Counters) {
	if s == nil {
		return
	}
	s.solves.Add(c.Solves)
	s.iters.Add(c.Iterations)
	s.phase1.Add(c.Phase1Pivots)
	s.bland.Add(c.BlandPivots)
	s.passes.Add(c.PricingPasses)
	s.refactors.Add(c.Refactorizations)
	s.etas.Add(c.EtaColumns)
	s.luFills.Add(c.LUFills)
	s.warmStarts.Add(c.WarmStarts)
	s.verified.Add(c.VerifiedSolves)
	s.verifyFails.Add(c.VerifyFailures)
	s.cascadeFalls.Add(c.CascadeFallbacks)
	s.dualPivots.Add(c.DualPivots)
}

// Snapshot returns the sink's current totals.
func (s *Stats) Snapshot() Counters {
	return Counters{
		Solves:           s.solves.Load(),
		Iterations:       s.iters.Load(),
		Phase1Pivots:     s.phase1.Load(),
		BlandPivots:      s.bland.Load(),
		PricingPasses:    s.passes.Load(),
		Refactorizations: s.refactors.Load(),
		EtaColumns:       s.etas.Load(),
		LUFills:          s.luFills.Load(),
		WarmStarts:       s.warmStarts.Load(),
		VerifiedSolves:   s.verified.Load(),
		VerifyFailures:   s.verifyFails.Load(),
		CascadeFallbacks: s.cascadeFalls.Load(),
		DualPivots:       s.dualPivots.Load(),
	}
}

// recordSolve folds one finished solve into the caller's sink (a nil sink
// leaves the solve uncounted).
func recordSolve(st *Stats, sol *Solution) {
	c := Counters{
		Solves:           1,
		Iterations:       uint64(sol.Iterations),
		Phase1Pivots:     uint64(sol.Phase1Iterations),
		BlandPivots:      uint64(sol.BlandIterations),
		PricingPasses:    uint64(sol.PricingPasses),
		Refactorizations: uint64(sol.Refactorizations),
		EtaColumns:       uint64(sol.EtaColumns),
		LUFills:          uint64(sol.LUFills),
		DualPivots:       uint64(sol.DualIterations),
	}
	if sol.WarmStarted {
		c.WarmStarts = 1
	}
	st.Add(c)
}
