package lp

// WarmBasis is an opaque snapshot of a simplex basis, captured from an
// optimal solve (Options.CaptureBasis, Solution.Basis) and fed back into a
// later solve of a same-shaped problem (Solver.SolveFrom, SolveDualFrom).
//
// A warm start replays the snapshot instead of the phase-1 crash basis: the
// basis is refactorized for the new problem's coefficients and, when it is
// nonsingular and primal feasible, the solve proceeds straight to phase two
// from it — which costs zero pivots when the snapshot is already optimal for
// the new problem (the common case: the near-identical LPs a sweep solves
// row after row).  Whenever the snapshot does not transfer — the dimensions
// or constraint senses changed, the refactorization went singular, or the
// replayed basis is infeasible — the solve silently falls back to the
// ordinary cold start, so warm starting is always safe to request.
type WarmBasis struct {
	rows    int
	numVars int
	cols    []int   // basis column per constraint row
	senses  []Sense // per-row effective senses (shared, read-only)
}

// Rows returns the number of constraint rows the snapshot was taken from.
func (b *WarmBasis) Rows() int { return b.rows }

// matches reports whether the snapshot's shape equals the standard form the
// given revised solver has loaded: same row count, variable count and per-row
// effective senses (which fix the slack/artificial column layout).
func (b *WarmBasis) matches(r *revisedSolver) bool {
	if b == nil || b.rows != r.rows || b.numVars != r.numVars || len(b.cols) != r.rows {
		return false
	}
	if len(b.senses) != len(r.m.sense) {
		return false
	}
	for i, s := range b.senses {
		if s != r.m.sense[i] {
			return false
		}
	}
	return true
}

// captureBasis allocates a fresh snapshot of the solver's current basis (for
// Solution.Basis, which outlives the solver's reusable buffers).  The sense
// slice is shared with the problem's immutable CSC form, not copied.
func (r *revisedSolver) captureBasis() *WarmBasis {
	return &WarmBasis{
		rows:    r.rows,
		numVars: r.numVars,
		cols:    append([]int(nil), r.basis...),
		senses:  r.m.sense,
	}
}

// installBasis replaces the crash basis installed by load with the
// snapshot's columns and rebuilds the factorization and basic values.  It
// reports whether the snapshot transferred: false means the caller must
// reload and cold-start (the basis was out of shape, carried an artificial,
// was singular for the new coefficients, or not primal feasible).
func (r *revisedSolver) installBasis(from *WarmBasis) bool {
	if !from.matches(r) {
		return false
	}
	for _, c := range from.cols {
		// Artificial columns are rejected outright, not just when their
		// value is positive: the warm path jumps straight to phase two,
		// which neither prices artificials out nor watches their values, so
		// a zero-valued artificial from the donor's redundant row could
		// silently drift positive on a problem where that row is binding —
		// an infeasible point reported optimal.  (Shapes match, so the
		// donor's artificial range is exactly [artLo, cols).)
		if c < 0 || c >= r.artLo {
			return false
		}
	}
	clear(r.inBasis)
	for i, c := range from.cols {
		r.basis[i] = c
		r.inBasis[c] = true
	}
	if err := r.refactorize(); err != nil {
		return false
	}
	// The replayed basis must describe a basic feasible solution of the new
	// problem: non-negative basic values.
	for i, v := range r.xB {
		if v < -r.tol {
			return false
		}
		if v < 0 {
			r.xB[i] = 0
		}
	}
	return true
}
