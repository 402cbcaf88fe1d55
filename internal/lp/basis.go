package lp

// WarmBasis is an opaque snapshot of a simplex basis, captured from an
// optimal solve (Options.CaptureBasis, Solution.Basis) and fed back into a
// later solve (Solver.SolveFrom).
//
// A warm start transplants the snapshot instead of the crash basis (dual.go):
// the snapshot's rows must be a prefix of the new problem's, with the same
// effective senses, and rows the new problem appends keep their cold-start
// columns.  A same-shape problem is the case with no appended rows.  The
// transplanted basis is refactorized for the new coefficients, dual simplex
// pivots repair any primal infeasibility (a moved RHS, a violated appended
// row), and a primal phase two finishes — which costs zero pivots when the
// snapshot is already optimal for the new problem.  Whenever the snapshot
// does not transfer — out of shape, singular for the new coefficients, or
// not re-optimized to a certified optimum — the solve silently falls back to
// the ordinary cold start, so warm starting is always safe to request.
type WarmBasis struct {
	rows    int
	numVars int
	cols    []int   // basis column per constraint row
	senses  []Sense // per-row effective senses (shared, read-only)
}

// Rows returns the number of constraint rows the snapshot was taken from.
func (b *WarmBasis) Rows() int { return b.rows }

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
