package lp

import "math"

// This file is the warm start of the revised method: every basis handed to
// Solver.SolveFrom is transplanted onto the problem and re-optimized from
// there, first by dual simplex pivots, which repair primal infeasibility,
// then by an ordinary primal phase two.  A basis that is dual feasible but
// not primal feasible for the problem at hand is exactly the shape a trace
// extension leaves behind.
//
// When a problem grows by appended rows and columns (Problem.AddVariable,
// AddConstraint, ExtendConstraint on old rows gaining only NEW columns), the
// old optimal basis B extends to B' = [[B, 0], [C, S]] where S holds the
// cold-start columns of the new rows: slacks, artificials and crash unit
// columns.  B' is nonsingular whenever B is, and when S's columns
// cost nothing its simplex multipliers are y' = (y_old, 0): every OLD column
// keeps its reduced cost, so the transplanted basis stays dual feasible with
// respect to the old column set, while the appended rows may leave basic
// values negative (a violated new inequality) or basic artificials positive
// (a violated new equality).  The dual simplex repairs exactly that — each
// pivot drives out the worst primal violation while keeping reduced costs
// non-negative — after which an ordinary primal phase prices in the new
// columns (the only ones that can carry negative reduced costs).  A
// same-shape basis is the case with no appended rows: B' = B, and a moved
// RHS is the only primal infeasibility the dual pivots meet.
//
// Every exit that is not a certified optimum abandons the transplant and
// falls back to the cold two-phase primal start, so a warm start is always
// safe to request, and the cascade checks the result against the
// independent certificate (Verify) like any other solve.

// dualStallWindow is the number of consecutive dual pivots the total primal
// violation may fail to improve before the warm re-optimization is declared
// degenerate and handed to the cold primal path.
const dualStallWindow = 64

// matchesPrefix reports whether the snapshot describes a leading sub-problem
// of the standard form the solver has loaded: no more rows or structural
// variables, and element-wise equal effective senses on the shared row
// prefix (which pins the slack column layout of those rows).
func (b *WarmBasis) matchesPrefix(r *revisedSolver) bool {
	if b == nil || b.rows == 0 || b.rows > r.rows || b.numVars > r.numVars {
		return false
	}
	if len(b.cols) != b.rows || len(b.senses) < b.rows || len(r.m.sense) < b.rows {
		return false
	}
	for i := 0; i < b.rows; i++ {
		if b.senses[i] != r.m.sense[i] {
			return false
		}
	}
	return true
}

// installBasisDual transplants a prefix-shaped snapshot onto the loaded
// problem: the snapshot's basic columns are remapped into the extended
// column space row by row, the appended rows keep the basis load installed
// (slack, artificial or crash column), and the whole basis is
// refactorized.  There is no primal feasibility requirement — that is the
// dual phase's job — and donor artificials are accepted: slack and
// artificial columns are both enumerated in row order over the shared,
// sense-identical prefix, so donor offset k names the same row's column
// here, and a zero-valued artificial parked on a degenerate equality (the
// normal residue of a previous warm dual solve) transplants as harmlessly as
// it sat in the donor — the post-solve basicArtificialViolation check
// rejects any that come back carrying value.
// Any out-of-range column, duplicate column or singular refactorization
// reports no transfer.
func (r *revisedSolver) installBasisDual(from *WarmBasis) bool {
	if !from.matchesPrefix(r) {
		return false
	}
	donorSlack, donorArt := 0, 0
	for _, s := range from.senses[:from.rows] {
		if s == LE || s == GE {
			donorSlack++
		}
		if s == GE || s == EQ {
			donorArt++
		}
	}
	clear(r.inBasis)
	for i := 0; i < r.rows; i++ {
		c := r.basis[i] // appended rows: crash column from load
		if i < from.rows {
			c = from.cols[i]
			switch {
			case c < 0 || c >= from.numVars+donorSlack+donorArt:
				return false
			case c < from.numVars:
				// Structural column: indices are append-stable.
			case c < from.numVars+donorSlack:
				// Slack column: the sense prefix is element-wise equal, so
				// slack offset k of the donor is slack offset k here, shifted
				// past the (possibly larger) structural block.
				c = r.numVars + (c - from.numVars)
			default:
				// Artificial column: same row-order enumeration argument.
				c = r.artLo + (c - from.numVars - donorSlack)
			}
		}
		if r.inBasis[c] {
			return false
		}
		r.basis[i] = c
		r.inBasis[c] = true
	}
	// A half-built factorization on failure is fine: the caller reloads.
	return r.refactorize() == nil
}

// optimizeDual runs dual simplex pivots from the current basis until primal
// feasibility (StatusOptimal), a detected primal infeasibility
// (StatusInfeasible — trusted only as "abandon the warm start" by the
// caller), or a budget.  The leaving row is the largest primal violation: a
// basic value below zero, or a basic artificial above zero (the residue of
// an appended equality row).  The entering column minimises the dual ratio
// |rc_j| / |row_j| over the nonbasic non-artificial columns whose reduced
// cost is non-negative, breaking ties (ratios within tolerance) towards the
// largest pivot element |row_j|, as the primal ratioTestSE does.  The paper's
// LPs are full of such ties, among zero-cost columns; on
// TestDualResolveE7Extension's extension the steepest-edge/LU re-solve
// takes 12 pivots this way and 21 when ties go to the smallest index,
// Bland-style (its cold solve takes 52).  Columns that are already dual
// infeasible (fresh extension columns priced below zero) are left for the
// primal clean-up phase that follows.
//
// The entering scan computes the pivot row as one column dot of rho per
// nonbasic column, not from rho's support rows as seUpdate does for a
// primal pivot: on a session's extensions rho is dense in most dual pivots
// (its support rows hold over half of the matrix's nonzeros on average), and
// a row-wise assembly measured no faster.  Reduced costs are maintained
// across pivots instead of re-priced: the dual step moves y by t·rho, so
// rc_j shifts by -t·row_j at the row's nonzero entries, which the scan lists
// in dualCols, and the file is re-priced from fresh duals (a full pricing
// pass) only when a pivot triggered a refactorization.  Maintenance drift is
// harmless — termination is decided by primal feasibility alone, and the
// primal clean-up phase re-prices every column from scratch — it can only
// cost extra clean-up pivots, never a wrong optimum.
//
// The pivot budget bounds the transplant's cost at a fraction of a cold
// solve: a warm basis that needs that many repairs has lost its locality
// advantage (each dual pivot carries a scan of every column), so the solve
// is handed back to the cold primal path instead of grinding on.
func (r *revisedSolver) optimizeDual(maxIter int) (Status, error) {
	r.dualRC = grabFloats(r.dualRC, r.artLo, &r.allocs)
	r.dualRow = grabFloats(r.dualRow, r.artLo, &r.allocs)
	r.dualCols = grabInt32s(r.dualCols, r.artLo, &r.allocs)
	reprice := func() {
		r.computeDuals()
		r.fullPasses++
		for j := 0; j < r.artLo; j++ {
			r.dualRC[j] = r.costs[j] - r.colDot(r.y, j)
		}
	}
	reprice()
	budget := r.rows/4 + 64
	bestSum := math.Inf(1)
	stall := 0
	for {
		if r.iterations >= maxIter || r.dualIters >= budget {
			return StatusIterLimit, nil
		}
		// Leaving row: worst violation, ties to the smallest row index.  The
		// total violation doubles as a progress measure: a transplant whose
		// repairs keep shuffling infeasibility between rows instead of
		// shrinking it (dual degeneracy) is abandoned early, well before the
		// pivot budget, because the cold primal start handles those bases
		// faster than a thrashing dual phase does.
		leave := -1
		dir := 0.0
		worst := r.tol
		sum := 0.0
		for i, v := range r.xB {
			switch {
			case -v > worst:
				worst, leave, dir = -v, i, -1
			case v > worst && r.basis[i] >= r.artLo:
				worst, leave, dir = v, i, 1
			}
			if v < 0 {
				sum -= v
			} else if r.basis[i] >= r.artLo {
				sum += v
			}
		}
		if leave < 0 {
			return StatusOptimal, nil
		}
		if sum < bestSum-r.tol {
			bestSum, stall = sum, 0
		} else if stall++; stall > dualStallWindow {
			return StatusIterLimit, nil
		}
		// Row leave of B^-1 A, via one BTRAN of the unit vector.
		r.btranRow(leave)
		cols := r.dualCols[:0]
		enter := -1
		bestRatio, bestA := math.Inf(1), 0.0
		for j := 0; j < r.artLo; j++ {
			if r.inBasis[j] {
				continue
			}
			row := r.colDot(r.rho, j)
			if row == 0 {
				continue
			}
			r.dualRow[j] = row
			cols = append(cols, int32(j))
			a := dir * row
			if a <= r.tol {
				continue
			}
			rc := r.dualRC[j]
			if rc < -r.tol {
				continue
			}
			if rc < 0 {
				rc = 0
			}
			ratio := rc / a
			if ratio < bestRatio-r.tol ||
				(math.Abs(ratio-bestRatio) <= r.tol && a > bestA) {
				bestRatio, enter, bestA = ratio, j, a
			}
		}
		if enter < 0 {
			// A violated row with no eligible entering column is a dual ray:
			// the restricted problem is primal infeasible.  The caller treats
			// this as "re-derive the verdict cold", never as a certificate.
			return StatusInfeasible, nil
		}
		r.ftranColumn(enter)
		if dir*r.alpha[leave] <= r.tol {
			// The priced row entry and the exact FTRAN disagree at tolerance;
			// abandon rather than divide by a vanishing pivot.
			return StatusIterLimit, nil
		}
		leaveCol := r.basis[leave]
		refactorsBefore := r.refactors
		if err := r.pivot(leave, enter); err != nil {
			return 0, err
		}
		r.iterations++
		r.dualIters++
		if r.refactors != refactorsBefore {
			reprice() // a refactorization resets drift; re-price from it
			continue
		}
		t := dir * bestRatio
		if t != 0 {
			for _, j := range cols {
				r.dualRC[j] -= t * r.dualRow[j]
			}
			if leaveCol < r.artLo {
				// The leaving column re-enters the nonbasic file at rc = -t
				// (its pivot-row entry is exactly 1).
				r.dualRC[leaveCol] = -t
			}
		}
		r.dualRC[enter] = 0
	}
}

// basicArtificialViolation returns the largest |value| carried by a basic
// artificial column, the quantity that must vanish for a warm dual solve to
// report optimality (a positive basic artificial is a violated constraint).
func (r *revisedSolver) basicArtificialViolation() float64 {
	worst := 0.0
	for i, c := range r.basis {
		if c >= r.artLo {
			if a := math.Abs(r.xB[i]); a > worst {
				worst = a
			}
		}
	}
	return worst
}

// solveDualWarm attempts the warm path on a freshly loaded problem:
// transplant the basis, repair primal feasibility with dual pivots, then run
// the ordinary primal phase two to price in any appended columns.  It returns
// (solution, true) only for a fully certified optimum; (nil, false) means the
// caller must reload and cold-start.  A singular refactorization, the
// engine's one error, is absorbed as "no transfer".
func (r *revisedSolver) solveDualWarm(p *Problem, maxIter int, warm *WarmBasis) (*Solution, bool) {
	if !r.installBasisDual(warm) {
		return nil, false
	}
	r.warmStarted = true
	r.setPhase(2)
	status, err := r.optimizeDual(maxIter)
	if err == nil && status == StatusOptimal {
		for i, v := range r.xB {
			if v < 0 {
				r.xB[i] = 0 // within tolerance, or optimizeDual would not have stopped
			}
		}
		status, err = r.optimize(maxIter)
		if err == nil && status == StatusOptimal && r.basicArtificialViolation() <= r.tol {
			return r.solution(StatusOptimal, p), true
		}
	}
	// Anything else — a singular basis, a dual ray, an exhausted budget, an
	// unbounded clean-up phase, or an artificial still carrying value — is
	// not trusted from the transplanted basis: the cold start re-derives the
	// terminal verdict.
	r.warmStarted = false
	return nil, false
}
