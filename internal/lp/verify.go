package lp

import (
	"fmt"
	"math"
)

// verifyTol is the certificate tolerance: looser than the solver's pivoting
// tolerance (1e-9) by three orders of magnitude, so legitimate round-off in
// a correct solve never fails verification, while any injected or organic
// corruption large enough to change a schedule fails it by many orders.
const verifyTol = 1e-6

// VerificationError reports which independent certificate check a solution
// failed.  Check is one of "bounds", "primal-residual", "objective" or
// "dual-feasibility".
type VerificationError struct {
	Check     string
	Violation float64
	Tolerance float64
}

func (e *VerificationError) Error() string {
	return fmt.Sprintf("lp: verification failed: %s violation %.3g exceeds %.3g",
		e.Check, e.Violation, e.Tolerance)
}

// Verify independently checks the optimality certificate of an Optimal
// solution against the problem: variable bounds (x >= 0), the primal
// residual max over constraints of the row violation, the reported objective
// against a recomputed c'x, and — for revised solves, which record their
// final simplex multipliers — dual feasibility (every reduced cost
// non-negative, dual signs matching the constraint senses).  Non-Optimal
// solutions verify trivially: there is no certificate to check.
//
// Every check fails unless its violation is provably within tolerance, so a
// NaN anywhere in X, the objective or the multipliers fails it (the builtin
// max carries a NaN through), and a non-finite X entry fails "bounds".
//
// Verification is read-only and allocation-free on the pooled path: it walks
// the problem's constraints and the cached CSC matrix, allocating only the
// error it returns on failure.
func Verify(p *Problem, sol *Solution) error {
	if p == nil || sol == nil || sol.Status != StatusOptimal {
		return nil
	}

	// Bounds: every variable finite and non-negative.
	worst := 0.0
	for _, v := range sol.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			worst = math.Inf(1)
			break
		}
		worst = max(worst, -v)
	}
	if !(worst <= verifyTol) {
		return &VerificationError{Check: "bounds", Violation: worst, Tolerance: verifyTol}
	}

	// Primal residual: max over constraints of the (relative) row violation,
	// computed row-wise against the original constraint storage — no scratch
	// vector, no dependence on the solver's factored inverse.
	worst = 0
	for _, c := range p.cons {
		lhs := 0.0
		for _, co := range c.Coeffs {
			if co.Var < len(sol.X) {
				lhs += co.Value * sol.X[co.Var]
			}
		}
		var viol float64
		switch c.Sense {
		case LE:
			viol = lhs - c.RHS
		case GE:
			viol = c.RHS - lhs
		case EQ:
			viol = math.Abs(lhs - c.RHS)
		}
		worst = max(worst, viol/(1+math.Abs(c.RHS)))
	}
	if !(worst <= verifyTol) {
		return &VerificationError{Check: "primal-residual", Violation: worst, Tolerance: verifyTol}
	}

	// Objective: the reported value must match a recomputation from scratch.
	obj := p.Value(sol.X)
	if diff := math.Abs(obj-sol.Objective) / (1 + math.Abs(obj)); !(diff <= verifyTol) {
		return &VerificationError{Check: "objective", Violation: diff, Tolerance: verifyTol}
	}

	// Dual feasibility, when the solve recorded its multipliers (the revised
	// path does; the flat fallback does not, and primal feasibility plus its
	// own optimality test stand alone there).  The multipliers live in the
	// sign-normalised space of the cached CSC matrix, so reduced costs are
	// priced against it: rc_j = c_j - y'A_j >= 0 for every structural
	// column, and the sign of y on an inequality row is the (normalised)
	// slack column's reduced cost.
	y := sol.duals
	if y == nil {
		return nil
	}
	m := p.csc()
	if len(y) != m.rows {
		return nil // stale capture from a differently-shaped solve
	}
	worst = 0
	for i, s := range m.sense {
		var viol float64
		switch s {
		case LE:
			viol = y[i] // slack rc = -y_i >= -tol
		case GE:
			viol = -y[i] // slack rc = +y_i >= -tol
		}
		worst = max(worst, viol)
	}
	for j := 0; j < m.cols; j++ {
		rc := p.objective[j] - m.colDot(y, j)
		worst = max(worst, -rc/(1+math.Abs(p.objective[j])))
	}
	if !(worst <= verifyTol) {
		return &VerificationError{Check: "dual-feasibility", Violation: worst, Tolerance: verifyTol}
	}
	return nil
}
