package lp_test

import (
	"math"
	"testing"

	"pfcache/internal/lp"
)

// fuzzBytes reads a fuzz input one byte at a time, yielding zeros once it
// runs out, so every input decodes to some problem.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzProblem decodes a small LP: 2-8 variables with costs from a short
// palette, 1-7 rows and an optional cap on the variables' sum.  A row is
// either a zero-RHS equality over ±1 coefficients, the rows the LU engine's
// triangular crash claims, or a row of any sense over small coefficients
// and right-hand sides of either sign.
func fuzzProblem(data []byte) *lp.Problem {
	in := fuzzBytes(data)
	costs := []float64{0, 1, -1, 2, -2, 0.5, 3, -3}
	coefs := []float64{0, 0, 1, -1, 2, -2, 0.5, 3}
	units := []float64{0, 0, 1, -1}
	rhss := []float64{0, 1, 2, 3, -1, 4, 0.5, 10}
	senses := []lp.Sense{lp.LE, lp.GE, lp.EQ}
	nVars := 2 + in.next()%7
	nRows := 1 + in.next()%7
	p := lp.NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetObjective(j, costs[in.next()%len(costs)])
	}
	for r := 0; r < nRows; r++ {
		kind := in.next()
		coeffs := make([]lp.Coef, 0, nVars)
		if kind%3 == 0 {
			for j := 0; j < nVars; j++ {
				coeffs = append(coeffs, lp.Coef{Var: j, Value: units[in.next()%len(units)]})
			}
			p.AddConstraint(coeffs, lp.EQ, 0)
			continue
		}
		sense := senses[in.next()%len(senses)]
		rhs := rhss[in.next()%len(rhss)]
		for j := 0; j < nVars; j++ {
			coeffs = append(coeffs, lp.Coef{Var: j, Value: coefs[in.next()%len(coefs)]})
		}
		p.AddConstraint(coeffs, sense, rhs)
	}
	if in.next()%2 == 0 {
		capRow := make([]lp.Coef, nVars)
		for j := range capRow {
			capRow[j] = lp.Coef{Var: j, Value: 1}
		}
		p.AddConstraint(capRow, lp.LE, 10)
	}
	return p
}

// FuzzSolveVerify solves random small LPs on the served engine (steepest
// edge over LU, cascade off) and on the flat reference path.  The statuses
// must agree, and an optimal revised solve must pass Verify and match the
// flat objective to 1e-6.
func FuzzSolveVerify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 1, 2, 7, 0, 0, 0, 0, 1, 1, 2, 3, 0, 2, 0, 2, 3, 1, 0, 3, 2, 1, 2, 3, 1, 4, 2, 1, 0})
	f.Add([]byte{6, 6, 1, 7, 2, 3, 0, 5, 1, 4, 0, 2, 3, 2, 3, 2, 3, 2, 3, 2, 0, 1, 0, 0, 3, 2, 3, 3, 2, 3, 3, 2, 3, 2, 3, 2, 1, 2, 3, 7, 1, 0, 6, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		rev, err := lp.NewSolver().Solve(p, lp.Options{})
		if err != nil {
			t.Fatalf("revised: %v", err)
		}
		flat, err := lp.NewSolver().Solve(p, lp.Options{Method: lp.MethodFlat})
		if err != nil {
			t.Fatalf("flat: %v", err)
		}
		if rev.Status != flat.Status {
			t.Fatalf("status: revised %v, flat %v", rev.Status, flat.Status)
		}
		if rev.Status != lp.StatusOptimal {
			return
		}
		if err := lp.Verify(p, rev); err != nil {
			t.Fatalf("revised certificate: %v", err)
		}
		if d := math.Abs(rev.Objective - flat.Objective); d > 1e-6*(1+math.Abs(flat.Objective)) {
			t.Fatalf("objective: revised %.12g, flat %.12g", rev.Objective, flat.Objective)
		}
	})
}
