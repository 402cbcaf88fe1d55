package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if viol, idx := p.Violation(sol.X); viol > 1e-6 {
		t.Fatalf("solution violates constraint %d by %g", idx, viol)
	}
	return sol
}

// TestSimpleTwoVariable solves a classic production problem:
// maximise 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (optimum 36 at (2,6)).
func TestSimpleTwoVariable(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, -3) // maximise by minimising the negation
	p.SetObjective(1, -5)
	p.AddConstraint([]Coef{{0, 1}}, LE, 4)
	p.AddConstraint([]Coef{{1, 2}}, LE, 12)
	p.AddConstraint([]Coef{{0, 3}, {1, 2}}, LE, 18)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-(-36)) > 1e-6 {
		t.Fatalf("objective = %f, want -36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-6 || math.Abs(sol.X[1]-6) > 1e-6 {
		t.Fatalf("x = %v, want (2,6)", sol.X)
	}
}

// TestEqualityAndGE exercises equality and >= constraints:
// minimise 2x + 3y s.t. x + y = 10, x >= 3, y >= 2  (optimum 23 at (8,2)).
func TestEqualityAndGE(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	p.AddConstraint([]Coef{{0, 1}, {1, 1}}, EQ, 10)
	p.AddConstraint([]Coef{{0, 1}}, GE, 3)
	p.AddConstraint([]Coef{{1, 1}}, GE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-22) > 1e-6 {
		t.Fatalf("objective = %f, want 22", sol.Objective)
	}
	if math.Abs(sol.X[0]-8) > 1e-6 || math.Abs(sol.X[1]-2) > 1e-6 {
		t.Fatalf("x = %v, want (8,2)", sol.X)
	}
}

// TestNegativeRHS checks that constraints with negative right-hand sides are
// normalised correctly: minimise x s.t. -x <= -5 means x >= 5.
func TestNegativeRHS(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Coef{{0, -1}}, LE, -5)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-5) > 1e-6 {
		t.Fatalf("x = %v, want 5", sol.X)
	}
}

// TestInfeasible checks infeasibility detection.
func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Coef{{0, 1}}, LE, 1)
	p.AddConstraint([]Coef{{0, 1}}, GE, 2)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

// TestUnbounded checks unboundedness detection: minimise -x with x only
// bounded below.
func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]Coef{{0, 1}}, GE, 1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

// TestIterationLimit checks the iteration guard of both engines: under a
// one-pivot budget (Fault.PivotBudget) the revised engine and the flat path
// each stop after at most one pivot, with StatusIterLimit unless that pivot
// already reached the optimum.
func TestIterationLimit(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.SetObjective(2, -1)
	p.AddConstraint([]Coef{{0, 1}, {1, 1}, {2, 1}}, LE, 10)
	p.AddConstraint([]Coef{{0, 1}, {1, 2}}, LE, 8)
	p.AddConstraint([]Coef{{1, 1}, {2, 3}}, LE, 9)
	budget := &Fault{PivotBudget: 1}
	var s Solver
	s.rev.fault = budget
	rev, err := s.rev.solve(p, Options{}, nil)
	s.rev.fault = nil
	if err != nil {
		t.Fatalf("revised: %v", err)
	}
	flat := s.flat.solve(p, budget)
	for name, sol := range map[string]*Solution{"revised": rev, "flat": flat} {
		if sol.Status != StatusIterLimit && sol.Status != StatusOptimal {
			t.Fatalf("%s: status = %v", name, sol.Status)
		}
		if sol.Iterations > 1 {
			t.Fatalf("%s: iterations = %d, want <= 1", name, sol.Iterations)
		}
	}
}

// TestDegenerateProblem solves a problem with many redundant constraints
// (heavy degeneracy) to exercise the Bland's-rule fallback.
func TestDegenerateProblem(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	// A classic cycling-prone example (Beale) padded with redundant rows.
	p.AddConstraint([]Coef{{0, 0.25}, {1, -60}, {2, -0.04}}, LE, 0)
	p.AddConstraint([]Coef{{0, 0.5}, {1, -90}, {2, -0.02}}, LE, 0)
	p.AddConstraint([]Coef{{2, 1}}, LE, 1)
	for i := 0; i < 5; i++ {
		p.AddConstraint([]Coef{{2, 1}}, LE, 1)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective = %f, want -0.05", sol.Objective)
	}
}

// TestTransportationProblem solves a small balanced transportation problem
// whose optimum is known to be integral.
func TestTransportationProblem(t *testing.T) {
	// Two suppliers (10, 15), three consumers (5, 10, 10).
	// Costs: s0: [2 4 5], s1: [3 1 7].  Optimal cost: ship s0->c0 5, s0->c2 5,
	// s1->c1 10, s1->c2 5 => 5*2+5*5+10*1+5*7 = 80.
	cost := []float64{2, 4, 5, 3, 1, 7}
	p := NewProblem(6)
	for i, c := range cost {
		p.SetObjective(i, c)
	}
	p.AddConstraint([]Coef{{0, 1}, {1, 1}, {2, 1}}, EQ, 10)
	p.AddConstraint([]Coef{{3, 1}, {4, 1}, {5, 1}}, EQ, 15)
	p.AddConstraint([]Coef{{0, 1}, {3, 1}}, EQ, 5)
	p.AddConstraint([]Coef{{1, 1}, {4, 1}}, EQ, 10)
	p.AddConstraint([]Coef{{2, 1}, {5, 1}}, EQ, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-75) > 1e-6 {
		t.Fatalf("objective = %f, want 75", sol.Objective)
	}
}

// TestRedundantEqualities checks that linearly dependent equality constraints
// do not break phase one.
func TestRedundantEqualities(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint([]Coef{{0, 1}, {1, 1}}, EQ, 4)
	p.AddConstraint([]Coef{{0, 2}, {1, 2}}, EQ, 8) // redundant
	p.AddConstraint([]Coef{{0, 1}}, GE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("objective = %f, want 4", sol.Objective)
	}
}

// TestRandomFeasibleProblems generates random LPs with a known feasible point
// and checks that the solver finds a solution at least as good and feasible.
func TestRandomFeasibleProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		nVars := 2 + rng.Intn(6)
		nCons := 1 + rng.Intn(8)
		p := NewProblem(nVars)
		x0 := make([]float64, nVars)
		for i := range x0 {
			x0[i] = rng.Float64() * 5
			p.SetObjective(i, rng.Float64()*4-1)
		}
		for c := 0; c < nCons; c++ {
			coeffs := make([]Coef, 0, nVars)
			lhs := 0.0
			for v := 0; v < nVars; v++ {
				if rng.Float64() < 0.6 {
					val := rng.Float64()*4 - 2
					coeffs = append(coeffs, Coef{Var: v, Value: val})
					lhs += val * x0[v]
				}
			}
			if len(coeffs) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint(coeffs, LE, lhs+rng.Float64())
			case 1:
				p.AddConstraint(coeffs, GE, lhs-rng.Float64())
			default:
				p.AddConstraint(coeffs, EQ, lhs)
			}
		}
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch sol.Status {
		case StatusOptimal:
			if viol, idx := p.Violation(sol.X); viol > 1e-6 {
				t.Fatalf("trial %d: violation %g at constraint %d", trial, viol, idx)
			}
			if sol.Objective > p.Value(x0)+1e-6 {
				t.Fatalf("trial %d: objective %f worse than known feasible point %f", trial, sol.Objective, p.Value(x0))
			}
		case StatusUnbounded:
			// Possible since objectives may be negative; fine.
		default:
			t.Fatalf("trial %d: unexpected status %v (the problem is feasible by construction)", trial, sol.Status)
		}
	}
}

// TestProblemAccessorsAndPanics exercises the Problem API.
func TestProblemAccessorsAndPanics(t *testing.T) {
	p := NewProblem(2)
	if p.NumVars() != 2 || p.NumConstraints() != 0 {
		t.Fatalf("unexpected sizes")
	}
	v := p.AddVariable(3)
	if v != 2 || p.Objective(2) != 3 {
		t.Fatalf("AddVariable failed")
	}
	idx := p.AddConstraint([]Coef{{0, 1}, {0, 2}, {1, 0}}, LE, 5)
	c := p.Constraint(idx)
	if len(c.Coeffs) != 1 || c.Coeffs[0].Value != 3 {
		t.Fatalf("coefficients not merged: %+v", c)
	}
	if got := p.Value([]float64{1, 1, 2}); got != 6 {
		t.Fatalf("Value = %f", got)
	}
	if viol, _ := p.Violation([]float64{-1, 0, 0}); viol < 1 {
		t.Fatalf("negative variable not flagged as violation")
	}
	for _, s := range []Sense{LE, EQ, GE, Sense(9)} {
		if s.String() == "" {
			t.Errorf("empty sense name")
		}
	}
	for _, s := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded, StatusIterLimit, Status(9)} {
		if s.String() == "" {
			t.Errorf("empty status name")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for bad variable index")
			}
		}()
		p.SetObjective(99, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for negative variable count")
			}
		}()
		NewProblem(-1)
	}()
}

// TestZeroVariableProblem checks the degenerate empty problem.
func TestZeroVariableProblem(t *testing.T) {
	p := NewProblem(0)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal || sol.Objective != 0 {
		t.Fatalf("unexpected solution %+v", sol)
	}
}
