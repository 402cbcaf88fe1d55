package lp_test

// Property tests pinning the revised simplex's engine (steepest-edge pricing
// over the sparse LU basis) to the flat reference path, and warm-started to
// cold solves.  Both must agree on statuses and objectives across the same
// random/degenerate/infeasible/unbounded lattice the implementation lattice
// (revised/flat/dense) is pinned on.

import (
	"math"
	"math/rand"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/workload"
)

// engineCombos is the revised simplex's engine grid, which the verify,
// batch and sparsity tests run every row of: the one engine, steepest-edge
// pricing over the sparse LU basis.
var engineCombos = []struct {
	name string
	opts lp.Options
}{
	{"steepest-lu", lp.Options{}},
}

// solveAllEngines solves p with the revised engine alone (lp.SolveEngine),
// through the cascade every revised Solve runs, and on the flat reference
// path.  It requires matching statuses and (when optimal) objectives within
// 1e-6, feasible solutions, and an optimum the engine's own first rung
// verified (Downgrades 0).  Comparing the engine's own verdict matters on
// infeasible and unbounded problems, whose cascade verdict always comes from
// the flat rung.  It returns the cascade's solution.
func solveAllEngines(t *testing.T, solvers []*lp.Solver, p *lp.Problem, base lp.Options) *lp.Solution {
	t.Helper()
	engine, err := lp.SolveEngine(solvers[0], p, base)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	served, err := solvers[0].Solve(p, base)
	if err != nil {
		t.Fatalf("revised: %v", err)
	}
	flat := base
	flat.Method = lp.MethodFlat
	ref, err := solvers[1].Solve(p, flat)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	for name, sol := range map[string]*lp.Solution{"engine": engine, "revised": served} {
		if sol.Status != ref.Status {
			t.Fatalf("%s: status %v, flat got %v", name, sol.Status, ref.Status)
		}
		if sol.Status != lp.StatusOptimal {
			continue
		}
		if math.Abs(sol.Objective-ref.Objective) > 1e-6 {
			t.Fatalf("%s: objective %g vs flat %g", name, sol.Objective, ref.Objective)
		}
		if viol, idx := p.Violation(sol.X); viol > 1e-6 {
			t.Fatalf("%s: solution violates constraint %d by %g", name, idx, viol)
		}
	}
	if served.Status == lp.StatusOptimal && served.Downgrades != 0 {
		t.Fatalf("revised: optimum after %d downgrades, want the engine's own", served.Downgrades)
	}
	return served
}

func newEngineSolvers() []*lp.Solver {
	return []*lp.Solver{lp.NewSolver(), lp.NewSolver()}
}

// TestEnginesMatchRandom pins the revised engine to the flat path on the
// random problem lattice.
func TestEnginesMatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	solvers := newEngineSolvers()
	for trial := 0; trial < 200; trial++ {
		p, _ := randomProblem(rng)
		solveAllEngines(t, solvers, p, lp.Options{})
	}
}

// TestEnginesMatchRandomSmallRefactor reruns it with a tiny
// refactorization interval so LU factorizations happen mid-solve even on
// small problems.
func TestEnginesMatchRandomSmallRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	solvers := newEngineSolvers()
	for trial := 0; trial < 200; trial++ {
		p, _ := randomProblem(rng)
		solveAllEngines(t, solvers, p, lp.Options{RefactorEvery: 2})
	}
}

// TestEnginesMatchInfeasibleUnboundedDegenerate covers the classic terminal
// statuses on the revised engine and the flat path.
func TestEnginesMatchInfeasibleUnboundedDegenerate(t *testing.T) {
	solvers := newEngineSolvers()

	infeasible := lp.NewProblem(1)
	infeasible.SetObjective(0, 1)
	infeasible.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 1)
	infeasible.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 2)
	if sol := solveAllEngines(t, solvers, infeasible, lp.Options{}); sol.Status != lp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}

	unbounded := lp.NewProblem(1)
	unbounded.SetObjective(0, -1)
	unbounded.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 1)
	if sol := solveAllEngines(t, solvers, unbounded, lp.Options{}); sol.Status != lp.StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}

	// Beale's cycling example padded with redundant rows.
	beale := lp.NewProblem(3)
	beale.SetObjective(0, -0.75)
	beale.SetObjective(1, 150)
	beale.SetObjective(2, -0.02)
	beale.AddConstraint([]lp.Coef{{Var: 0, Value: 0.25}, {Var: 1, Value: -60}, {Var: 2, Value: -0.04}}, lp.LE, 0)
	beale.AddConstraint([]lp.Coef{{Var: 0, Value: 0.5}, {Var: 1, Value: -90}, {Var: 2, Value: -0.02}}, lp.LE, 0)
	for i := 0; i < 6; i++ {
		beale.AddConstraint([]lp.Coef{{Var: 2, Value: 1}}, lp.LE, 1)
	}
	sol := solveAllEngines(t, solvers, beale, lp.Options{})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("status=%v objective=%g, want optimal -0.05", sol.Status, sol.Objective)
	}
}

// TestEnginesMatchOnPaperModels pins the revised engine to the flat path on
// the paper's synchronized-schedule LPs.
func TestEnginesMatchOnPaperModels(t *testing.T) {
	solvers := newEngineSolvers()
	for trial := 0; trial < 4; trial++ {
		disks := 1 + trial%3
		seq := workload.Uniform(10, 6, int64(7000+trial))
		in := workload.Instance(seq, 3, 2, disks, workload.AssignStripe, 0)
		m, err := lpmodel.Build(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol := solveAllEngines(t, solvers, m.Problem, lp.Options{})
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
	}
}

// TestWarmStartIdenticalProblem replays an optimal basis on the identical
// problem: the warm solve must report WarmStarted, spend zero pivots, and
// reproduce the cold solution exactly.
func TestWarmStartIdenticalProblem(t *testing.T) {
	p := buildE7SizedProblem(t)
	solver := lp.NewSolver()
	cold, err := solver.Solve(p, lp.Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != lp.StatusOptimal || cold.Basis == nil {
		t.Fatalf("cold: status=%v basis=%v", cold.Status, cold.Basis)
	}
	if cold.WarmStarted {
		t.Fatal("cold solve reported WarmStarted")
	}
	warm, err := solver.SolveFrom(p, lp.Options{}, cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("warm solve did not use the basis")
	}
	if warm.Iterations != 0 {
		t.Fatalf("warm solve spent %d pivots on an already-optimal basis", warm.Iterations)
	}
	if warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("warm solve diverged: %v/%g vs %v/%g", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	for i := range warm.X {
		if math.Abs(warm.X[i]-cold.X[i]) > 1e-9 {
			t.Fatalf("warm X[%d] = %g, cold %g", i, warm.X[i], cold.X[i])
		}
	}
}

// TestWarmStartFallsBackAcrossShapes feeds a basis from a different-shaped
// problem and requires a silent, correct cold start.
func TestWarmStartFallsBackAcrossShapes(t *testing.T) {
	small := lp.NewProblem(2)
	small.SetObjective(0, -1)
	small.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 1}}, lp.LE, 4)
	solver := lp.NewSolver()
	donor, err := solver.Solve(small, lp.Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	p := buildE7SizedProblem(t)
	cold, err := solver.Solve(p, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solver.SolveFrom(p, lp.Options{}, donor.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStarted {
		t.Fatal("warm solve claimed to use a foreign-shaped basis")
	}
	if warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("fallback diverged: %v/%g vs %v/%g", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
}

// TestWarmStartRejectsArtificialBasis captures a basis that keeps a
// zero-valued artificial on a redundant row and replays it on a same-shaped
// problem where that row binds, so the transplanted artificial carries
// value.  The artificial must be rejected from the basis — the dual phase
// drives it out, and a transplant that ends with an artificial carrying
// value falls back to the cold start — so the solve never reports an
// infeasible point optimal: it must reach the cold optimum at a feasible
// point.
func TestWarmStartRejectsArtificialBasis(t *testing.T) {
	donor := lp.NewProblem(2)
	donor.SetObjective(0, 1)
	donor.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 1}}, lp.EQ, 2)
	donor.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 1}}, lp.EQ, 2) // redundant duplicate
	solver := lp.NewSolver()
	donorSol, err := solver.Solve(donor, lp.Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if donorSol.Status != lp.StatusOptimal {
		t.Fatalf("donor status %v", donorSol.Status)
	}

	target := lp.NewProblem(2)
	target.SetObjective(0, 1)
	target.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 1}}, lp.EQ, 2)
	target.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: -1}}, lp.EQ, 1) // binding now
	cold, err := solver.Solve(target, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solver.SolveFrom(target, lp.Options{}, donorSol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("warm diverged: %v/%g vs cold %v/%g", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	if viol, idx := target.Violation(warm.X); viol > 1e-6 {
		t.Fatalf("warm solution violates constraint %d by %g", idx, viol)
	}
}

// e7SweepInstances builds the E7-sized instances the sweep test and the
// batch benchmark solve twice each: once cold, then again (cold through a
// batch, or warm-started from an explicit basis).
func e7SweepInstances(tb testing.TB) []*lpmodel.Model {
	tb.Helper()
	var models []*lpmodel.Model
	for seed := int64(900); seed < 906; seed++ {
		seq := workload.Uniform(11, 6, seed)
		in := workload.Instance(seq, 3, 2, 3, workload.AssignStripe, 0)
		m, err := lpmodel.Build(in)
		if err != nil {
			tb.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// TestWarmStartSweepMatchesCold runs the E7-size sweep twice — every LP
// solved twice per point, first all-cold, then with the second solve
// warm-started from the first's optimal basis — and requires identical
// statuses and objectives with at least 2x fewer total simplex pivots.
func TestWarmStartSweepMatchesCold(t *testing.T) {
	models := e7SweepInstances(t)
	solver := lp.NewSolver()

	coldIters, warmIters := 0, 0
	for _, m := range models {
		first, err := solver.Solve(m.Problem, lp.Options{CaptureBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		second, err := solver.Solve(m.Problem, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first.Status != lp.StatusOptimal || second.Status != lp.StatusOptimal {
			t.Fatalf("cold statuses %v/%v", first.Status, second.Status)
		}
		coldIters += first.Iterations + second.Iterations

		warmFirst, err := solver.Solve(m.Problem, lp.Options{CaptureBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		warmSecond, err := solver.SolveFrom(m.Problem, lp.Options{}, warmFirst.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if !warmSecond.WarmStarted {
			t.Fatal("second solve did not warm start")
		}
		if warmSecond.Status != second.Status || math.Abs(warmSecond.Objective-second.Objective) > 1e-9 {
			t.Fatalf("warm sweep diverged: %v/%g vs %v/%g",
				warmSecond.Status, warmSecond.Objective, second.Status, second.Objective)
		}
		warmIters += warmFirst.Iterations + warmSecond.Iterations
	}
	if warmIters >= coldIters {
		t.Fatalf("warm sweep used %d pivots, cold %d — want strictly fewer", warmIters, coldIters)
	}
	if 2*warmIters > coldIters {
		t.Fatalf("warm sweep used %d pivots, cold %d — want at least 2x fewer", warmIters, coldIters)
	}
}
