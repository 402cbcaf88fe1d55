package lp_test

// Property tests pinning the three solver implementations to each other on
// random LPs and on the paper's synchronized-schedule models: the production
// revised simplex (sparse CSC + product-form eta file), the PR-1 flat-tableau
// path kept behind Options.Method, and the pre-refactor dense reference.
// These live in an external test package so they can import
// lpmodel/opt/workload (which depend on lp) without an import cycle; the
// dense reference is reached through lp.DenseSolve in export_test.go.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/workload"
)

// randomProblem builds a random LP with a known feasible point, mixing LE,
// GE and EQ constraints (mirroring the generator of the solver unit tests).
func randomProblem(rng *rand.Rand) (*lp.Problem, []float64) {
	nVars := 2 + rng.Intn(6)
	nCons := 1 + rng.Intn(8)
	p := lp.NewProblem(nVars)
	x0 := make([]float64, nVars)
	for i := range x0 {
		x0[i] = rng.Float64() * 5
		p.SetObjective(i, rng.Float64()*4-1)
	}
	for c := 0; c < nCons; c++ {
		coeffs := make([]lp.Coef, 0, nVars)
		lhs := 0.0
		for v := 0; v < nVars; v++ {
			if rng.Float64() < 0.6 {
				val := rng.Float64()*4 - 2
				coeffs = append(coeffs, lp.Coef{Var: v, Value: val})
				lhs += val * x0[v]
			}
		}
		if len(coeffs) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint(coeffs, lp.LE, lhs+rng.Float64())
		case 1:
			p.AddConstraint(coeffs, lp.GE, lhs-rng.Float64())
		default:
			p.AddConstraint(coeffs, lp.EQ, lhs)
		}
	}
	return p, x0
}

// solveAllThree runs the revised, flat and dense implementations on p and
// requires matching statuses and (when optimal) objectives within 1e-6; the
// optimal vertex may differ on degenerate optima, so X is checked only for
// feasibility.  The revised implementation runs twice: alone
// (lp.SolveEngine), for its own terminal verdict, which the cascade would
// replace by the flat rung's on an infeasible or unbounded problem, and
// through the cascade, whose optimum must be the engine's own (Downgrades
// 0).  It returns the cascade's solution.
func solveAllThree(t *testing.T, rev, flat *lp.Solver, p *lp.Problem, opts lp.Options) *lp.Solution {
	t.Helper()
	revOpts := opts
	revOpts.Method = lp.MethodRevised
	engine, err := lp.SolveEngine(rev, p, revOpts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	revised, err := rev.Solve(p, revOpts)
	if err != nil {
		t.Fatalf("revised: %v", err)
	}
	flatOpts := opts
	flatOpts.Method = lp.MethodFlat
	flatSol, err := flat.Solve(p, flatOpts)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	dense, err := lp.DenseSolve(p)
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	if engine.Status != flatSol.Status || revised.Status != flatSol.Status || revised.Status != dense.Status {
		t.Fatalf("status engine=%v revised=%v flat=%v dense=%v", engine.Status, revised.Status, flatSol.Status, dense.Status)
	}
	if revised.Status != lp.StatusOptimal {
		return revised
	}
	if revised.Downgrades != 0 {
		t.Fatalf("revised optimum after %d downgrades, want the engine's own", revised.Downgrades)
	}
	if math.Abs(revised.Objective-flatSol.Objective) > 1e-6 {
		t.Fatalf("objective revised=%g flat=%g", revised.Objective, flatSol.Objective)
	}
	if math.Abs(revised.Objective-dense.Objective) > 1e-6 {
		t.Fatalf("objective revised=%g dense=%g", revised.Objective, dense.Objective)
	}
	for name, sol := range map[string]*lp.Solution{"revised": revised, "flat": flatSol} {
		if viol, idx := p.Violation(sol.X); viol > 1e-6 {
			t.Fatalf("%s solution violates constraint %d by %g", name, idx, viol)
		}
	}
	return revised
}

// TestSolversMatchRandom solves random feasible problems with all three
// implementations and requires matching statuses and objective values.
func TestSolversMatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rev, flat := lp.NewSolver(), lp.NewSolver()
	for trial := 0; trial < 200; trial++ {
		p, _ := randomProblem(rng)
		solveAllThree(t, rev, flat, p, lp.Options{})
	}
}

// TestSolversMatchRandomSmallRefactor reruns the random lattice with a tiny
// refactorization interval so eta-file rebuilds happen mid-solve even on
// small problems.
func TestSolversMatchRandomSmallRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	rev, flat := lp.NewSolver(), lp.NewSolver()
	for trial := 0; trial < 200; trial++ {
		p, _ := randomProblem(rng)
		solveAllThree(t, rev, flat, p, lp.Options{RefactorEvery: 2})
	}
}

// TestSolversMatchInfeasible checks that all three paths agree on an
// infeasible system.
func TestSolversMatchInfeasible(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 1)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 2)
	sol := solveAllThree(t, lp.NewSolver(), lp.NewSolver(), p, lp.Options{})
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

// TestSolversMatchUnbounded checks that all three paths agree on an
// unbounded objective.
func TestSolversMatchUnbounded(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 1)
	sol := solveAllThree(t, lp.NewSolver(), lp.NewSolver(), p, lp.Options{})
	if sol.Status != lp.StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

// TestSolversMatchDegenerate runs Beale's classic cycling example padded
// with redundant rows (heavy degeneracy, exercising the Bland fallback) and
// requires all three implementations to find the optimum.
func TestSolversMatchDegenerate(t *testing.T) {
	p := lp.NewProblem(3)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 0.25}, {Var: 1, Value: -60}, {Var: 2, Value: -0.04}}, lp.LE, 0)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 0.5}, {Var: 1, Value: -90}, {Var: 2, Value: -0.02}}, lp.LE, 0)
	for i := 0; i < 6; i++ {
		p.AddConstraint([]lp.Coef{{Var: 2, Value: 1}}, lp.LE, 1)
	}
	sol := solveAllThree(t, lp.NewSolver(), lp.NewSolver(), p, lp.Options{})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("status=%v objective=%g, want optimal -0.05", sol.Status, sol.Objective)
	}
}

// TestIterationLimitBothMethods checks the iteration guard and its counters
// on both production paths under a one-pivot budget on every rung
// (Fault.PivotBudget): a flat solve reports StatusIterLimit after at most one
// pivot and is counted, while a revised solve, whose cascade never returns a
// partial answer, fails with a typed *PivotBudgetError after two fallbacks
// and counts no solve.
func TestIterationLimitBothMethods(t *testing.T) {
	p := lp.NewProblem(3)
	for v := 0; v < 3; v++ {
		p.SetObjective(v, -1)
	}
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 1}, {Var: 2, Value: 1}}, lp.LE, 10)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 2}}, lp.LE, 8)
	p.AddConstraint([]lp.Coef{{Var: 1, Value: 1}, {Var: 2, Value: 3}}, lp.LE, 9)
	lp.SetFaultHook(func() lp.FaultPlan {
		return func(int) *lp.Fault { return &lp.Fault{PivotBudget: 1} }
	})
	defer lp.SetFaultHook(nil)

	var flatSink lp.Stats
	sol, err := lp.Solve(p, lp.Options{Method: lp.MethodFlat, Stats: &flatSink})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit || sol.Iterations != 1 {
		t.Fatalf("flat: status %v after %d pivots, want iteration-limit after 1", sol.Status, sol.Iterations)
	}
	if got := flatSink.Snapshot(); got.Solves != 1 || got.Iterations != 1 {
		t.Fatalf("flat: counted %d solves and %d pivots, want 1 and 1", got.Solves, got.Iterations)
	}

	var revSink lp.Stats
	_, err = lp.Solve(p, lp.Options{Stats: &revSink})
	var pb *lp.PivotBudgetError
	if !errors.As(err, &pb) || pb.Iterations != 1 {
		t.Fatalf("revised: err = %v, want a *PivotBudgetError after 1 pivot", err)
	}
	if got := revSink.Snapshot(); got.Solves != 0 || got.CascadeFallbacks != 2 {
		t.Fatalf("revised: counted %d solves and %d fallbacks, want 0 and 2", got.Solves, got.CascadeFallbacks)
	}
}

// TestSolverReuseIsAllocationFree asserts that a reused Solver stops
// allocating buffers after the first solve of a given size — for both
// methods — which is the property the experiment sweeps rely on.
func TestSolverReuseIsAllocationFree(t *testing.T) {
	for _, method := range []lp.Method{lp.MethodRevised, lp.MethodFlat} {
		rng := rand.New(rand.NewSource(7))
		solver := lp.NewSolver()
		p, _ := randomProblem(rng)
		opts := lp.Options{Method: method}
		first, err := solver.Solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first.TableauAllocs == 0 {
			t.Fatalf("%v: first solve reported zero buffer allocations", method)
		}
		again, err := solver.Solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.TableauAllocs != 0 {
			t.Fatalf("%v: repeat solve allocated %d buffers, want 0", method, again.TableauAllocs)
		}
		if again.Status != first.Status || math.Abs(again.Objective-first.Objective) > 1e-9 {
			t.Fatalf("%v: repeat solve diverged: %+v vs %+v", method, again, first)
		}
	}
}

// TestRevisedRefactorizationLongSolve forces frequent basis reinversions on
// the E7-sized paper model (a long solve with ~200 pivots) and checks that
// the heavily-refactorized solve still matches the flat path exactly and
// reports its refactorization work.
func TestRevisedRefactorizationLongSolve(t *testing.T) {
	p := buildE7SizedProblem(t)
	rev, err := lp.Solve(p, lp.Options{Method: lp.MethodRevised, RefactorEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lp.Solve(p, lp.Options{Method: lp.MethodFlat})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Status != lp.StatusOptimal || flat.Status != lp.StatusOptimal {
		t.Fatalf("status revised=%v flat=%v", rev.Status, flat.Status)
	}
	if math.Abs(rev.Objective-flat.Objective) > 1e-6 {
		t.Fatalf("objective revised=%g flat=%g", rev.Objective, flat.Objective)
	}
	if rev.Refactorizations < 5 {
		t.Fatalf("Refactorizations = %d, want >= 5 with RefactorEvery=8 over %d pivots",
			rev.Refactorizations, rev.Iterations)
	}
	if rev.EtaColumns == 0 {
		t.Fatal("EtaColumns = 0, want > 0")
	}
	if viol, idx := p.Violation(rev.X); viol > 1e-6 {
		t.Fatalf("revised solution violates constraint %d by %g", idx, viol)
	}
}

// TestSolversMatchOnPaperModels builds the synchronized-schedule LP for
// random small multi-disk instances and requires all three implementations
// to agree on the relaxation's optimal value; the value must also be a valid
// lower bound on the exhaustive-search optimal stall, and the extracted
// schedule's stall must never beat the exhaustive optimum (which is allowed
// extra cache as in Lemma 3).
func TestSolversMatchOnPaperModels(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow in -short mode")
	}
	rev, flat := lp.NewSolver(), lp.NewSolver()
	for trial := 0; trial < 6; trial++ {
		disks := 1 + trial%3
		seq := workload.Uniform(9, 5, int64(4000+trial))
		in := workload.Instance(seq, 3, 2, disks, workload.AssignStripe, 0)
		m, err := lpmodel.Build(in)
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		sol := solveAllThree(t, rev, flat, m.Problem, lp.Options{})
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		frac, err := m.SolveWith(rev, lp.Options{})
		if err != nil {
			t.Fatalf("trial %d: SolveWith: %v", trial, err)
		}
		if math.Abs(frac.Objective-sol.Objective) > 1e-9 {
			t.Fatalf("trial %d: SolveWith objective %g differs from Solve %g", trial, frac.Objective, sol.Objective)
		}
		optRes, err := opt.Optimal(in, opt.Options{})
		if err != nil {
			t.Fatalf("trial %d: opt: %v", trial, err)
		}
		if sol.Objective > float64(optRes.Stall)+1e-6 {
			t.Fatalf("trial %d: LP bound %g exceeds optimal stall %d", trial, sol.Objective, optRes.Stall)
		}
		res, err := lpmodel.Plan(in, lp.Options{})
		if err != nil {
			t.Fatalf("trial %d: Plan: %v", trial, err)
		}
		if res.Stall > optRes.Stall {
			t.Fatalf("trial %d: plan stall %d worse than optimal stall %d", trial, res.Stall, optRes.Stall)
		}
	}
}

// buildE7SizedProblem constructs the synchronized-schedule LP at the E7
// sweep's size, the model the solvers are tuned for.
func buildE7SizedProblem(tb testing.TB) *lp.Problem {
	tb.Helper()
	seq := workload.Uniform(11, 6, 900)
	in := workload.Instance(seq, 3, 2, 3, workload.AssignStripe, 0)
	m, err := lpmodel.Build(in)
	if err != nil {
		tb.Fatal(err)
	}
	return m.Problem
}

// buildServeSizedProblem constructs the synchronized-schedule LP at the size
// pcserve's lp-optimal requests solve (n=22–48, where E7's is n=11).
func buildServeSizedProblem(tb testing.TB) *lp.Problem {
	tb.Helper()
	seq := workload.Zipf(40, 10, 1.1, 17)
	in := workload.Instance(seq, 5, 4, 3, workload.AssignStripe, 0)
	m, err := lpmodel.Build(in)
	if err != nil {
		tb.Fatal(err)
	}
	return m.Problem
}

// benchSolve measures repeated solves of the E7-sized problem with a reused
// Solver (see benchSolveProblem).
func benchSolve(b *testing.B, opts lp.Options) {
	benchSolveProblem(b, buildE7SizedProblem(b), opts)
}

// benchSolveProblem measures repeated solves of p with a reused Solver,
// after one untimed warm-up solve so the steady-state (buffer-reuse) cost is
// what gets reported even at -benchtime 1x.  The solve's pivot counts ride
// along as pivots/op and phase1-pivots/op.
func benchSolveProblem(b *testing.B, p *lp.Problem, opts lp.Options) {
	solver := lp.NewSolver()
	sol, err := solver.Solve(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sol.Iterations), "pivots/op")
	b.ReportMetric(float64(sol.Phase1Iterations), "phase1-pivots/op")
}

// BenchmarkRevisedSolveE7Size is the production revised-simplex path with a
// reused Solver.
func BenchmarkRevisedSolveE7Size(b *testing.B) {
	benchSolve(b, lp.Options{Method: lp.MethodRevised})
}

// BenchmarkRevisedSolveServeSize is the production path at serving size: a
// cold solve of an n=40, D=3 model, where phase one is most of the work.
func BenchmarkRevisedSolveServeSize(b *testing.B) {
	benchSolveProblem(b, buildServeSizedProblem(b), lp.Options{Method: lp.MethodRevised})
}

// BenchmarkFlatSolveE7Size is the PR-1 flat-tableau path on the same
// problem, kept so the revised/flat speedup stays measurable.
func BenchmarkFlatSolveE7Size(b *testing.B) {
	benchSolve(b, lp.Options{Method: lp.MethodFlat})
}

// BenchmarkDenseSolveE7Size is the pre-refactor dense [][]float64 reference
// path on the same problem.
func BenchmarkDenseSolveE7Size(b *testing.B) {
	p := buildE7SizedProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.DenseSolve(p); err != nil {
			b.Fatal(err)
		}
	}
}
