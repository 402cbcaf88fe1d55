package lp_test

// Tests of the verified-solve layer: the independent optimality certificate
// (lp.Verify), the typed numeric-failure errors, the self-healing cascade
// behind Options.Cascade, and the injectable numeric faults the cascade is
// proven against.  The hostile warm-start property test rides here too: a
// stale or fabricated basis must never change a solve's answer, only its
// cost.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pfcache/internal/lp"
)

// productionProblem is the classic two-variable production LP with a unique
// optimum: maximise 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
// (objective -36 at (2,6) in min form).
func productionProblem() *lp.Problem {
	p := lp.NewProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -5)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 4)
	p.AddConstraint([]lp.Coef{{Var: 1, Value: 2}}, lp.LE, 12)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 3}, {Var: 1, Value: 2}}, lp.LE, 18)
	return p
}

func optimalSolution(t *testing.T, p *lp.Problem) *lp.Solution {
	t.Helper()
	sol, err := lp.Solve(p, lp.Options{})
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("solve: sol=%+v err=%v", sol, err)
	}
	return sol
}

// wantVerifyFailure asserts Verify rejects sol with the named check.
func wantVerifyFailure(t *testing.T, p *lp.Problem, sol *lp.Solution, check string) {
	t.Helper()
	err := lp.Verify(p, sol)
	var ve *lp.VerificationError
	if !errors.As(err, &ve) {
		t.Fatalf("Verify = %v, want *VerificationError (%s)", err, check)
	}
	if ve.Check != check {
		t.Fatalf("Verify failed check %q, want %q", ve.Check, check)
	}
}

// TestVerifyCertificate tampers with each component of an optimal solution
// and requires the certificate to name the corresponding failed check, while
// the untampered solution verifies clean.
func TestVerifyCertificate(t *testing.T) {
	p := productionProblem()

	if err := lp.Verify(p, optimalSolution(t, p)); err != nil {
		t.Fatalf("clean solution failed verification: %v", err)
	}

	sol := optimalSolution(t, p)
	lp.TamperX(sol, 0, -1)
	wantVerifyFailure(t, p, sol, "bounds")

	sol = optimalSolution(t, p)
	lp.TamperX(sol, 0, 100) // breaks x <= 4 long before the objective check runs
	wantVerifyFailure(t, p, sol, "primal-residual")

	sol = optimalSolution(t, p)
	lp.TamperObjective(sol, sol.Objective+1)
	wantVerifyFailure(t, p, sol, "objective")

	sol = optimalSolution(t, p)
	if !lp.HasDuals(sol) {
		t.Fatal("revised solve recorded no duals")
	}
	lp.TamperDual(sol, 0, 1) // a positive multiplier on a <= row is dual infeasible
	wantVerifyFailure(t, p, sol, "dual-feasibility")
}

// TestVerifyRejectsNonFinite: a NaN in X, the objective or the duals, or an
// infinite X with a matching infinite objective, must fail the certificate
// instead of slipping past comparisons that read false on NaN.  The LP has
// only >= rows (min x + 2y s.t. x + y >= 2, x + 3y >= 3), so an infinite y
// satisfies every row and c'x - objective reads Inf - Inf = NaN.
func TestVerifyRejectsNonFinite(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 2)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 1}}, lp.GE, 2)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 3}}, lp.GE, 3)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name, check string
		tamper      func(*lp.Solution)
	}{
		{"NaN in X", "bounds", func(sol *lp.Solution) { lp.TamperX(sol, 0, nan) }},
		{"NaN objective", "objective", func(sol *lp.Solution) { lp.TamperObjective(sol, nan) }},
		{"NaN dual", "dual-feasibility", func(sol *lp.Solution) { lp.TamperDual(sol, 0, nan) }},
		{"infinite X and objective", "bounds", func(sol *lp.Solution) {
			lp.TamperX(sol, 1, inf)
			lp.TamperObjective(sol, inf)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol := optimalSolution(t, p)
			tc.tamper(sol)
			wantVerifyFailure(t, p, sol, tc.check)
		})
	}
}

// TestVerifyTrivialOnNonOptimal: non-optimal statuses carry no certificate.
func TestVerifyTrivialOnNonOptimal(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 1)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 2)
	sol, err := lp.Solve(p, lp.Options{})
	if err != nil || sol.Status != lp.StatusInfeasible {
		t.Fatalf("sol=%+v err=%v, want infeasible", sol, err)
	}
	if verr := lp.Verify(p, sol); verr != nil {
		t.Fatalf("Verify(infeasible) = %v, want nil", verr)
	}
	if verr := lp.Verify(p, nil); verr != nil {
		t.Fatalf("Verify(nil) = %v, want nil", verr)
	}
}

// TestNumericErrorStrings pins the wire-visible error strings of the typed
// numeric failures: the service maps them to HTTP bodies, so their wording
// is part of the observable contract.
func TestNumericErrorStrings(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{&lp.VerificationError{Check: "primal-residual", Violation: 0.0123, Tolerance: 1e-6},
			"lp: verification failed: primal-residual violation 0.0123 exceeds 1e-06"},
		{&lp.PivotBudgetError{Iterations: 7},
			"lp: pivot budget exhausted after 7 iterations"},
		{&lp.CascadeExhaustedError{Attempts: 4, Last: errors.New("boom")},
			"lp: solve cascade exhausted after 4 attempts: boom"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("error string %q, want %q", got, c.want)
		}
	}
	ce := &lp.CascadeExhaustedError{Attempts: 4, Last: &lp.PivotBudgetError{Iterations: 1}}
	var pb *lp.PivotBudgetError
	if !errors.As(ce, &pb) || pb.Iterations != 1 {
		t.Errorf("CascadeExhaustedError does not unwrap to its cause")
	}
}

// faultRungZero installs a hook injecting f into every solve's first cascade
// rung and returns the uninstaller.
func faultRungZero(f *lp.Fault) func() {
	lp.SetFaultHook(func() lp.FaultPlan {
		return func(rung int) *lp.Fault {
			if rung == 0 {
				return f
			}
			return nil
		}
	})
	return func() { lp.SetFaultHook(nil) }
}

// TestCascadeHealsCorruptFactor corrupts the basis factorization on the
// first rung for every engine of the grid and requires the cascade to return
// the exact clean solution — same objective, bit-identical X — with the
// damage visible only in Downgrades and the package counters.
func TestCascadeHealsCorruptFactor(t *testing.T) {
	for _, combo := range engineCombos {
		t.Run(combo.name, func(t *testing.T) {
			p := productionProblem()
			opts := combo.opts
			opts.Cascade = true
			solver := lp.NewSolver()
			clean, err := solver.Solve(p, opts)
			if err != nil || clean.Status != lp.StatusOptimal || clean.Downgrades != 0 {
				t.Fatalf("clean solve: sol=%+v err=%v", clean, err)
			}

			var sink lp.Stats
			opts.Stats = &sink
			undo := faultRungZero(&lp.Fault{CorruptFactor: true, CorruptEntry: -1})
			healed, err := solver.Solve(p, opts)
			undo()
			if err != nil || healed.Status != lp.StatusOptimal {
				t.Fatalf("faulted solve: sol=%+v err=%v", healed, err)
			}
			if healed.Downgrades == 0 {
				t.Fatal("corrupted rung was not downgraded")
			}
			for i := range healed.X {
				if healed.X[i] != clean.X[i] {
					t.Fatalf("healed X[%d] = %g, clean %g: recovery changed the answer", i, healed.X[i], clean.X[i])
				}
			}
			got := sink.Snapshot()
			if got.VerifyFailures == 0 {
				t.Error("corruption was not caught by verification")
			}
			if got.CascadeFallbacks == 0 {
				t.Error("recovery did not count a cascade fallback")
			}
			if got.Solves != 1 || got.VerifiedSolves != 1 {
				t.Errorf("sink counted %d solves (%d verified), want the one healed solve", got.Solves, got.VerifiedSolves)
			}
		})
	}
}

// TestCascadeHealsCorruptObjective corrupts the reported objective on the
// first rung: the certificate's recomputation must catch it every time, and
// the clean re-solve must return the exact answer.
func TestCascadeHealsCorruptObjective(t *testing.T) {
	p := productionProblem()
	solver := lp.NewSolver()
	clean, err := solver.Solve(p, lp.Options{Cascade: true})
	if err != nil {
		t.Fatal(err)
	}

	var sink lp.Stats
	undo := faultRungZero(&lp.Fault{CorruptObjective: true})
	healed, err := solver.Solve(p, lp.Options{Cascade: true, Stats: &sink})
	undo()
	if err != nil || healed.Status != lp.StatusOptimal || healed.Downgrades != 1 {
		t.Fatalf("faulted solve: sol=%+v err=%v, want a once-downgraded optimum", healed, err)
	}
	if healed.Objective != clean.Objective {
		t.Fatalf("healed objective %g, clean %g", healed.Objective, clean.Objective)
	}
	if d := sink.Snapshot().VerifyFailures; d != 1 {
		t.Fatalf("verify failures = %d, want exactly 1", d)
	}
}

// TestCascadeHealsSingularBasis forces every refactorization of the first
// rung singular; the cascade's clean re-solve must return the exact answer.
func TestCascadeHealsSingularBasis(t *testing.T) {
	for _, combo := range engineCombos {
		t.Run(combo.name, func(t *testing.T) {
			p := productionProblem()
			opts := combo.opts
			opts.Cascade = true
			solver := lp.NewSolver()
			clean, err := solver.Solve(p, opts)
			if err != nil {
				t.Fatal(err)
			}

			undo := faultRungZero(&lp.Fault{ForceSingular: true})
			healed, err := solver.Solve(p, opts)
			undo()
			if err != nil || healed.Status != lp.StatusOptimal || healed.Downgrades == 0 {
				t.Fatalf("faulted solve: sol=%+v err=%v, want a downgraded optimum", healed, err)
			}
			if math.Abs(healed.Objective-clean.Objective) > 1e-9 {
				t.Fatalf("healed objective %g, clean %g", healed.Objective, clean.Objective)
			}
		})
	}
}

// TestCascadeHealsPerturbedPivot scales every pivot element on the first
// rung.  Whether the damage surfaces as a failed certificate or a singular
// refactorization, the final answer must be the clean optimum.
func TestCascadeHealsPerturbedPivot(t *testing.T) {
	p := productionProblem()
	undo := faultRungZero(&lp.Fault{PerturbPivot: 0.25})
	defer undo()
	sol, err := lp.Solve(p, lp.Options{Cascade: true})
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("sol=%+v err=%v", sol, err)
	}
	if math.Abs(sol.Objective-(-36)) > 1e-6 {
		t.Fatalf("objective %g, want -36", sol.Objective)
	}
}

// TestPivotBudgetWithoutCascade pins the non-cascade contract: an injected
// budget produces a StatusIterLimit solution, not an error — typed failures
// are a cascade feature.
func TestPivotBudgetWithoutCascade(t *testing.T) {
	p := productionProblem()
	undo := faultRungZero(&lp.Fault{PivotBudget: 1})
	defer undo()
	sol, err := lp.Solve(p, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit || sol.Iterations != 1 {
		t.Fatalf("status=%v iterations=%d, want iter-limit after 1 pivot", sol.Status, sol.Iterations)
	}
}

// TestCascadeExhaustion arms the budget on every rung: the cascade must fail
// with the typed exhaustion error rather than return a partial answer, and
// the next (clean) solve on the same solver must succeed.
func TestCascadeExhaustion(t *testing.T) {
	p := productionProblem()
	lp.SetFaultHook(func() lp.FaultPlan {
		return func(rung int) *lp.Fault { return &lp.Fault{PivotBudget: 1} }
	})
	solver := lp.NewSolver()
	_, err := solver.Solve(p, lp.Options{Cascade: true})
	lp.SetFaultHook(nil)
	var ce *lp.CascadeExhaustedError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CascadeExhaustedError", err)
	}
	if ce.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (warm, cold, flat)", ce.Attempts)
	}
	sol, err := solver.Solve(p, lp.Options{Cascade: true})
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("clean solve after exhaustion: sol=%+v err=%v", sol, err)
	}
}

// effectiveSenses mirrors the solver's sign normalisation: a row with a
// negative RHS is multiplied by -1, flipping its inequality sense.
func effectiveSenses(p *lp.Problem) []lp.Sense {
	senses := make([]lp.Sense, p.NumConstraints())
	for i := range senses {
		c := p.Constraint(i)
		senses[i] = c.Sense
		if c.RHS < 0 {
			switch c.Sense {
			case lp.LE:
				senses[i] = lp.GE
			case lp.GE:
				senses[i] = lp.LE
			}
		}
	}
	return senses
}

// TestHostileWarmStarts is the stale/hostile warm-start property test: over
// the engine grid and a lattice of random problems, a warm basis that is
// the wrong shape, or singular for the new coefficients, must fall back to a
// cold start silently and match the cold solve exactly.
func TestHostileWarmStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	for _, combo := range engineCombos {
		opts := combo.opts
		solver := lp.NewSolver()
		for trial := 0; trial < 60; trial++ {
			p, _ := randomProblem(rng)
			cold, err := solver.Solve(p, opts)
			if err != nil {
				t.Fatalf("%s trial %d: cold: %v", combo.name, trial, err)
			}

			rows := p.NumConstraints()
			hostile := []*lp.WarmBasis{
				// Wrong shape: one row too many.
				lp.ForgeWarmBasis(rows+1, p.NumVars(), make([]int, rows+1), make([]lp.Sense, rows+1)),
				// Wrong variable count.
				lp.ForgeWarmBasis(rows, p.NumVars()+3, make([]int, rows), effectiveSenses(p)),
				// Right shape, singular for the coefficients: every basis
				// column is structural column 0.
				lp.ForgeWarmBasis(rows, p.NumVars(), make([]int, rows), effectiveSenses(p)),
			}
			for h, b := range hostile {
				warm, err := solver.SolveFrom(p, opts, b)
				if err != nil {
					t.Fatalf("%s trial %d hostile %d: %v", combo.name, trial, h, err)
				}
				if warm.Status != cold.Status {
					t.Fatalf("%s trial %d hostile %d: status %v, cold %v", combo.name, trial, h, warm.Status, cold.Status)
				}
				if rows > 1 && warm.WarmStarted {
					t.Fatalf("%s trial %d hostile %d: claimed to warm start from a hostile basis", combo.name, trial, h)
				}
				if cold.Status == lp.StatusOptimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
					t.Fatalf("%s trial %d hostile %d: objective %g, cold %g", combo.name, trial, h, warm.Objective, cold.Objective)
				}
			}
		}
	}
}

// TestDualButNotPrimalFeasibleWarmStart captures the optimal basis of one
// problem and replays it on a same-shaped problem whose RHS moved under it:
// the old basis prices dual feasible but its basic point is infeasible, so
// the solve must reject it and match the cold answer.
func TestDualButNotPrimalFeasibleWarmStart(t *testing.T) {
	for _, combo := range engineCombos {
		t.Run(combo.name, func(t *testing.T) {
			opts := combo.opts
			donorOpts := opts
			donorOpts.CaptureBasis = true
			solver := lp.NewSolver()
			donor, err := solver.Solve(productionProblem(), donorOpts)
			if err != nil || donor.Basis == nil {
				t.Fatalf("donor: sol=%+v err=%v", donor, err)
			}

			// Same coefficients and senses, third RHS tightened from 18 to 6:
			// replaying the donor basis {x, y, slack0} solves to y = 6,
			// x = (6 - 12)/3 = -2 — a negative basic value, so the snapshot is
			// dual-consistent but primal infeasible here.
			tight := lp.NewProblem(2)
			tight.SetObjective(0, -3)
			tight.SetObjective(1, -5)
			tight.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 4)
			tight.AddConstraint([]lp.Coef{{Var: 1, Value: 2}}, lp.LE, 12)
			tight.AddConstraint([]lp.Coef{{Var: 0, Value: 3}, {Var: 1, Value: 2}}, lp.LE, 6)

			cold, err := solver.Solve(tight, opts)
			if err != nil || cold.Status != lp.StatusOptimal {
				t.Fatalf("cold: sol=%+v err=%v", cold, err)
			}
			warm, err := solver.SolveFrom(tight, opts, donor.Basis)
			if err != nil {
				t.Fatal(err)
			}
			if warm.WarmStarted {
				t.Fatal("primal-infeasible donor basis was accepted")
			}
			if warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("warm %v/%g, cold %v/%g", warm.Status, warm.Objective, cold.Status, cold.Objective)
			}
			if verr := lp.Verify(tight, warm); verr != nil {
				t.Fatalf("fallback solution failed verification: %v", verr)
			}
		})
	}
}

// BenchmarkRevisedSolveVerifiedE7Size measures the cascade-wrapped solve on
// the E7-sized model: a clean solve's cascade cost is one Verify walk on top
// of the plain revised solve (compare BenchmarkRevisedSolveE7Size), and the
// allocation guard bounds it like every other solve path.
func BenchmarkRevisedSolveVerifiedE7Size(b *testing.B) {
	benchSolve(b, lp.Options{Method: lp.MethodRevised, Cascade: true})
}
