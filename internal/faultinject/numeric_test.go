package faultinject

import (
	"errors"
	"math"
	"testing"

	"pfcache/internal/lp"
)

// productionLP is a small LP with a known unique optimum (objective -36 at
// (2,6)): maximise 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
func productionLP() *lp.Problem {
	p := lp.NewProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -5)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 4)
	p.AddConstraint([]lp.Coef{{Var: 1, Value: 2}}, lp.LE, 12)
	p.AddConstraint([]lp.Coef{{Var: 0, Value: 3}, {Var: 1, Value: 2}}, lp.LE, 18)
	return p
}

// TestNumericInjectorCadence proves the injector faults exactly every Nth
// solve, alternating corruption and forced singularity, and that every
// faulted solve still returns the clean optimum — the cascade absorbs the
// damage, visibly (Downgrades, counters) but without changing the answer.
func TestNumericInjectorCadence(t *testing.T) {
	p := productionLP()
	var sink lp.Stats

	inj := NewNumericInjector(3)
	inj.Install()
	defer inj.Uninstall()

	solver := lp.NewSolver()
	faulted := 0
	for i := 1; i <= 9; i++ {
		sol, err := solver.Solve(p, lp.Options{Stats: &sink})
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("solve %d: status %v", i, sol.Status)
		}
		if math.Abs(sol.Objective-(-36)) > 1e-6 {
			t.Fatalf("solve %d: objective %g, want -36", i, sol.Objective)
		}
		if i%3 == 0 {
			if sol.Downgrades == 0 {
				t.Errorf("solve %d should have been faulted but reported no downgrades", i)
			}
			faulted++
		} else if sol.Downgrades != 0 {
			t.Errorf("clean solve %d reported %d downgrades", i, sol.Downgrades)
		}
	}

	if got := inj.Miscomputes.Load() + inj.Corruptions.Load() + inj.Singulars.Load(); got != int64(faulted) {
		t.Errorf("injected %d faults, want %d", got, faulted)
	}
	if inj.Miscomputes.Load() == 0 || inj.Corruptions.Load() == 0 || inj.Singulars.Load() == 0 {
		t.Errorf("fault mix did not rotate: miscomputes=%d corruptions=%d singulars=%d",
			inj.Miscomputes.Load(), inj.Corruptions.Load(), inj.Singulars.Load())
	}
	got := sink.Snapshot()
	if got.VerifyFailures < uint64(inj.Miscomputes.Load()) {
		t.Errorf("verify failures = %d, want >= %d miscomputes", got.VerifyFailures, inj.Miscomputes.Load())
	}
	if got.CascadeFallbacks < uint64(faulted) {
		t.Errorf("cascade fallbacks = %d, want >= %d", got.CascadeFallbacks, faulted)
	}
	if got.Solves != 9 || got.VerifiedSolves != 9 {
		t.Errorf("sink counted %d solves (%d verified), want 9 and 9", got.Solves, got.VerifiedSolves)
	}
}

// TestNumericInjectorExhaustion proves InjectExhaustion is unabsorbable: a
// one-pivot budget on every rung exhausts the whole cascade into the typed
// error pair, and the very next solve is clean again.
func TestNumericInjectorExhaustion(t *testing.T) {
	p := productionLP()
	inj := NewNumericInjector(1 << 30) // cadence effectively off
	inj.Install()
	defer inj.Uninstall()

	inj.InjectExhaustion(1)
	solver := lp.NewSolver()
	_, err := solver.Solve(p, lp.Options{})
	var ce *lp.CascadeExhaustedError
	if !errors.As(err, &ce) {
		t.Fatalf("exhausted solve returned %v, want *lp.CascadeExhaustedError", err)
	}
	var pb *lp.PivotBudgetError
	if !errors.As(err, &pb) {
		t.Fatalf("exhaustion cause is %v, want *lp.PivotBudgetError via Unwrap", ce.Last)
	}
	if inj.Exhaustions.Load() != 1 {
		t.Errorf("exhaustion counter = %d, want 1", inj.Exhaustions.Load())
	}

	sol, err := solver.Solve(p, lp.Options{})
	if err != nil || sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-36)) > 1e-6 {
		t.Fatalf("solve after exhaustion: sol=%+v err=%v, want the clean optimum", sol, err)
	}
}

// TestNumericInjectorUninstall proves Uninstall actually clears the global
// hook: solves afterwards see no faults at any cadence.
func TestNumericInjectorUninstall(t *testing.T) {
	p := productionLP()
	inj := NewNumericInjector(1) // fault every solve
	inj.Install()
	inj.Uninstall()

	sol, err := lp.Solve(p, lp.Options{})
	if err != nil || sol.Status != lp.StatusOptimal || sol.Downgrades != 0 {
		t.Fatalf("post-uninstall solve: sol=%+v err=%v, want a clean undowngraded optimum", sol, err)
	}
	if n := inj.Miscomputes.Load() + inj.Corruptions.Load() + inj.Singulars.Load(); n != 0 {
		t.Errorf("uninstalled injector still faulted %d solves", n)
	}
}
