package lp

import "sync/atomic"

// Fault describes one injected numerical failure inside the revised simplex.
// Faults exist for tests (package faultinject drives them through
// SetFaultHook): they make the fast engine wrong on demand so the
// verification layer and the self-healing cascade can be proven against real
// numerical damage rather than trusted on inspection.  A nil *Fault injects
// nothing; the zero value injects nothing either.
type Fault struct {
	// CorruptFactor corrupts the factored basis inverse at every phase-two
	// refactorization of the solve: the selected pivot entries of the LU
	// diagonal are scaled by 1+CorruptScale.  Re-applying at every refactorization makes the fault
	// sticky — the drift check and the periodic refactorization self-heal a
	// one-shot corruption, so a transient flip would often be absorbed
	// silently before it could reach the solution.  Phase one is left clean
	// so the damage reaches the optimality certificate (a corrupted phase
	// one merely misreports infeasibility, which the cascade distrusts
	// anyway but which exercises nothing).
	CorruptFactor bool
	// CorruptEntry selects the elimination index whose factor entry is
	// corrupted (reduced modulo the factor length); -1 corrupts every entry,
	// which guarantees the damage reaches the basic values instead of
	// depending on one pivot's flow.
	CorruptEntry int
	// CorruptScale is the relative size of the corruption (0 means 0.5).
	CorruptScale float64
	// PerturbPivot scales every pivot element by 1+PerturbPivot before the
	// basis update, poisoning both the update eta and the basic values.
	PerturbPivot float64
	// CorruptObjective corrupts the reported objective value of an Optimal
	// revised solve at extraction time (the X vector stays intact), modelling
	// damage to the result after the arithmetic finished.  Unlike factor
	// corruption — whose phase-two damage can surface as an untrusted
	// terminal status or a singular basis instead of a bad certificate —
	// this fault is guaranteed to be caught by Verify's objective
	// recomputation on every problem, which makes it the deterministic
	// driver for the verification-failure path.
	CorruptObjective bool
	// ForceSingular makes every refactorization of the solve report
	// errSingularBasis, exercising the singular-basis recovery paths.
	ForceSingular bool
	// PivotBudget overrides the rung's pivot budget when positive; a budget
	// of 1 exhausts immediately, failing the rung (and the solve, with a
	// typed PivotBudgetError, once every rung has exhausted it).  It is the
	// one fault the flat path honours: a MethodFlat solve under it reports
	// StatusIterLimit.
	PivotBudget int
}

// armed reports whether a fault arming CorruptFactor or ForceSingular wants
// an aggressive refactorization schedule: refactorizing after every pivot
// makes either fault bite on the first pivot instead of depending on the
// solve happening to refactorize, so an armed fault is deterministically
// effective.
func (f *Fault) armed() bool {
	return f != nil && (f.CorruptFactor || f.ForceSingular)
}

// apply corrupts the factor entries selected by the fault.
func (f *Fault) apply(factor []float64) {
	if len(factor) == 0 {
		return
	}
	scale := 1 + f.CorruptScale
	if f.CorruptScale == 0 {
		scale = 1.5
	}
	if f.CorruptEntry >= 0 {
		factor[f.CorruptEntry%len(factor)] *= scale
		return
	}
	for i := range factor {
		factor[i] *= scale
	}
}

// FaultPlan maps a cascade rung (0 = the first revised attempt, rising
// through the downgrade ladder of cascade.go; a MethodFlat solve is rung 0)
// to the fault injected into that rung's solve, or nil for a clean solve.
// Returning a fault for rung 0 only is the usual shape: the recovery rungs
// then reproduce the clean result.
type FaultPlan func(rung int) *Fault

// at returns the fault of the given rung (nil for a nil plan).
func (fp FaultPlan) at(rung int) *Fault {
	if fp == nil {
		return nil
	}
	return fp(rung)
}

type faultHookFunc func() FaultPlan

var faultHook atomic.Pointer[faultHookFunc]

// SetFaultHook installs a process-wide hook consulted once per top-level
// Solver solve; the returned FaultPlan (nil = no faults) governs that
// solve's cascade rungs.  Passing nil removes the hook.  Test-only: the hook
// is global because the service's solvers are owned by its shards.
func SetFaultHook(fn func() FaultPlan) {
	if fn == nil {
		faultHook.Store(nil)
		return
	}
	f := faultHookFunc(fn)
	faultHook.Store(&f)
}

// loadFaultPlan fetches this solve's fault plan from the hook (nil when no
// hook is installed or the hook declines to fault this solve).
func loadFaultPlan() FaultPlan {
	fp := faultHook.Load()
	if fp == nil {
		return nil
	}
	return (*fp)()
}
