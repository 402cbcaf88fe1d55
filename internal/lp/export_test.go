package lp

// DenseSolve exposes the test-only dense reference solver to external test
// packages (which may import lpmodel without creating an import cycle), so
// the property tests can compare the production flat-tableau Solver against
// the pre-refactor dense path on the paper's LP models.
var DenseSolve = denseSolve

// SolveEngine runs the revised engine alone on p, cold, under the fault the
// hook plans for rung 0: no cascade, so no certificate check and no fall
// back to the flat path.  Under the cascade an Infeasible or Unbounded
// verdict always comes from the flat rung, so the tests that pin the revised
// engine to the flat reference read the engine's own terminal verdicts
// through this.
func SolveEngine(s *Solver, p *Problem, opts Options) (*Solution, error) {
	s.rev.fault = loadFaultPlan().at(0)
	defer func() { s.rev.fault = nil }()
	return s.rev.solve(p, opts, nil)
}

// ForgeWarmBasis fabricates a WarmBasis with arbitrary (possibly hostile)
// contents, bypassing the capture path, so the external property tests can
// feed stale and corrupt snapshots into warm-started solves.
func ForgeWarmBasis(rows, numVars int, cols []int, senses []Sense) *WarmBasis {
	return &WarmBasis{rows: rows, numVars: numVars, cols: cols, senses: senses}
}

// TamperX exposes a solution's X for hostile mutation in verification tests
// while keeping the duals (which external packages cannot reach) intact.
func TamperX(sol *Solution, i int, v float64) { sol.X[i] = v }

// TamperObjective overwrites a solution's reported objective.
func TamperObjective(sol *Solution, v float64) { sol.Objective = v }

// TamperDual overwrites one recorded simplex multiplier (no-op when the
// solve recorded none).
func TamperDual(sol *Solution, i int, v float64) {
	if i < len(sol.duals) {
		sol.duals[i] = v
	}
}

// HasDuals reports whether the solve recorded its simplex multipliers.
func HasDuals(sol *Solution) bool { return sol.duals != nil }

// UnitCrashOnly makes s's cold starts skip the triangular crash pass, so
// external tests can compare the full crash start against the
// unit-singleton pass alone.
func UnitCrashOnly(s *Solver) { s.rev.unitCrashOnly = true }
