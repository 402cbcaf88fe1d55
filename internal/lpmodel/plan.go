package lpmodel

import (
	"pfcache/internal/core"
	"pfcache/internal/lp"
)

// Plan runs the full Theorem 4 pipeline on an instance: build the
// synchronized-schedule LP, solve its relaxation, and extract an integral
// schedule from the fractional optimum.  The returned result contains both
// the schedule and the fractional lower bound, so the caller can verify the
// Theorem 4 guarantee (stall time equal to the lower bound and at most
// 2(D-1) extra cache locations) or detect that the extraction lost ground on
// a particular instance.  The solve draws a pooled solver, so repeated Plan
// calls reuse tableau buffers; callers holding their own lp.Solver can use
// Build plus Model.SolveWith plus Extract directly.
func Plan(in *core.Instance, opts lp.Options) (*PlanResult, error) {
	m, err := Build(in)
	if err != nil {
		return nil, err
	}
	frac, err := m.Solve(opts)
	if err != nil {
		return nil, err
	}
	return Extract(m, frac)
}

// LowerBound solves only the LP relaxation and returns its optimal value, a
// certified lower bound on the optimal stall time sOPT(sigma, k).  It is
// useful for experiments on instances too large for the exhaustive search of
// package opt.
func LowerBound(in *core.Instance, opts lp.Options) (float64, error) {
	m, err := Build(in)
	if err != nil {
		return 0, err
	}
	frac, err := m.Solve(opts)
	if err != nil {
		return 0, err
	}
	return frac.Objective, nil
}
