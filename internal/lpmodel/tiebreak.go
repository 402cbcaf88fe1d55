package lpmodel

// TieBreakObjective perturbs every interval variable's objective coefficient
// by a deterministic, interval-specific epsilon: cost(x_I) becomes
// stall(I) + eps*w(I) with w(I) in [0,1) hashed from the interval's
// (Start, End) identity.  The synchronized-schedule LPs are massively
// degenerate — their optimal face usually contains many vertices, and which
// one a solve lands on depends on the pivot path, so an incrementally
// re-optimised program (Extend + SolveIncremental) and a cold rebuild, or two
// engines, may serve different equal-cost schedules.  A generic
// perturbation makes the optimal x unique, so every correct solve — warm or
// cold, whatever the engine — lands on the same vertex and the extracted
// schedules are byte-identical.  The solve's reported Objective stays the
// unperturbed sum of stall(I)·x(I) at that vertex, so the lower bound is the
// paper's.
//
// The epsilon depends only on the interval's endpoints, not its enumeration
// index: Extend enumerates the same intervals as Build of the extended trace
// but in a different order, and endpoint-keyed epsilons keep the two paths
// solving the identical perturbed program; call it again after an Extend to
// perturb the appended intervals.  The experiment suite ties every program
// whose schedule it extracts, so its tables do not depend on the LP engine,
// and the trace-replay benchmark (pcbench -replay, R1) ties both of its
// chains.  Serving stays unperturbed: on the lp-cold programs the
// perturbation costs about 60% more pivots.
func (m *Model) TieBreakObjective(eps float64) {
	for idx, v := range m.xVar {
		iv := m.Intervals[idx]
		base := float64(iv.Stall(m.In.F))
		m.Problem.SetObjective(v, base+eps*tieWeight(iv))
	}
	m.tied = true
}

// tieWeight hashes the interval's endpoints to [0,1) with pairwise-distinct
// values (a 64-bit mix), which is what makes the perturbed objective
// generic.
func tieWeight(iv Interval) float64 {
	x := uint64(iv.Start)*0x9E3779B97F4A7C15 ^ uint64(iv.End)*0xC2B2AE3D27D4EB4F
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}
