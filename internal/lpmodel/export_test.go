package lpmodel

// LPColdBlock exports lpColdBlock to the external tests.
var LPColdBlock = lpColdBlock

// SaltTieBreak perturbs m's interval costs like TieBreakObjective, with
// every interval's weight hashed from its endpoints and the salt, so that
// each salt picks its own vertex of the program's optimal face.
func SaltTieBreak(m *Model, eps float64, salt int) {
	for idx, v := range m.xVar {
		iv := m.Intervals[idx]
		w := tieWeight(Interval{Start: iv.Start + salt<<20, End: iv.End})
		m.Problem.SetObjective(v, float64(iv.Stall(m.In.F))+eps*w)
	}
	m.tied = true
}
