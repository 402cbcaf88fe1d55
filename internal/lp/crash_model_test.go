package lp_test

import (
	"math"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/workload"
)

// TestTriangularCrashShortensPhaseOne solves the three paper models of
// lpmodel's crash test from the full crash start and from the unit-singleton
// pass alone.  The triangular pass must claim rows on each and reach the
// same optimum, and phase one over the three must be strictly shorter.  It
// is not shorter on every model: on n=30, D=3 the crashed phase one takes
// 340 pivots against 325, because it starts from another vertex and the
// degenerate path it takes from there is longer; over lp-cold's 126
// instances phase one fell from 300 to 164 pivots per solve.
func TestTriangularCrashShortensPhaseOne(t *testing.T) {
	cases := []struct {
		n, blocks, k, f, disks int
		seed                   int64
	}{
		{11, 6, 3, 2, 3, 900},
		{22, 10, 4, 4, 2, 5},
		{30, 12, 5, 4, 3, 17},
	}
	fullPhase1, unitPhase1 := 0, 0
	for _, tc := range cases {
		seq := workload.Uniform(tc.n, tc.blocks, tc.seed)
		in := workload.Instance(seq, tc.k, tc.f, tc.disks, workload.AssignStripe, 0)
		m, err := lpmodel.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Problem
		claimed := 0
		for i := 0; i < p.NumConstraints(); i++ {
			if p.TriangularCrashColumn(i) >= 0 {
				claimed++
			}
		}
		if claimed == 0 {
			t.Fatalf("n=%d D=%d: the triangular pass claims no row", tc.n, tc.disks)
		}
		full, err := lp.NewSolver().Solve(p, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		unitSolver := lp.NewSolver()
		lp.UnitCrashOnly(unitSolver)
		unit, err := unitSolver.Solve(p, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != lp.StatusOptimal || unit.Status != lp.StatusOptimal {
			t.Fatalf("n=%d D=%d: statuses %v / %v", tc.n, tc.disks, full.Status, unit.Status)
		}
		if math.Abs(full.Objective-unit.Objective) > 1e-6 {
			t.Fatalf("n=%d D=%d: objective %g with the triangular crash, %g without", tc.n, tc.disks, full.Objective, unit.Objective)
		}
		fullPhase1 += full.Phase1Iterations
		unitPhase1 += unit.Phase1Iterations
		t.Logf("n=%d D=%d: %d rows claimed; phase-one pivots %d (unit crash alone %d), total %d (%d)",
			tc.n, tc.disks, claimed, full.Phase1Iterations, unit.Phase1Iterations, full.Iterations, unit.Iterations)
	}
	if fullPhase1 >= unitPhase1 {
		t.Fatalf("%d phase-one pivots over the three models with the triangular crash, not below %d from the unit crash alone",
			fullPhase1, unitPhase1)
	}
}
