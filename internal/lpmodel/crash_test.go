package lpmodel

import (
	"math"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

// TestFetchBalanceRowsCrashOnScratch pins the LU engine's crash start on the
// paper's model.  Every per-disk fetch-balance row holds its Lemma 3 scratch
// column, a cost-0 unit column singleton, so the row starts with that column
// basic instead of an artificial, and phase one needs strictly fewer pivots
// than the flat reference path takes from the slack/artificial identity
// start, to the same optimum.
func TestFetchBalanceRowsCrashOnScratch(t *testing.T) {
	cases := []struct {
		n, blocks, k, f, disks int
		seed                   int64
	}{
		{11, 6, 3, 2, 3, 900},
		{22, 10, 4, 4, 2, 5},
		{30, 12, 5, 4, 3, 17},
	}
	for _, tc := range cases {
		seq := workload.Uniform(tc.n, tc.blocks, tc.seed)
		in := workload.Instance(seq, tc.k, tc.f, tc.disks, workload.AssignStripe, 0)
		m, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Problem
		scratchRow := make(map[int]int, len(m.sVar))
		for _, s := range m.sVar {
			scratchRow[s] = -1
		}
		for i := 0; i < p.NumConstraints(); i++ {
			for _, c := range p.Constraint(i).Coeffs {
				if row, ok := scratchRow[c.Var]; ok {
					if row >= 0 {
						t.Fatalf("n=%d D=%d: scratch column %d in rows %d and %d", tc.n, tc.disks, c.Var, row, i)
					}
					scratchRow[c.Var] = i
				}
			}
		}
		for _, s := range m.sVar {
			row := scratchRow[s]
			if row < 0 {
				t.Fatalf("n=%d D=%d: scratch column %d in no row", tc.n, tc.disks, s)
			}
			if got := p.CrashColumn(row); got != s {
				t.Fatalf("n=%d D=%d: fetch-balance row %d starts on column %d, want scratch column %d",
					tc.n, tc.disks, row, got, s)
			}
		}

		crash, err := lp.Solve(p, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ident, err := lp.Solve(p, lp.Options{Method: lp.MethodFlat})
		if err != nil {
			t.Fatal(err)
		}
		if crash.Status != lp.StatusOptimal || ident.Status != lp.StatusOptimal {
			t.Fatalf("n=%d D=%d: statuses %v / %v", tc.n, tc.disks, crash.Status, ident.Status)
		}
		if math.Abs(crash.Objective-ident.Objective) > 1e-6 {
			t.Fatalf("n=%d D=%d: objective %g from the crash start, %g from the flat path's identity start",
				tc.n, tc.disks, crash.Objective, ident.Objective)
		}
		if crash.Phase1Iterations >= ident.Phase1Iterations {
			t.Fatalf("n=%d D=%d: %d phase-one pivots from the crash start, not below %d from the flat path's identity start",
				tc.n, tc.disks, crash.Phase1Iterations, ident.Phase1Iterations)
		}
		t.Logf("n=%d D=%d: %d fetch-balance rows crashed; phase-one pivots %d (flat %d), total %d (flat %d)",
			tc.n, tc.disks, len(m.sVar), crash.Phase1Iterations, ident.Phase1Iterations, crash.Iterations, ident.Iterations)
	}
}

// TestBalanceRowsTriangularCrash pins the LU engine's triangular crash pass
// on the same models: it claims some of the zero-RHS balance rows
// (Σf − Σe = 0) that still hold their artificial after the unit
// pass, and no other row.  internal/lp's TestTriangularCrashShortensPhaseOne
// solves these models with and without the pass.
func TestBalanceRowsTriangularCrash(t *testing.T) {
	cases := []struct {
		n, blocks, k, f, disks int
		seed                   int64
	}{
		{11, 6, 3, 2, 3, 900},
		{22, 10, 4, 4, 2, 5},
		{30, 12, 5, 4, 3, 17},
	}
	for _, tc := range cases {
		seq := workload.Uniform(tc.n, tc.blocks, tc.seed)
		in := workload.Instance(seq, tc.k, tc.f, tc.disks, workload.AssignStripe, 0)
		m, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Problem
		claimed := 0
		for i := 0; i < p.NumConstraints(); i++ {
			if p.TriangularCrashColumn(i) < 0 {
				continue
			}
			claimed++
			if c := p.Constraint(i); c.Sense != lp.EQ || c.RHS != 0 || p.CrashColumn(i) >= 0 {
				t.Fatalf("n=%d D=%d: the triangular pass claims row %d (%v, rhs %g, crash column %d)",
					tc.n, tc.disks, i, c.Sense, c.RHS, p.CrashColumn(i))
			}
		}
		if claimed == 0 {
			t.Fatalf("n=%d D=%d: the triangular pass claims no zero-RHS balance row", tc.n, tc.disks)
		}
		t.Logf("n=%d D=%d: %d balance rows claimed by the triangular pass", tc.n, tc.disks, claimed)
	}
}
