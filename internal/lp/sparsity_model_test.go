package lp_test

import (
	"math/rand"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/workload"
)

// TestSparseSolvesMatchFullWalks solves random LPs and paper models on each
// row of the engine grid under lp.AttachSparseCheck, then re-solves an
// extended E7-sized model from its optimal basis through the dual simplex:
// every step-list FTRAN and BTRAN of every factorization (crash bases and
// mid-solve refactorizations) must equal the full walk bit for bit, every
// rho (primal and dual) must equal the plain BTRAN and every alpha the full
// FTRAN over their update-eta files, both holding +0 outside their row
// bitsets, and every refill must see each basic column at rc exactly 0 and
// the attractive-column bitset exactly where rc < -tol.  The counters make
// sure each case was reached.
func TestSparseSolvesMatchFullWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(1919))
	var problems []*lp.Problem
	for i := 0; i < 200; i++ {
		p, _ := randomProblem(rng)
		problems = append(problems, p)
	}
	problems = append(problems, buildE7SizedProblem(t), buildServeSizedProblem(t))
	for _, tc := range []struct {
		n, blocks, k, f, disks int
		seed                   int64
	}{{22, 10, 4, 4, 1, 5}, {30, 12, 5, 4, 2, 17}} {
		seq := workload.Uniform(tc.n, tc.blocks, tc.seed)
		m, err := lpmodel.Build(workload.Instance(seq, tc.k, tc.f, tc.disks, workload.AssignStripe, 0))
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, m.Problem)
	}
	for _, combo := range engineCombos {
		s := lp.NewSolver()
		chk := lp.AttachSparseCheck(s)
		for i, p := range problems {
			// The random LPs are small enough to refactorize every third
			// pivot as well; the paper models run at the served cadence.
			everies := []int{0, 3}
			if p.NumConstraints() > 100 {
				everies = everies[:1]
			}
			for _, every := range everies {
				opts := combo.opts
				opts.RefactorEvery = every
				if _, err := s.Solve(p, opts); err != nil {
					t.Fatalf("%s, problem %d, refactor every %d: %v", combo.name, i, every, err)
				}
				if chk.Err != nil {
					t.Fatalf("%s, problem %d, refactor every %d: %v", combo.name, i, every, chk.Err)
				}
			}
		}
		// Every pivot of a transplanted dual re-solve, dual or primal,
		// BTRANs its leaving row once, so the check must see one rho per
		// pivot.
		p := buildE7SizedProblem(t)
		opts := combo.opts
		opts.CaptureBasis = true
		base, err := s.Solve(p, opts)
		if err != nil || base.Status != lp.StatusOptimal {
			t.Fatalf("%s: E7 base solve: %v, %v", combo.name, base.Status, err)
		}
		extendProblem(p, base.X, 3, 2, 2, rand.New(rand.NewSource(7)))
		rhoBefore := chk.Rho
		warm, err := s.SolveFrom(p, combo.opts, base.Basis)
		if err != nil || chk.Err != nil {
			t.Fatalf("%s: dual re-solve: %v, %v", combo.name, err, chk.Err)
		}
		if !warm.WarmStarted || warm.DualIterations == 0 {
			t.Fatalf("%s: dual re-solve warm %v with %d dual pivots", combo.name, warm.WarmStarted, warm.DualIterations)
		}
		if got := chk.Rho - rhoBefore; got != warm.Iterations {
			t.Fatalf("%s: dual re-solve checked %d rho BTRANs over %d pivots", combo.name, got, warm.Iterations)
		}
		t.Logf("%s: %d crash and %d mid-solve factorizations (%d with a -1 diagonal step), %d rho BTRANs (%d over update etas), %d alpha FTRANs (%d over update etas), %d refills",
			combo.name, chk.CrashFactors, chk.MidFactors, chk.MinusOne, chk.Rho, chk.RhoWithEtas, chk.Alpha, chk.AlphaWithEtas, chk.Refills)
		if chk.CrashFactors == 0 || chk.MidFactors == 0 || chk.MinusOne == 0 {
			t.Fatalf("%s: factorizations not covered", combo.name)
		}
		if chk.RhoWithEtas == 0 || chk.Rho == chk.RhoWithEtas || chk.Refills == 0 {
			t.Fatalf("%s: rho BTRANs or refills not covered", combo.name)
		}
		if chk.AlphaWithEtas == 0 || chk.Alpha == chk.AlphaWithEtas {
			t.Fatalf("%s: alpha FTRANs not covered", combo.name)
		}
	}
}
