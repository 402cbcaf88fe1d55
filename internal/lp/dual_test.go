package lp_test

// Tests for the incremental-solve machinery: the dual simplex warm path
// (Options.Dual / Solver.SolveDualFrom).  The tests build extended problems
// the way a trace extension does — appended variables, appended rows, old
// rows gaining only new columns (Problem.ExtendConstraint) — and pin the warm
// re-solve to a cold solve of the same problem across the engine grid.

import (
	"math"
	"math/rand"
	"testing"

	"pfcache/internal/lp"
)

// extendProblem grows p by appended variables and rows the way a trace
// extension does, using the optimal X of the base solve to steer how many of
// the new rows violate the old basis: each "violated" row is an equality the
// old solution misses by 1 (its crash artificial starts positive), each
// "satisfied" row is a loose inequality.  Old rows touched gain only new
// columns.  Returns the indices of the new variables.
func extendProblem(p *lp.Problem, x []float64, newVars, violated, satisfied int, rng *rand.Rand) []int {
	added := make([]int, 0, newVars)
	for v := 0; v < newVars; v++ {
		added = append(added, p.AddVariable(rng.Float64()*2))
	}
	for r := 0; r < violated; r++ {
		j := rng.Intn(len(x))
		nv := added[rng.Intn(len(added))]
		p.AddConstraint([]lp.Coef{{Var: j, Value: 1}, {Var: nv, Value: 1}}, lp.EQ, x[j]+1)
	}
	for r := 0; r < satisfied; r++ {
		coeffs := make([]lp.Coef, 0, len(added))
		for _, nv := range added {
			if rng.Float64() < 0.7 {
				coeffs = append(coeffs, lp.Coef{Var: nv, Value: 1 + rng.Float64()})
			}
		}
		if len(coeffs) == 0 {
			coeffs = append(coeffs, lp.Coef{Var: added[0], Value: 1})
		}
		p.AddConstraint(coeffs, lp.LE, 10+rng.Float64())
	}
	// A few old rows gain a fresh column with a zero-influence coefficient
	// pattern: the column is new, so the old basis matrix is untouched.
	if cons := p.NumConstraints() - violated - satisfied; cons > 0 {
		for k := 0; k < 2 && k < cons; k++ {
			i := rng.Intn(cons)
			p.ExtendConstraint(i, []lp.Coef{{Var: added[rng.Intn(len(added))], Value: rng.Float64()}})
		}
	}
	return added
}

// dualEngineGrid is the engine grid the dual warm path must hold on: the
// revised method's one engine.
var dualEngineGrid = []lp.Options{{}}

// TestDualResolveMatchesColdRandom extends random base problems and requires
// the dual warm re-solve to agree with a cold solve of the same extended
// problem — same status, same objective, feasible X — across the engine
// grid, including extensions that leave the problem infeasible.
func TestDualResolveMatchesColdRandom(t *testing.T) {
	for gi, grid := range dualEngineGrid {
		rng := rand.New(rand.NewSource(4242 + int64(gi)))
		warmSolver, coldSolver := lp.NewSolver(), lp.NewSolver()
		dualStarts := 0
		for trial := 0; trial < 120; trial++ {
			p, _ := randomProblem(rng)
			opts := grid
			opts.CaptureBasis = true
			base, err := warmSolver.Solve(p, opts)
			if err != nil {
				t.Fatalf("grid %d trial %d: base: %v", gi, trial, err)
			}
			if base.Status != lp.StatusOptimal {
				continue
			}
			infeasible := trial%5 == 4
			if infeasible {
				// An equality over fresh non-negative columns with a negative
				// RHS cannot be satisfied.
				nv := p.AddVariable(0)
				p.AddConstraint([]lp.Coef{{Var: nv, Value: 1}}, lp.EQ, -3)
			} else {
				extendProblem(p, base.X, 1+rng.Intn(3), rng.Intn(3), rng.Intn(3), rng)
			}
			warm, err := warmSolver.SolveDualFrom(p, grid, base.Basis)
			if err != nil {
				t.Fatalf("grid %d trial %d: warm: %v", gi, trial, err)
			}
			cold, err := coldSolver.Solve(p, grid)
			if err != nil {
				t.Fatalf("grid %d trial %d: cold: %v", gi, trial, err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("grid %d trial %d: status warm=%v cold=%v", gi, trial, warm.Status, cold.Status)
			}
			if warm.Status == lp.StatusOptimal {
				if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
					t.Fatalf("grid %d trial %d: objective warm=%g cold=%g", gi, trial, warm.Objective, cold.Objective)
				}
				if viol, idx := p.Violation(warm.X); viol > 1e-6 {
					t.Fatalf("grid %d trial %d: warm X violates constraint %d by %g", gi, trial, idx, viol)
				}
			}
			if warm.DualIterations > 0 {
				dualStarts++
			}
		}
		if dualStarts == 0 {
			t.Fatalf("grid %d: no trial exercised a dual pivot", gi)
		}
	}
}

// TestDualResolveE7Extension extends the E7-sized paper LP by a handful of
// rows/columns and requires the dual warm re-solve to match the cold solve
// while performing a small fraction of its pivots — the O(pivots-changed)
// property the incremental serving path is built on.
func TestDualResolveE7Extension(t *testing.T) {
	for gi, grid := range dualEngineGrid {
		p := buildE7SizedProblem(t)
		warmSolver, coldSolver := lp.NewSolver(), lp.NewSolver()
		opts := grid
		opts.CaptureBasis = true
		base, err := warmSolver.Solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != lp.StatusOptimal {
			t.Fatalf("grid %d: base status %v", gi, base.Status)
		}
		rng := rand.New(rand.NewSource(7))
		extendProblem(p, base.X, 3, 2, 2, rng)
		warm, err := warmSolver.SolveDualFrom(p, grid, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldSolver.Solve(p, grid)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != lp.StatusOptimal || cold.Status != lp.StatusOptimal {
			t.Fatalf("grid %d: statuses warm=%v cold=%v", gi, warm.Status, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("grid %d: objective warm=%g cold=%g", gi, warm.Objective, cold.Objective)
		}
		if !warm.WarmStarted {
			t.Fatalf("grid %d: extension re-solve did not transplant the basis", gi)
		}
		if 2*warm.Iterations > cold.Iterations {
			t.Fatalf("grid %d: warm re-solve used %d pivots, cold %d — want at least 2x fewer",
				gi, warm.Iterations, cold.Iterations)
		}
	}
}

// TestDualTiesBreakOnLargestPivot pins the dual ratio test's tie rule on
// the engine grid: among entering columns with equal dual ratios the largest
// pivot element enters.  The appended row x1 + 2·x2 = 1 leaves its
// artificial basic at 1, and x1 (cost 1) and x2 (cost 2) both price at
// ratio 1, so the rule enters x2 = 0.5 where the smallest index would enter
// x1 = 1: two optimal vertices of equal objective.
func TestDualTiesBreakOnLargestPivot(t *testing.T) {
	for gi, grid := range dualEngineGrid {
		p := lp.NewProblem(3)
		p.SetObjective(1, 1)
		p.SetObjective(2, 2)
		p.AddConstraint([]lp.Coef{{Var: 0, Value: 1}, {Var: 1, Value: 1}, {Var: 2, Value: 1}}, lp.LE, 10)
		opts := grid
		opts.CaptureBasis = true
		s := lp.NewSolver()
		base, err := s.Solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		p.AddConstraint([]lp.Coef{{Var: 1, Value: 1}, {Var: 2, Value: 2}}, lp.EQ, 1)
		warm, err := s.SolveDualFrom(p, grid, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != lp.StatusOptimal || !warm.WarmStarted || warm.DualIterations != 1 {
			t.Fatalf("grid %d: status %v, warm %v, %d dual pivots; want one warm dual pivot",
				gi, warm.Status, warm.WarmStarted, warm.DualIterations)
		}
		if warm.X[1] != 0 || warm.X[2] != 0.5 {
			t.Fatalf("grid %d: x = %v, want x2 = 0.5 entered on the larger pivot", gi, warm.X)
		}
	}
}

// TestDualHostileBasis feeds the dual path forged prefix-shaped snapshots —
// duplicate columns, out-of-range columns, donor artificials — and requires
// a safe fallback to the cold result every time.
func TestDualHostileBasis(t *testing.T) {
	p, _ := randomProblem(rand.New(rand.NewSource(5)))
	coldSolver := lp.NewSolver()
	cold, err := coldSolver.Solve(p, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := p.NumConstraints()
	senses := make([]lp.Sense, rows)
	for i := 0; i < rows; i++ {
		senses[i] = p.Constraint(i).Sense
	}
	hostile := [][]int{
		make([]int, rows),     // all zeros: duplicates unless rows == 1
		{int(^uint(0) >> 1)},  // out of range
		{-1},                  // negative
		{p.NumVars() + 10000}, // far past any slack
	}
	for hi, cols := range hostile {
		if len(cols) > rows {
			continue
		}
		forged := lp.ForgeWarmBasis(len(cols), p.NumVars(), cols, senses[:len(cols)])
		warmSolver := lp.NewSolver()
		warm, err := warmSolver.SolveDualFrom(p, lp.Options{}, forged)
		if err != nil {
			t.Fatalf("hostile %d: %v", hi, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("hostile %d: status %v, cold %v", hi, warm.Status, cold.Status)
		}
		if warm.Status == lp.StatusOptimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("hostile %d: objective %g, cold %g", hi, warm.Objective, cold.Objective)
		}
	}
}

// TestDualCascadeVerifies runs the extension re-solve through the cascade so
// the dual warm result passes the independent certificate like any other
// solve.
func TestDualCascadeVerifies(t *testing.T) {
	p := buildE7SizedProblem(t)
	solver := lp.NewSolver()
	base, err := solver.Solve(p, lp.Options{CaptureBasis: true, Cascade: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	extendProblem(p, base.X, 2, 2, 1, rng)
	warm, err := solver.SolveDualFrom(p, lp.Options{Cascade: true}, base.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != lp.StatusOptimal {
		t.Fatalf("status %v", warm.Status)
	}
	if warm.Downgrades != 0 {
		t.Fatalf("dual warm solve fell down the cascade %d rungs", warm.Downgrades)
	}
	if err := lp.Verify(p, warm); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

// BenchmarkDualResolveE7Extension measures the incremental re-solve after an
// E7-sized extension: capture once (untimed), then per op extend-shaped
// problems are re-solved dual-warm.  Compare with
// BenchmarkRevisedSolveE7Size for the cold cost the warm path avoids.
func BenchmarkDualResolveE7Extension(b *testing.B) {
	p := buildE7SizedProblem(b)
	solver := lp.NewSolver()
	base, err := solver.Solve(p, lp.Options{CaptureBasis: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	extendProblem(p, base.X, 3, 2, 2, rng)
	if _, err := solver.SolveDualFrom(p, lp.Options{}, base.Basis); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveDualFrom(p, lp.Options{}, base.Basis); err != nil {
			b.Fatal(err)
		}
	}
}
