package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Crash-start tests.  The BasisLU engine starts each equality or >= row
// that holds a unit column singleton on that column instead of its
// artificial (see revisedSolver.load).  These tests pin the crash start to
// the slack/artificial identity start, reached through the unexported
// revisedSolver.identityStart seam.

// crashKind selects the shape of a planted problem.
type crashKind int

const (
	crashEQPositive crashKind = iota // EQ rows with RHS > 0
	crashEQZero                      // EQ rows with RHS = 0
	crashGE                          // GE rows with RHS > 0
	crashMixed                       // all three, plus LE rows
	crashInfeasible                  // mixed, plus a contradiction
	crashUnbounded                   // GE rows whose singleton is an improving ray
)

// plantedProblem builds a random LP whose EQ and GE rows each carry a
// planted unit column singleton, half of them behind a lower-index decoy
// singleton whose coefficient is not +1; the point x0 of the dense
// variables plus suitable singleton values satisfies every row but the
// infeasible kind's contradiction.  All but the unbounded kind are bounded
// by an LE row over the dense variables and give the singletons
// nonnegative cost (a singleton with negative cost in a GE row is an
// improving ray).  It returns the problem and the number of planted unit
// singletons.
func plantedProblem(rng *rand.Rand, kind crashKind) (*Problem, int) {
	nDense := 2 + rng.Intn(5)
	nRows := 1 + rng.Intn(6)
	x0 := make([]float64, nDense)
	for i := range x0 {
		x0[i] = rng.Float64() * 3
	}
	type row struct {
		coeffs []Coef
		sense  Sense
		rhs    float64
		single bool    // gets a planted unit singleton
		decoy  float64 // coefficient of a decoy singleton before it, or 0
	}
	var rows []row
	for r := 0; r < nRows; r++ {
		var coeffs []Coef
		lhs := 0.0
		for v := 0; v < nDense; v++ {
			if rng.Float64() < 0.6 {
				val := rng.Float64()*4 - 2
				coeffs = append(coeffs, Coef{Var: v, Value: val})
				lhs += val * x0[v]
			}
		}
		k := kind
		if kind == crashMixed || kind == crashInfeasible {
			k = crashKind(rng.Intn(4)) // 3 = plain LE row
		}
		decoy := 0.0
		if rng.Intn(2) == 0 {
			decoy = []float64{-1, 0.5, 2}[rng.Intn(3)]
		}
		switch k {
		case crashEQPositive:
			// The singleton takes up the slack: s = rhs - lhs >= 0.
			rows = append(rows, row{coeffs, EQ, math.Max(lhs, 0) + 0.01 + rng.Float64(), true, decoy})
		case crashEQZero:
			if lhs > 0 {
				for i := range coeffs {
					coeffs[i].Value = -coeffs[i].Value
				}
				lhs = -lhs
			}
			rows = append(rows, row{coeffs, EQ, 0, true, decoy}) // s = -lhs >= 0
		case crashGE, crashUnbounded:
			// A GE row with an uncapped singleton is always satisfiable.
			rows = append(rows, row{coeffs, GE, 0.01 + 3*rng.Float64(), true, decoy})
		default:
			rows = append(rows, row{coeffs, LE, lhs + rng.Float64(), false, 0})
		}
	}
	planted, vars := 0, nDense
	for _, r := range rows {
		if r.single {
			planted++
			vars++
		}
		if r.decoy != 0 {
			vars++
		}
	}
	if kind == crashInfeasible {
		vars++
	}
	p := NewProblem(vars)
	for v := 0; v < nDense; v++ {
		p.SetObjective(v, rng.Float64()*3-1)
	}
	next := nDense
	for _, r := range rows {
		coeffs := append([]Coef(nil), r.coeffs...)
		if r.decoy != 0 {
			p.SetObjective(next, rng.Float64()*2)
			coeffs = append(coeffs, Coef{Var: next, Value: r.decoy})
			next++
		}
		if r.single {
			cost := rng.Float64() * 2
			if kind == crashUnbounded {
				cost = -1 - rng.Float64()
			}
			p.SetObjective(next, cost)
			coeffs = append(coeffs, Coef{Var: next, Value: 1})
			next++
		}
		p.AddConstraint(coeffs, r.sense, r.rhs)
	}
	if kind == crashInfeasible {
		// x_0 + s = 1 caps x_0 at 1; x_0 >= 2 contradicts it.
		p.AddConstraint([]Coef{{Var: 0, Value: 1}, {Var: next, Value: 1}}, EQ, 1)
		p.AddConstraint([]Coef{{Var: 0, Value: 1}}, GE, 2)
		planted++
	}
	if kind != crashUnbounded {
		sum := make([]Coef, nDense)
		for v := range sum {
			sum[v] = Coef{Var: v, Value: 1}
		}
		p.AddConstraint(sum, LE, 100)
	}
	return p, planted
}

// crashEngines is the BasisLU slice of the engine grid: the engines the
// crash start applies to.
var crashEngines = []struct {
	name string
	opts Options
}{
	{"steepest-lu", Options{Pricing: PricingSteepestEdge, Basis: BasisLU}},
	{"dantzig-lu", Options{Pricing: PricingDantzig, Basis: BasisLU}},
	{"steepest-lu-refactor2", Options{Pricing: PricingSteepestEdge, Basis: BasisLU, RefactorEvery: 2}},
	{"dantzig-lu-refactor2", Options{Pricing: PricingDantzig, Basis: BasisLU, RefactorEvery: 2}},
}

// TestCrashStartMatchesIdentityStart solves planted problems of every kind
// on every BasisLU engine from the crash start and from the identity start,
// and requires equal statuses, equal optimal objectives and feasible
// optimal points.
func TestCrashStartMatchesIdentityStart(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	crash, ident := NewSolver(), NewSolver()
	ident.rev.identityStart = true
	kinds := []struct {
		kind crashKind
		want Status // -1: any
	}{
		{crashEQPositive, -1}, {crashEQZero, -1}, {crashGE, -1}, {crashMixed, -1},
		{crashInfeasible, StatusInfeasible}, {crashUnbounded, StatusUnbounded},
	}
	crashedRows, differed := 0, 0
	for _, k := range kinds {
		statuses := map[Status]int{}
		for trial := 0; trial < 60; trial++ {
			p, planted := plantedProblem(rng, k.kind)
			for i := 0; i < p.NumConstraints(); i++ {
				if p.CrashColumn(i) >= 0 {
					crashedRows++
				}
			}
			if planted == 0 {
				continue
			}
			for _, e := range crashEngines {
				cs, err := crash.Solve(p, e.opts)
				if err != nil {
					t.Fatalf("kind %d trial %d %s crash: %v", k.kind, trial, e.name, err)
				}
				is, err := ident.Solve(p, e.opts)
				if err != nil {
					t.Fatalf("kind %d trial %d %s identity: %v", k.kind, trial, e.name, err)
				}
				if cs.Status != is.Status {
					t.Fatalf("kind %d trial %d %s: crash %v, identity %v", k.kind, trial, e.name, cs.Status, is.Status)
				}
				if k.want >= 0 && cs.Status != k.want {
					t.Fatalf("kind %d trial %d %s: status %v, want %v", k.kind, trial, e.name, cs.Status, k.want)
				}
				statuses[cs.Status]++
				if cs.Phase1Iterations != is.Phase1Iterations {
					differed++
				}
				if cs.Status != StatusOptimal {
					continue
				}
				if math.Abs(cs.Objective-is.Objective) > 1e-6*(1+math.Abs(is.Objective)) {
					t.Fatalf("kind %d trial %d %s: objective crash %.12g, identity %.12g", k.kind, trial, e.name, cs.Objective, is.Objective)
				}
				if viol, idx := p.Violation(cs.X); viol > 1e-6 {
					t.Fatalf("kind %d trial %d %s: crash solution violates row %d by %g", k.kind, trial, e.name, idx, viol)
				}
				if err := Verify(p, cs); err != nil {
					t.Fatalf("kind %d trial %d %s: crash certificate: %v", k.kind, trial, e.name, err)
				}
			}
		}
		if k.want < 0 && statuses[StatusOptimal] == 0 {
			t.Fatalf("kind %d: no optimal problem in the lattice (%v)", k.kind, statuses)
		}
	}
	if crashedRows == 0 || differed == 0 {
		t.Fatalf("%d crashable rows, %d solves whose phase one the crash changed: the lattice does not exercise the crash",
			crashedRows, differed)
	}
}

// TestCrashColumnPicksLowestUnitSingleton pins the crash table: the lowest
// index among several unit singletons, never a non-unit or shared column,
// no LE row, and a row whose negative RHS flips its signs.
func TestCrashColumnPicksLowestUnitSingleton(t *testing.T) {
	p := NewProblem(7)
	// Row 0 (EQ): x1 and x3 are unit singletons, x0 is shared, x2 has 2.
	p.AddConstraint([]Coef{{Var: 0, Value: 1}, {Var: 3, Value: 1}, {Var: 1, Value: 1}, {Var: 2, Value: 2}}, EQ, 4)
	// Row 1 (GE): x0 is shared with row 0, x4 a unit singleton.
	p.AddConstraint([]Coef{{Var: 0, Value: 1}, {Var: 4, Value: 1}}, GE, 1)
	// Row 2 (LE): x5 is a unit singleton, but the slack is basic anyway.
	p.AddConstraint([]Coef{{Var: 5, Value: 1}}, LE, 3)
	// Row 3: -x6 <= -2 flips to x6 >= 2, so x6 is a unit singleton.
	p.AddConstraint([]Coef{{Var: 6, Value: -1}}, LE, -2)
	want := []int{1, 4, -1, 6}
	for i, w := range want {
		if got := p.CrashColumn(i); got != w {
			t.Errorf("CrashColumn(%d) = %d, want %d", i, got, w)
		}
	}
	// An EQ row whose singleton is -1 after normalisation has none.
	q := NewProblem(2)
	q.AddConstraint([]Coef{{Var: 0, Value: 2}, {Var: 1, Value: 1}}, EQ, -3)
	if got := q.CrashColumn(0); got != -1 {
		t.Errorf("flipped EQ row: CrashColumn = %d, want -1", got)
	}
}

// TestCrashStartOnlyOnLU is the guard that BasisEta — the engine the
// experiment suite pins and the cascade's reference rung — keeps the
// identity start, while BasisLU starts crashed rows on their singleton.
func TestCrashStartOnlyOnLU(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p, _ := plantedProblem(rng, crashMixed)
	for p.CrashColumn(0) < 0 {
		p, _ = plantedProblem(rng, crashMixed)
	}
	var r revisedSolver
	r.basisMode = BasisEta
	r.load(p)
	for i, c := range r.basis {
		if c < r.numVars {
			t.Fatalf("BasisEta: row %d starts on structural column %d, want its slack or artificial", i, c)
		}
	}
	r.basisMode = BasisLU
	r.load(p)
	crashed := 0
	for i, c := range r.basis {
		if j := p.CrashColumn(i); j >= 0 {
			crashed++
			if c != j {
				t.Fatalf("BasisLU: row %d starts on column %d, want crash column %d", i, c, j)
			}
			if r.inBasis[r.artLo+int(r.rowArt[i])] {
				t.Fatalf("BasisLU: row %d's artificial is still basic", i)
			}
		} else if c < r.numVars {
			t.Fatalf("BasisLU: row %d starts on structural column %d without a crash column", i, c)
		}
	}
	if crashed == 0 {
		t.Fatal("no crashed row")
	}

	// Through the solve path: an eta solve is the same with the seam set
	// or not, down to its pivot counts.
	crash, ident := NewSolver(), NewSolver()
	ident.rev.identityStart = true
	opts := Options{Pricing: PricingDantzig, Basis: BasisEta}
	a, err := crash.Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ident.Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.Phase1Iterations != b.Phase1Iterations || a.Objective != b.Objective {
		t.Fatalf("BasisEta solve differs with the crash seam: %d/%d pivots %g vs %d/%d pivots %g",
			a.Iterations, a.Phase1Iterations, a.Objective, b.Iterations, b.Phase1Iterations, b.Objective)
	}
}
