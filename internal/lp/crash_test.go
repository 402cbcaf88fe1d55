package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Crash-start tests.  The revised method starts each equality or >= row
// that holds a unit column singleton on that column instead of its
// artificial (see revisedSolver.load).  These tests pin the crash start to
// the flat reference path, which starts from the slack/artificial identity
// basis.

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

// crashEngines are the revised method's settings the crash tests run: the
// default refactorization period and a two-pivot one, which refactorizes
// the crash basis again almost at once.
var crashEngines = []struct {
	name string
	opts Options
}{
	{"steepest-lu", Options{}},
	{"steepest-lu-refactor2", Options{RefactorEvery: 2}},
}

// flatOptions solves on the flat reference path, the crash tests' oracle:
// it starts from the slack/artificial identity basis and shares no
// machinery with the revised method.
var flatOptions = Options{Method: MethodFlat}

// TestCrashStartMatchesIdentityStart solves planted problems of every kind
// from the revised method's crash start and from the identity start of the
// flat reference path, and requires equal statuses, equal optimal
// objectives and feasible, certified optimal points.
func TestCrashStartMatchesIdentityStart(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	crash, flat := NewSolver(), NewSolver()
	kinds := []struct {
		kind crashKind
		want Status // -1: any
	}{
		{crashEQPositive, -1}, {crashEQZero, -1}, {crashGE, -1}, {crashMixed, -1},
		{crashInfeasible, StatusInfeasible}, {crashUnbounded, StatusUnbounded},
	}
	crashedRows := 0
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
			fs, err := flat.Solve(p, flatOptions)
			if err != nil {
				t.Fatalf("kind %d trial %d flat: %v", k.kind, trial, err)
			}
			for _, e := range crashEngines {
				// The engine alone: under the cascade an infeasible or
				// unbounded verdict would be the flat rung's.
				cs, err := SolveEngine(crash, p, e.opts)
				if err != nil {
					t.Fatalf("kind %d trial %d %s crash: %v", k.kind, trial, e.name, err)
				}
				if cs.Status != fs.Status {
					t.Fatalf("kind %d trial %d %s: crash %v, flat %v", k.kind, trial, e.name, cs.Status, fs.Status)
				}
				if k.want >= 0 && cs.Status != k.want {
					t.Fatalf("kind %d trial %d %s: status %v, want %v", k.kind, trial, e.name, cs.Status, k.want)
				}
				statuses[cs.Status]++
				if cs.Status != StatusOptimal {
					continue
				}
				if math.Abs(cs.Objective-fs.Objective) > 1e-6*(1+math.Abs(fs.Objective)) {
					t.Fatalf("kind %d trial %d %s: objective crash %.12g, flat %.12g", k.kind, trial, e.name, cs.Objective, fs.Objective)
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
	if crashedRows == 0 {
		t.Fatal("no crashable row: the lattice does not exercise the crash")
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

// TestCrashStartOnlyOnLU checks the crash basis load installs for the LU
// engine: every row with a crash column starts on it, its artificial
// nonbasic, and every other row on its slack or artificial.
func TestCrashStartOnlyOnLU(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p, _ := plantedProblem(rng, crashMixed)
	for p.CrashColumn(0) < 0 {
		p, _ = plantedProblem(rng, crashMixed)
	}
	var r revisedSolver
	r.load(p)
	crashed := 0
	for i, c := range r.basis {
		if j := p.CrashColumn(i); j >= 0 {
			crashed++
			if c != j {
				t.Fatalf("row %d starts on column %d, want crash column %d", i, c, j)
			}
			if r.inBasis[r.artLo+int(r.rowArt[i])] {
				t.Fatalf("row %d's artificial is still basic", i)
			}
		} else if c < r.numVars {
			t.Fatalf("row %d starts on structural column %d without a crash column", i, c)
		}
	}
	if crashed == 0 {
		t.Fatal("no crashed row")
	}
}

// Triangular crash tests.  After the unit-singleton pass, the cold start
// gives each = row with b_i = 0 that still holds its artificial the
// lowest-index nonbasic column with a ±1 entry in the row and none in a row
// claimed before it (cscMatrix.triCol, revisedSolver.crashTriangular).

// triangularProblem builds a random LP for the triangular pass: rows over a
// block of flow columns with mostly ±1 coefficients, as zero-RHS = rows
// (some holding a unit singleton, so the unit pass takes them), zero-RHS >=
// and <= rows, and = rows whose normalised right-hand side is positive (some
// flipped from a negative one, some with a unit singleton); plus a cap on
// the flow columns, so every feasible problem is bounded.
func triangularProblem(rng *rand.Rand) *Problem {
	type row struct {
		coeffs []Coef
		sense  Sense
		rhs    float64
		single bool // gets a unit singleton
	}
	palette := []float64{1, -1, 1, -1, 1, -1, 2, -0.5}
	nFlow := 3 + rng.Intn(8)
	var rows []row
	for r, nRows := 0, 2+rng.Intn(8); r < nRows; r++ {
		var coeffs []Coef
		for j := 0; j < nFlow; j++ {
			if rng.Float64() < 0.35 {
				coeffs = append(coeffs, Coef{Var: j, Value: palette[rng.Intn(len(palette))]})
			}
		}
		if len(coeffs) == 0 {
			coeffs = append(coeffs, Coef{Var: rng.Intn(nFlow), Value: 1})
		}
		rw := row{coeffs: coeffs, sense: EQ}
		switch rng.Intn(8) {
		case 0:
			rw.sense = GE
		case 1:
			rw.sense = LE
		case 2:
			rw.rhs, rw.single = float64(1+rng.Intn(3)), rng.Intn(2) == 0
		case 3:
			rw.rhs = -float64(1 + rng.Intn(3))
		case 4:
			rw.single = true
		}
		rows = append(rows, rw)
	}
	vars := nFlow
	for _, rw := range rows {
		if rw.single {
			vars++
		}
	}
	p := NewProblem(vars)
	for j := 0; j < nFlow; j++ {
		p.SetObjective(j, rng.Float64()*4-2)
	}
	next := nFlow
	for _, rw := range rows {
		if rw.single {
			p.SetObjective(next, rng.Float64()*2)
			rw.coeffs = append(rw.coeffs, Coef{Var: next, Value: 1})
			next++
		}
		p.AddConstraint(rw.coeffs, rw.sense, rw.rhs)
	}
	capRow := make([]Coef, nFlow)
	for j := range capRow {
		capRow[j] = Coef{Var: j, Value: 1}
	}
	p.AddConstraint(capRow, LE, 10)
	return p
}

// triangularOracle recomputes the triangular crash table from the problem's
// rows, spelling the rule out without the CSC form.
func triangularOracle(p *Problem) []int {
	rows := p.NumConstraints()
	basic := map[int]bool{}
	colRows := map[int][]int{}
	for i := 0; i < rows; i++ {
		if j := p.CrashColumn(i); j >= 0 {
			basic[j] = true
		}
		for _, c := range p.Constraint(i).Coeffs {
			colRows[c.Var] = append(colRows[c.Var], i)
		}
	}
	out := make([]int, rows)
	claimed := make([]bool, rows)
	for i := range out {
		out[i] = -1
		c := p.Constraint(i)
		if c.Sense != EQ || c.RHS != 0 || p.CrashColumn(i) >= 0 {
			continue
		}
		for _, co := range c.Coeffs {
			if (co.Value != 1 && co.Value != -1) || basic[co.Var] || (out[i] >= 0 && co.Var > out[i]) {
				continue
			}
			free := true
			for _, r := range colRows[co.Var] {
				free = free && !claimed[r]
			}
			if free {
				out[i] = co.Var
			}
		}
		if out[i] >= 0 {
			claimed[i] = true
			basic[out[i]] = true
		}
	}
	return out
}

// TestTriangularCrashTable pins the triangular crash table to the oracle on
// random problems: only = rows with b = 0 and no unit crash column are
// claimed, each by the lowest-index column that is nonbasic, has a ±1 entry
// in the row and has no entry in a row claimed before it.  The lattice must
// exercise every exclusion.
func TestTriangularCrashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var claimed, blocked, otherRows int
	for trial := 0; trial < 400; trial++ {
		p := triangularProblem(rng)
		want := triangularOracle(p)
		rows := 0
		for i, w := range want {
			if got := p.TriangularCrashColumn(i); got != w {
				t.Fatalf("trial %d row %d (%v, rhs %g): triangular column %d, want %d",
					trial, i, p.Constraint(i).Sense, p.Constraint(i).RHS, got, w)
			}
			if w >= 0 {
				rows++
			}
			c := p.Constraint(i)
			if c.Sense != EQ || c.RHS != 0 {
				for _, co := range c.Coeffs {
					if co.Value == 1 || co.Value == -1 {
						otherRows++ // a ±1 entry in a row the pass must not claim
						break
					}
				}
			}
		}
		if m := p.csc(); m.triRows != rows {
			t.Fatalf("trial %d: triRows %d, want %d", trial, m.triRows, rows)
		}
		claimed += rows
		// A claimed row whose lowest nonbasic ±1 column has an entry in an
		// earlier claimed row is decided by the triangularity condition.
		basic := map[int]bool{}
		for i := range want {
			if j := p.CrashColumn(i); j >= 0 {
				basic[j] = true
			}
		}
		for i, w := range want {
			if w < 0 {
				continue
			}
			for _, co := range p.Constraint(i).Coeffs {
				if (co.Value == 1 || co.Value == -1) && !basic[co.Var] && co.Var < w {
					blocked++
					break
				}
			}
			basic[w] = true
		}
	}
	if claimed == 0 || blocked == 0 || otherRows == 0 {
		t.Fatalf("%d claimed rows, %d decided by triangularity, %d unclaimable rows with ±1 entries: the lattice misses a case",
			claimed, blocked, otherRows)
	}
	t.Logf("%d claimed rows, %d decided by triangularity, %d unclaimable rows with ±1 entries", claimed, blocked, otherRows)
}

// TestTriangularCrashKeepsBasicValues installs the triangular pass over the
// unit crash and requires every claimed column to be basic at exactly 0,
// every other basic column to keep its value, the replaced artificials to
// leave the basis, and the factorization to succeed with B·xB = b.
func TestTriangularCrashKeepsBasicValues(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tested := 0
	for trial := 0; trial < 300; trial++ {
		p := triangularProblem(rng)
		m := p.csc()
		if m.triRows == 0 {
			continue
		}
		tested++
		var r revisedSolver
		r.load(p)
		before := map[int]float64{}
		for i, c := range r.basis {
			before[c] = r.xB[i]
		}
		tri := map[int]bool{}
		for i, j := range m.triCol {
			if j >= 0 {
				tri[int(j)] = true
				if !r.inBasis[r.artLo+int(r.rowArt[i])] {
					t.Fatalf("trial %d: row %d's artificial is not basic after the unit crash", trial, i)
				}
			}
		}
		if err := r.crashTriangular(); err != nil {
			t.Fatalf("trial %d: factorizing the crashed basis: %v", trial, err)
		}
		if r.refactors != 1 {
			t.Fatalf("trial %d: %d factorizations, want 1", trial, r.refactors)
		}
		for i, c := range r.basis {
			if tri[c] {
				if r.xB[i] != 0 {
					t.Fatalf("trial %d: triangular column %d basic at %g, want exactly 0", trial, c, r.xB[i])
				}
				delete(tri, c)
				continue
			}
			v, ok := before[c]
			if !ok {
				t.Fatalf("trial %d: column %d turned basic, not a triangular crash column", trial, c)
			}
			if r.xB[i] != v {
				t.Fatalf("trial %d: basic column %d moved from %g to %g", trial, c, v, r.xB[i])
			}
		}
		if len(tri) != 0 {
			t.Fatalf("trial %d: triangular columns %v are not basic", trial, tri)
		}
		if res := r.residual(); res > 1e-12 {
			t.Fatalf("trial %d: B·xB - b = %g after the crash", trial, res)
		}
	}
	if tested == 0 {
		t.Fatal("no problem with a triangular crash row")
	}
}

// TestTriangularCrashMatchesIdentityStart solves the triangular lattice
// with the revised method from the full crash start and from the unit pass
// alone, and from the identity start of the flat reference path, and
// requires equal statuses and objectives and a certified optimum from the
// full crash.
func TestTriangularCrashMatchesIdentityStart(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	full, unit, flat := NewSolver(), NewSolver(), NewSolver()
	unit.rev.unitCrashOnly = true
	optimal, differed := 0, 0
	for trial := 0; trial < 150; trial++ {
		p := triangularProblem(rng)
		ref, err := flat.Solve(p, flatOptions)
		if err != nil {
			t.Fatalf("trial %d flat: %v", trial, err)
		}
		for _, e := range crashEngines {
			// The engine alone, as in TestCrashStartMatchesIdentityStart.
			fs, err := SolveEngine(full, p, e.opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, e.name, err)
			}
			us, err := SolveEngine(unit, p, e.opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, e.name, err)
			}
			for _, os := range []*Solution{us, ref} {
				if fs.Status != os.Status {
					t.Fatalf("trial %d %s: status %v with the triangular crash, %v without", trial, e.name, fs.Status, os.Status)
				}
				if fs.Status == StatusOptimal && math.Abs(fs.Objective-os.Objective) > 1e-6*(1+math.Abs(os.Objective)) {
					t.Fatalf("trial %d %s: objective %.12g with the triangular crash, %.12g without", trial, e.name, fs.Objective, os.Objective)
				}
			}
			if fs.Phase1Iterations != us.Phase1Iterations {
				differed++
			}
			if fs.Status != StatusOptimal {
				continue
			}
			optimal++
			if err := Verify(p, fs); err != nil {
				t.Fatalf("trial %d %s: certificate: %v", trial, e.name, err)
			}
		}
	}
	if optimal == 0 || differed == 0 {
		t.Fatalf("%d optimal solves, %d whose phase one the triangular crash changed: the lattice does not exercise it", optimal, differed)
	}
	t.Logf("%d optimal solves, %d whose phase one the triangular crash changed", optimal, differed)
}

// TestDualTransplantKeepsUnitColumns extends solved problems by zero-RHS =
// rows that the triangular pass would claim and requires the dual
// transplant to leave them on load's columns: the [[B,0],[C,S]]
// dual-feasibility argument needs S to be unit vectors.
func TestDualTransplantKeepsUnitColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		p := triangularProblem(rng)
		base, err := NewSolver().Solve(p, Options{CaptureBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != StatusOptimal {
			continue
		}
		oldVars := p.NumVars()
		var fresh []int
		for v := 0; v < 2+rng.Intn(3); v++ {
			fresh = append(fresh, p.AddVariable(rng.Float64()))
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			coeffs := []Coef{{Var: fresh[rng.Intn(len(fresh))], Value: 1}, {Var: rng.Intn(oldVars), Value: -1}}
			if rng.Intn(2) == 0 {
				coeffs[0].Value = -1
			}
			p.AddConstraint(coeffs, EQ, 0)
		}
		var r revisedSolver
		r.load(p)
		if !r.installBasisDual(base.Basis) {
			t.Fatalf("trial %d: the extension did not transplant", trial)
		}
		donor := map[int]bool{}
		for _, c := range base.Basis.cols {
			donor[c] = true
		}
		for i := base.Basis.rows; i < r.rows; i++ {
			j := int(r.m.triCol[i])
			if j < 0 {
				continue
			}
			checked++
			if r.inBasis[j] && !donor[j] {
				t.Fatalf("trial %d: appended row %d's triangular column %d is basic after the transplant", trial, i, j)
			}
			if !r.inBasis[r.artLo+int(r.rowArt[i])] {
				t.Fatalf("trial %d: appended row %d's artificial is not basic after the transplant", trial, i)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no appended row had a triangular crash column")
	}
	t.Logf("%d appended rows with a triangular crash column", checked)
}
