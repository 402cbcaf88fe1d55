package lp

// This file preserves the original dense [][]float64 two-phase simplex
// implementation as a test-only reference.  The property tests solve random
// problems and the paper's LP models with both the production flat-tableau
// Solver and this dense path and require matching statuses and objective
// values, and the benchmarks in the repository root compare their cost.
// It is compiled only under `go test` and is not part of the library.

import "math"

// denseSolve runs the reference dense two-phase primal simplex method.
func denseSolve(p *Problem) (*Solution, error) {
	tol := tolerance
	t := newDenseTableau(p, tol)
	maxIter := pivotBudget(nil, t.rows, t.cols)

	// Phase one: minimise the sum of artificial variables.
	if t.numArtificial > 0 {
		status := t.optimize(t.phase1Costs(), maxIter)
		if status == StatusIterLimit {
			return &Solution{Status: StatusIterLimit, Iterations: t.iterations}, nil
		}
		if t.objectiveValue(t.phase1Costs()) > tol*float64(1+t.rows) {
			return &Solution{Status: StatusInfeasible, Iterations: t.iterations}, nil
		}
		t.driveOutArtificials()
	}

	// Phase two: minimise the real objective.
	status := t.optimize(t.phase2Costs(), maxIter)
	switch status {
	case StatusIterLimit, StatusUnbounded:
		return &Solution{Status: status, Iterations: t.iterations}, nil
	}
	x := t.extract()
	return &Solution{
		Status:     StatusOptimal,
		X:          x,
		Objective:  p.Value(x),
		Iterations: t.iterations,
	}, nil
}

// denseTableau is the dense simplex tableau.  Columns are: the problem
// variables, then slack/surplus variables, then artificial variables; the
// final column is the right-hand side.
type denseTableau struct {
	p   *Problem
	tol float64

	rows int // number of constraints
	cols int // number of structural columns (vars + slacks + artificials)

	numVars       int
	numSlack      int
	numArtificial int

	a     [][]float64 // rows x (cols+1); a[i][cols] is the RHS
	basis []int       // basis[i] is the column basic in row i

	iterations int
	artCol     map[int]bool // columns that are artificial
}

func newDenseTableau(p *Problem, tol float64) *denseTableau {
	rows := p.NumConstraints()
	t := &denseTableau{
		p:       p,
		tol:     tol,
		rows:    rows,
		numVars: p.NumVars(),
		artCol:  make(map[int]bool),
	}
	// Count slacks and artificials.
	type rowPlan struct {
		slackSign  float64 // +1 for LE, -1 for GE, 0 for EQ (after RHS sign fix)
		artificial bool
	}
	plans := make([]rowPlan, rows)
	for i := 0; i < rows; i++ {
		c := p.Constraint(i)
		sense := c.Sense
		flip := c.RHS < 0
		if flip {
			// Multiply the row by -1 so the RHS becomes non-negative.
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE:
			plans[i] = rowPlan{slackSign: 1, artificial: false}
			t.numSlack++
		case GE:
			plans[i] = rowPlan{slackSign: -1, artificial: true}
			t.numSlack++
			t.numArtificial++
		case EQ:
			plans[i] = rowPlan{slackSign: 0, artificial: true}
			t.numArtificial++
		}
	}
	t.cols = t.numVars + t.numSlack + t.numArtificial
	t.a = make([][]float64, rows)
	t.basis = make([]int, rows)

	slackIdx := t.numVars
	artIdx := t.numVars + t.numSlack
	for i := 0; i < rows; i++ {
		row := make([]float64, t.cols+1)
		c := p.Constraint(i)
		sign := 1.0
		if c.RHS < 0 {
			sign = -1.0
		}
		for _, co := range c.Coeffs {
			row[co.Var] += sign * co.Value
		}
		row[t.cols] = sign * c.RHS
		if plans[i].slackSign != 0 {
			row[slackIdx] = plans[i].slackSign
			if plans[i].slackSign > 0 && !plans[i].artificial {
				t.basis[i] = slackIdx
			}
			slackIdx++
		}
		if plans[i].artificial {
			row[artIdx] = 1
			t.basis[i] = artIdx
			t.artCol[artIdx] = true
			artIdx++
		}
		t.a[i] = row
	}
	return t
}

// phase1Costs returns the phase-one cost vector: 1 for artificial columns.
func (t *denseTableau) phase1Costs() []float64 {
	costs := make([]float64, t.cols)
	for c := range t.artCol {
		costs[c] = 1
	}
	return costs
}

// phase2Costs returns the real objective over structural columns (artificial
// columns get cost zero and are blocked from entering).
func (t *denseTableau) phase2Costs() []float64 {
	costs := make([]float64, t.cols)
	for v := 0; v < t.numVars; v++ {
		costs[v] = t.p.Objective(v)
	}
	for c := range t.artCol {
		costs[c] = 0 // artificials are fixed at zero after phase one
	}
	return costs
}

// objectiveValue evaluates the given cost vector at the current basic
// solution.
func (t *denseTableau) objectiveValue(costs []float64) float64 {
	total := 0.0
	for i := 0; i < t.rows; i++ {
		total += costs[t.basis[i]] * t.a[i][t.cols]
	}
	return total
}

// reducedCosts computes the reduced cost of every column for the given cost
// vector.
func (t *denseTableau) reducedCosts(costs []float64) []float64 {
	rc := make([]float64, t.cols)
	copy(rc, costs)
	for i := 0; i < t.rows; i++ {
		cb := costs[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.cols; j++ {
			if row[j] != 0 {
				rc[j] -= cb * row[j]
			}
		}
	}
	return rc
}

// optimize runs simplex pivots for the given cost vector until optimality,
// unboundedness or the iteration limit.
func (t *denseTableau) optimize(costs []float64, maxIter int) Status {
	degenerate := 0
	const degenerateSwitch = 50
	lastObj := t.objectiveValue(costs)
	for {
		if t.iterations >= maxIter {
			return StatusIterLimit
		}
		rc := t.reducedCosts(costs)
		useBland := degenerate >= degenerateSwitch
		enter := -1
		if useBland {
			for j := 0; j < t.cols; j++ {
				if rc[j] < -t.tol && !t.blockedColumn(costs, j) {
					enter = j
					break
				}
			}
		} else {
			best := -t.tol
			for j := 0; j < t.cols; j++ {
				if rc[j] < best && !t.blockedColumn(costs, j) {
					best = rc[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return StatusOptimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.rows; i++ {
			aij := t.a[i][enter]
			if aij <= t.tol {
				continue
			}
			ratio := t.a[i][t.cols] / aij
			if ratio < bestRatio-t.tol || (math.Abs(ratio-bestRatio) <= t.tol && (leave < 0 || t.basis[i] < t.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return StatusUnbounded
		}
		t.pivot(leave, enter)
		t.iterations++
		obj := t.objectiveValue(costs)
		if obj >= lastObj-t.tol {
			degenerate++
		} else {
			degenerate = 0
		}
		lastObj = obj
	}
}

// blockedColumn reports whether column j must not enter the basis:
// artificial columns are blocked in phase two.
func (t *denseTableau) blockedColumn(costs []float64, j int) bool {
	if !t.artCol[j] {
		return false
	}
	// During phase one artificials carry cost 1; in phase two they carry
	// cost 0 and are blocked.
	return costs[j] == 0
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func (t *denseTableau) pivot(row, col int) {
	piv := t.a[row][col]
	r := t.a[row]
	inv := 1.0 / piv
	for j := 0; j <= t.cols; j++ {
		r[j] *= inv
	}
	for i := 0; i < t.rows; i++ {
		if i == row {
			continue
		}
		factor := t.a[i][col]
		if factor == 0 {
			continue
		}
		ri := t.a[i]
		for j := 0; j <= t.cols; j++ {
			ri[j] -= factor * r[j]
		}
		ri[col] = 0
	}
	t.basis[row] = col
}

// driveOutArtificials removes artificial variables from the basis after
// phase one.
func (t *denseTableau) driveOutArtificials() {
	for i := 0; i < t.rows; i++ {
		if !t.artCol[t.basis[i]] {
			continue
		}
		pivoted := false
		for j := 0; j < t.numVars+t.numSlack; j++ {
			if math.Abs(t.a[i][j]) > t.tol {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			t.a[i][t.cols] = 0
		}
	}
}

// extract reads the current basic solution restricted to problem variables.
func (t *denseTableau) extract() []float64 {
	x := make([]float64, t.numVars)
	for i := 0; i < t.rows; i++ {
		b := t.basis[i]
		if b < t.numVars {
			v := t.a[i][t.cols]
			if v < 0 && v > -t.tol {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}
