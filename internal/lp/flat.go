package lp

import "math"

// flatSolver is the PR-1 flat-tableau two-phase primal simplex path, kept
// behind Options.Method == MethodFlat.  The tableau is one contiguous float64
// slice in row-major order (row stride cols+1, the last column holding the
// right-hand side); columns are the problem variables, then slack/surplus
// variables, then artificial variables, so artificial membership is the index
// range [artLo, cols).  All working buffers are kept between solves.
//
// Its per-pivot Gauss-Jordan update costs O(rows x cols) regardless of
// sparsity, which is why the revised path (revised.go) is the default; the
// flat path survives as the second rung of the property-test lattice and as
// the cascade's last rung (cascade.go).
type flatSolver struct {
	p   *Problem // problem being solved (valid during solve only)
	tol float64

	rows   int // number of constraints
	cols   int // structural columns (vars + slacks + artificials)
	stride int // cols + 1; the extra column is the RHS

	numVars  int
	numSlack int
	numArt   int
	artLo    int // first artificial column; artificials are [artLo, cols)

	a     []float64 // rows*stride backing array
	basis []int     // basis[i] is the column basic in row i
	costs []float64 // cost vector of the current phase
	rc    []float64 // reduced-cost scratch for full pricing passes
	cand  []int     // candidate columns from the last full pricing pass
	plans []Sense   // per-row effective sense after RHS sign normalisation

	phase int // 1 or 2; artificial columns may enter only in phase 1

	iterations  int
	phase1Iters int
	blandIters  int
	fullPasses  int
	allocs      int
}

// solve runs the two-phase simplex on the flat tableau.  The fault, when
// non-nil, can only shrink the pivot budget (Fault.PivotBudget): the flat
// path is the cascade's independent reference and takes no numerical damage.
func (f *flatSolver) solve(p *Problem, fault *Fault) *Solution {
	f.p = p
	defer func() { f.p = nil }() // do not retain the problem after the solve
	f.tol = tolerance
	f.iterations = 0
	f.phase1Iters = 0
	f.blandIters = 0
	f.fullPasses = 0
	f.allocs = 0
	f.load(p)

	maxIter := pivotBudget(fault, f.rows, f.cols)

	// Phase one: minimise the sum of artificial variables.
	if f.numArt > 0 {
		f.setPhase(1)
		status := f.optimize(maxIter)
		f.phase1Iters = f.iterations
		if status == StatusIterLimit {
			return f.solution(StatusIterLimit, p)
		}
		if f.objectiveValue() > f.tol*float64(1+f.rows) {
			return f.solution(StatusInfeasible, p)
		}
		f.driveOutArtificials()
	}

	// Phase two: minimise the real objective.
	f.setPhase(2)
	status := f.optimize(maxIter)
	switch status {
	case StatusIterLimit, StatusUnbounded:
		return f.solution(status, p)
	}
	return f.solution(StatusOptimal, p)
}

// load builds the flat tableau from the problem's sparse constraints.
func (f *flatSolver) load(p *Problem) {
	rows := p.NumConstraints()
	f.rows = rows
	f.numVars = p.NumVars()
	f.numSlack = 0
	f.numArt = 0
	if cap(f.plans) < rows {
		f.allocs++
		f.plans = make([]Sense, rows)
	}
	f.plans = f.plans[:rows]
	for i := 0; i < rows; i++ {
		sense := effectiveSense(p.Constraint(i))
		f.plans[i] = sense
		switch sense {
		case LE:
			f.numSlack++
		case GE:
			f.numSlack++
			f.numArt++
		case EQ:
			f.numArt++
		}
	}
	f.cols = f.numVars + f.numSlack + f.numArt
	f.stride = f.cols + 1
	f.artLo = f.numVars + f.numSlack

	f.a = grabFloats(f.a, rows*f.stride, &f.allocs)
	clear(f.a)
	f.basis = grabInts(f.basis, rows, &f.allocs)
	f.costs = grabFloats(f.costs, f.cols, &f.allocs)
	f.rc = grabFloats(f.rc, f.cols, &f.allocs)
	if f.cand == nil {
		f.allocs++
		f.cand = make([]int, 0, candListSize)
	}
	f.cand = f.cand[:0]

	slackIdx := f.numVars
	artIdx := f.artLo
	for i := 0; i < rows; i++ {
		c := p.Constraint(i)
		sense := f.plans[i]
		sign := 1.0
		if c.RHS < 0 {
			sign = -1.0
		}
		row := f.a[i*f.stride : i*f.stride+f.stride]
		for _, co := range c.Coeffs {
			row[co.Var] += sign * co.Value
		}
		row[f.cols] = sign * c.RHS
		switch sense {
		case LE:
			row[slackIdx] = 1
			f.basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			f.basis[i] = artIdx
			artIdx++
		case EQ:
			row[artIdx] = 1
			f.basis[i] = artIdx
			artIdx++
		}
	}
}

// setPhase installs the cost vector of the given phase: phase one charges 1
// per artificial variable, phase two charges the problem objective on the
// structural variables (artificial columns are excluded from pricing
// entirely in phase two, so their cost is irrelevant).
func (f *flatSolver) setPhase(phase int) {
	f.phase = phase
	clear(f.costs)
	if phase == 1 {
		for j := f.artLo; j < f.cols; j++ {
			f.costs[j] = 1
		}
		return
	}
	for v := 0; v < f.numVars; v++ {
		f.costs[v] = f.p.Objective(v)
	}
}

// objectiveValue evaluates the current phase's cost vector at the current
// basic solution.
func (f *flatSolver) objectiveValue() float64 {
	total := 0.0
	for i := 0; i < f.rows; i++ {
		cb := f.costs[f.basis[i]]
		if cb != 0 {
			total += cb * f.a[i*f.stride+f.cols]
		}
	}
	return total
}

// priceLimit is the exclusive upper bound of columns eligible to enter the
// basis: artificial columns may enter only during phase one.
func (f *flatSolver) priceLimit() int {
	if f.phase == 1 {
		return f.cols
	}
	return f.artLo
}

// reducedCost computes the reduced cost of a single column against the
// current basis.
func (f *flatSolver) reducedCost(j int) float64 {
	r := f.costs[j]
	for i := 0; i < f.rows; i++ {
		cb := f.costs[f.basis[i]]
		if cb != 0 {
			r -= cb * f.a[i*f.stride+j]
		}
	}
	return r
}

// fullPrice runs one cache-friendly row-wise sweep computing the reduced
// cost of every column into f.rc.
func (f *flatSolver) fullPrice() {
	f.fullPasses++
	rc := f.rc
	copy(rc, f.costs)
	for i := 0; i < f.rows; i++ {
		cb := f.costs[f.basis[i]]
		if cb == 0 {
			continue
		}
		row := f.a[i*f.stride : i*f.stride+f.cols]
		for j, v := range row {
			if v != 0 {
				rc[j] -= cb * v
			}
		}
	}
}

// rebuildCandidates refreshes the candidate list from a full pricing pass
// and returns the most attractive eligible column, or -1 at optimality.
func (f *flatSolver) rebuildCandidates() int {
	f.fullPrice()
	best, cand := selectCandidates(f.rc, f.priceLimit(), f.tol, f.cand)
	f.cand = cand
	return best
}

// priceDantzig returns the entering column under Dantzig pricing with a
// candidate list: surviving candidates from the last full pass are re-priced
// exactly (a handful of columns), and only when none remains attractive does
// the solver pay for a full pricing sweep.
func (f *flatSolver) priceDantzig() int {
	best, bestRC := -1, -f.tol
	w := 0
	for _, j := range f.cand {
		r := f.reducedCost(j)
		if r < -f.tol {
			f.cand[w] = j
			w++
			if r < bestRC {
				bestRC, best = r, j
			}
		}
	}
	f.cand = f.cand[:w]
	if best >= 0 {
		return best
	}
	return f.rebuildCandidates()
}

// priceBland returns the smallest-index eligible column with negative
// reduced cost (Bland's anti-cycling rule), or -1 at optimality.
func (f *flatSolver) priceBland() int {
	f.fullPrice()
	limit := f.priceLimit()
	for j := 0; j < limit; j++ {
		if f.rc[j] < -f.tol {
			return j
		}
	}
	return -1
}

// optimize runs simplex pivots for the current phase until optimality,
// unboundedness or the iteration limit.  It uses Dantzig pricing over a
// candidate list and switches to Bland's rule after a run of degenerate
// pivots to guarantee termination.
func (f *flatSolver) optimize(maxIter int) Status {
	degenerate := 0
	lastObj := f.objectiveValue()
	f.cand = f.cand[:0]
	for {
		if f.iterations >= maxIter {
			return StatusIterLimit
		}
		var enter int
		bland := degenerate >= degenerateSwitch
		if bland {
			enter = f.priceBland()
		} else {
			enter = f.priceDantzig()
		}
		if enter < 0 {
			return StatusOptimal
		}
		leave := f.ratioTest(enter)
		if leave < 0 {
			return StatusUnbounded
		}
		f.pivot(leave, enter)
		f.iterations++
		if bland {
			f.blandIters++
		}
		obj := f.objectiveValue()
		if obj >= lastObj-f.tol {
			degenerate++
		} else {
			degenerate = 0
		}
		lastObj = obj
	}
}

// ratioTest picks the leaving row for the entering column, breaking ties
// towards the smallest basis index (lexicographic anti-cycling bias).
func (f *flatSolver) ratioTest(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	for i := 0; i < f.rows; i++ {
		aij := f.a[i*f.stride+enter]
		if aij <= f.tol {
			continue
		}
		ratio := f.a[i*f.stride+f.cols] / aij
		if ratio < bestRatio-f.tol ||
			(math.Abs(ratio-bestRatio) <= f.tol && (leave < 0 || f.basis[i] < f.basis[leave])) {
			bestRatio = ratio
			leave = i
		}
	}
	return leave
}

// pivot performs a Gauss-Jordan pivot on (row, col) over the flat tableau.
func (f *flatSolver) pivot(row, col int) {
	stride := f.stride
	r := f.a[row*stride : row*stride+stride]
	inv := 1.0 / r[col]
	for j := range r {
		r[j] *= inv
	}
	for i := 0; i < f.rows; i++ {
		if i == row {
			continue
		}
		ri := f.a[i*stride : i*stride+stride]
		factor := ri[col]
		if factor == 0 {
			continue
		}
		for j, v := range r {
			if v != 0 {
				ri[j] -= factor * v
			}
		}
		ri[col] = 0
	}
	f.basis[row] = col
}

// driveOutArtificials removes artificial variables from the basis after
// phase one, pivoting on any usable structural column, or neutralising the
// row when it has become redundant.
func (f *flatSolver) driveOutArtificials() {
	for i := 0; i < f.rows; i++ {
		if f.basis[i] < f.artLo {
			continue
		}
		pivoted := false
		row := f.a[i*f.stride : i*f.stride+f.artLo]
		for j, v := range row {
			if math.Abs(v) > f.tol {
				f.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// The row is all zeros over structural columns: the constraint
			// is redundant; keep the artificial basic at value zero.  Zero
			// the RHS to guard against accumulated round-off.
			f.a[i*f.stride+f.cols] = 0
		}
	}
}

// extract reads the current basic solution restricted to problem variables.
func (f *flatSolver) extract() []float64 {
	x := make([]float64, f.numVars)
	for i := 0; i < f.rows; i++ {
		b := f.basis[i]
		if b < f.numVars {
			v := f.a[i*f.stride+f.cols]
			if v < 0 && v > -f.tol {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}

// solution assembles the Solution for the given terminal status.
func (f *flatSolver) solution(status Status, p *Problem) *Solution {
	sol := &Solution{
		Status:           status,
		Iterations:       f.iterations,
		Phase1Iterations: f.phase1Iters,
		BlandIterations:  f.blandIters,
		PricingPasses:    f.fullPasses,
		TableauAllocs:    f.allocs,
	}
	if status == StatusOptimal {
		sol.X = f.extract()
		sol.Objective = p.Value(sol.X)
	}
	return sol
}
