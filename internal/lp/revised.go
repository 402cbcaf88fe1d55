package lp

import (
	"errors"
	"math"
)

// errSingularBasis reports a (re)factorization that could not complete
// because a basis column collapsed numerically; Solver.Solve catches it and
// reruns the solve on the flat path, and a warm start that trips it falls
// back to a cold start.
var errSingularBasis = errors.New("lp: singular basis during refactorization")

// driftCheckEvery is how often (in pivots) the revised solver verifies
// B·xB = b against the original matrix; drift beyond driftTol forces an
// early refactorization.
const driftCheckEvery = 48

// driftTol is the absolute residual above which the factored basis inverse
// is considered numerically stale.
const driftTol = 1e-7

// revisedSolver is the revised simplex: the constraint matrix is kept in the
// read-only CSC form cached on the Problem (built once, see Problem.csc), the
// basis inverse is a sparse LU factorization with product-form update etas
// between refactorizations, and every pivot is a steepest-edge price over
// the maintained reduced costs (pricing.go), an FTRAN solve of the entering
// column, a BTRAN of the leaving row that updates the reduced costs and
// weights, and an O(rows) update of the basic values — no dense tableau
// anywhere.
type revisedSolver struct {
	p   *Problem
	tol float64
	m   *cscMatrix // read-only structural columns + row senses + normalised b

	rows, cols                int
	numVars, numSlack, numArt int
	artLo                     int // first artificial column; artificials are [artLo, cols)

	// Slack and artificial columns are singletons and never materialised:
	// slackRow/slackSign and artRow map column index offsets to their row.
	slackRow  []int
	slackSign []float64
	artRow    []int

	basis   []int  // basis[i] is the column basic in row i
	inBasis []bool // per column
	xB      []float64
	costs   []float64 // cost vector of the current phase, per column
	y       []float64 // dual scratch: BTRAN of the basic costs
	alpha   []float64 // primal scratch: FTRAN of the entering column
	work    []float64 // refactorization / drift-check scratch
	rc      []float64 // reduced-cost scratch for full pricing passes
	gamma   []float64 // steepest-edge reference weights, per column
	rho     []float64 // dual scratch: BTRAN of the leaving row's unit vector
	rhoNZ   []int32   // rows where rho may be nonzero (etaFile.btranUnit)
	cand    []int
	colBuf  []int // basis snapshot during refactorization

	// Sparse pivot-row assembly state for the steepest-edge engine: per-row
	// singleton lookups and an epoch-stamped structural-column accumulator.
	rowSlack []int32   // row -> slack offset or -1
	rowArt   []int32   // row -> artificial offset or -1
	accVal   []float64 // per structural column: accumulated pivot-row entry
	accMark  []int32   // accMark[j] == accEpoch marks accVal[j] as current
	touched  []int32   // structural columns assembled this pivot
	accEpoch int32

	eta           etaFile   // update etas since the last factorization
	lu            luFactor  // factored basis
	dualMode      bool      // Options.Dual: widen warm starts to prefix bases
	capture       bool      // Options.CaptureBasis
	dualRC        []float64 // maintained phase-2 reduced costs of the dual phase
	dualRow       []float64 // pivot row of B^-1 A, cached for the rc update
	refactorEvery int
	sinceRefactor int // pivot etas appended since the last refactorization
	sincePivot    int // pivots since the last drift check

	phase     int
	alphaNorm float64 // |alpha|^2, accumulated by ratioTest for enterWeight

	iterations  int
	phase1Iters int
	blandIters  int
	dualIters   int
	fullPasses  int
	refactors   int
	etaColumns  int
	luFills     int
	seResets    int
	allocs      int
	warmStarted bool

	// probe, when non-nil, is called at the engine's checkpoints (see
	// probeSite), so tests can check its state mid-solve.  Production
	// solves leave it nil.
	probe func(site probeSite, row int)

	// unitCrashOnly disables the triangular crash pass, so tests can
	// compare the crash start against the unit pass alone.
	unitCrashOnly bool

	// dualsReuse, when non-nil, is the backing array the solution's dual
	// copy reuses instead of allocating (the Batch arena, batch.go).  The
	// batch clears it after each solve; plain Solver solves never see it set.
	dualsReuse []float64

	// fault is the injected numerical failure of the current solve (nil in
	// production; see fault.go).  Solver.solve arms and clears it.
	fault *Fault
}

// probeSite names a checkpoint revisedSolver.probe observes.
type probeSite int

const (
	// probeFactor: refactorize has factored the basis.
	probeFactor probeSite = iota
	// probeRho: seUpdate has computed rho for the leaving row (the probe's
	// row argument).
	probeRho
	// probeRefill: refillSE is about to rebuild the candidate list.
	probeRefill
)

// solve runs the two-phase revised simplex.  A non-nil warm basis is tried
// first: when it transfers to this problem the solve starts in phase two
// from it, otherwise the ordinary cold start runs.
func (r *revisedSolver) solve(p *Problem, opts Options, tol float64, warm *WarmBasis) (*Solution, error) {
	r.p = p
	defer func() { r.p = nil; r.m = nil }() // do not retain the problem
	r.tol = tol
	r.dualMode = opts.Dual
	r.capture = opts.CaptureBasis
	r.iterations = 0
	r.phase1Iters = 0
	r.blandIters = 0
	r.dualIters = 0
	r.fullPasses = 0
	r.refactors = 0
	r.etaColumns = 0
	r.luFills = 0
	r.seResets = 0
	r.allocs = 0
	r.warmStarted = false
	r.phase = 0 // not stale from the last solve: faults gate on the phase
	r.load(p)

	r.refactorEvery = opts.RefactorEvery
	if r.refactorEvery <= 0 {
		// The update etas cost O(rows) per column to apply, the
		// refactorization one sparse elimination; capping the file around
		// the row count balances the two while keeping FTRAN/BTRAN far below
		// one dense tableau sweep.  The LU elimination is cheap enough that
		// a short file (frequent refactorization) wins on the larger
		// experiment sizes.
		r.refactorEvery = r.rows/2 + 32
		if r.refactorEvery > 96 {
			r.refactorEvery = 96
		}
	}
	if r.fault.armed() {
		// Refactorize after every pivot so a corrupt-factor or
		// force-singular fault bites on the first pivot instead of depending
		// on the solve happening to refactorize.
		r.refactorEvery = 1
	}

	maxIter := maxIterations(opts, r.rows, r.cols)

	if warm != nil {
		if r.installBasis(warm) {
			r.warmStarted = true
			r.setPhase(2)
			status, err := r.optimize(maxIter)
			if err != nil {
				return nil, err
			}
			switch status {
			case StatusIterLimit, StatusUnbounded:
				return r.solution(status, p), nil
			}
			return r.solution(StatusOptimal, p), nil
		}
		// The failed install may have half-built a factorization over the
		// snapshot's basis: reload the crash basis and cold-start.
		r.load(p)
		if r.dualMode {
			// Options.Dual: the snapshot may still transplant as a prefix
			// basis (a trace extension or RHS move).  A dual phase repairs
			// primal feasibility; every uncertified exit reloads and falls
			// through to the ordinary cold start below.
			sol, ok, err := r.solveDualWarm(p, maxIter, warm)
			if err != nil {
				return nil, err
			}
			if ok {
				return sol, nil
			}
			r.load(p)
		}
	}

	// Cold start.  The triangular crash runs here, not in load, because
	// installBasisDual keeps load's unit columns in the appended rows.
	if err := r.crashTriangular(); err != nil {
		return nil, err
	}

	// Phase one: minimise the sum of artificial variables.
	if r.numArt > 0 {
		r.setPhase(1)
		status, err := r.optimize(maxIter)
		if err != nil {
			return nil, err
		}
		r.phase1Iters = r.iterations
		if status == StatusIterLimit {
			return r.solution(StatusIterLimit, p), nil
		}
		if r.objectiveValue() > tol*float64(1+r.rows) {
			return r.solution(StatusInfeasible, p), nil
		}
		if err := r.driveOutArtificials(); err != nil {
			return nil, err
		}
	}

	// Phase two: minimise the real objective.
	r.setPhase(2)
	status, err := r.optimize(maxIter)
	if err != nil {
		return nil, err
	}
	switch status {
	case StatusIterLimit, StatusUnbounded:
		return r.solution(status, p), nil
	}
	return r.solution(StatusOptimal, p), nil
}

// load fetches the problem's CSC matrix and installs the initial basis:
// slacks for <= rows, artificials for = and >= rows, and a unit column
// singleton in place of the artificial wherever the row has one
// (cscMatrix.crashCol).  The basis is the identity, so the factored inverse
// starts empty and exact.  A cold start then adds the
// triangular crash (crashTriangular); warm starts replace this basis.
func (r *revisedSolver) load(p *Problem) {
	r.m = p.csc()
	rows := r.m.rows
	r.rows = rows
	r.numVars = r.m.cols
	r.numSlack = 0
	r.numArt = 0
	for _, sense := range r.m.sense {
		switch sense {
		case LE:
			r.numSlack++
		case GE:
			r.numSlack++
			r.numArt++
		case EQ:
			r.numArt++
		}
	}
	r.cols = r.numVars + r.numSlack + r.numArt
	r.artLo = r.numVars + r.numSlack

	r.slackRow = grabInts(r.slackRow, r.numSlack, &r.allocs)
	r.slackSign = grabFloats(r.slackSign, r.numSlack, &r.allocs)
	r.artRow = grabInts(r.artRow, r.numArt, &r.allocs)
	r.basis = grabInts(r.basis, rows, &r.allocs)
	r.inBasis = grabBools(r.inBasis, r.cols, &r.allocs)
	clear(r.inBasis)
	r.xB = grabFloats(r.xB, rows, &r.allocs)
	r.costs = grabFloats(r.costs, r.cols, &r.allocs)
	r.y = grabFloats(r.y, rows, &r.allocs)
	r.alpha = grabFloats(r.alpha, rows, &r.allocs)
	clear(r.alpha)
	r.work = grabFloats(r.work, rows, &r.allocs)
	r.rc = grabFloats(r.rc, r.cols, &r.allocs)
	r.gamma = grabFloats(r.gamma, r.cols, &r.allocs)
	r.rho = grabFloats(r.rho, rows, &r.allocs)
	r.rhoNZ = grabInt32s(r.rhoNZ, rows, &r.allocs)[:0]
	if cap(r.cand) < seCandListSize {
		r.allocs++
		r.cand = make([]int, 0, seCandListSize)
	}
	r.cand = r.cand[:0]
	r.colBuf = grabInts(r.colBuf, rows, &r.allocs)
	r.rowSlack = grabInt32s(r.rowSlack, rows, &r.allocs)
	r.rowArt = grabInt32s(r.rowArt, rows, &r.allocs)
	r.accVal = grabFloats(r.accVal, r.numVars, &r.allocs)
	r.accMark = grabInt32s(r.accMark, r.numVars, &r.allocs)
	clear(r.accMark)
	r.accEpoch = 0
	if cap(r.touched) < r.numVars {
		r.allocs++
		r.touched = make([]int32, 0, r.numVars)
	}
	r.touched = r.touched[:0]
	r.eta.reset()
	r.eta.words = (rows + 63) >> 6
	r.lu.reset()
	r.sinceRefactor = 0
	r.sincePivot = 0

	slackIdx, artIdx := 0, 0
	for i := 0; i < rows; i++ {
		r.xB[i] = r.m.b[i]
		r.rowSlack[i] = -1
		r.rowArt[i] = -1
		switch r.m.sense[i] {
		case LE:
			r.slackRow[slackIdx] = i
			r.slackSign[slackIdx] = 1
			r.rowSlack[i] = int32(slackIdx)
			r.setBasic(i, r.numVars+slackIdx)
			slackIdx++
		case GE:
			r.slackRow[slackIdx] = i
			r.slackSign[slackIdx] = -1
			r.rowSlack[i] = int32(slackIdx)
			slackIdx++
			r.artRow[artIdx] = i
			r.rowArt[i] = int32(artIdx)
			r.setBasic(i, r.artLo+artIdx)
			artIdx++
		case EQ:
			r.artRow[artIdx] = i
			r.rowArt[i] = int32(artIdx)
			r.setBasic(i, r.artLo+artIdx)
			artIdx++
		}
	}
	// Crash start: the replaced artificial keeps its column, nonbasic at
	// zero, so the column layout is the same with or without the crash.
	for i, j := range r.m.crashCol {
		if j >= 0 {
			r.inBasis[r.basis[i]] = false
			r.setBasic(i, int(j))
		}
	}
}

// crashTriangular is the cold start's second crash pass: every row
// with a triangular crash column (cscMatrix.triCol) trades its artificial
// for that column.  The claimed columns are basic at exactly 0, so the basic
// values load installed stay feasible and unchanged, and one factorization
// of the basis, no longer the identity, replaces the empty LU.
func (r *revisedSolver) crashTriangular() error {
	if r.unitCrashOnly || r.m.triRows == 0 {
		return nil
	}
	for i, j := range r.m.triCol {
		if j >= 0 {
			r.inBasis[r.basis[i]] = false
			r.setBasic(i, int(j))
		}
	}
	return r.refactorize()
}

func (r *revisedSolver) setBasic(row, col int) {
	r.basis[row] = col
	r.inBasis[col] = true
}

// colDot returns v · A_j for any column.
func (r *revisedSolver) colDot(v []float64, j int) float64 {
	switch {
	case j < r.numVars:
		return r.m.colDot(v, j)
	case j < r.artLo:
		return r.slackSign[j-r.numVars] * v[r.slackRow[j-r.numVars]]
	default:
		return v[r.artRow[j-r.artLo]]
	}
}

// scatterCol adds A_j into the dense vector out.
func (r *revisedSolver) scatterCol(j int, out []float64) {
	switch {
	case j < r.numVars:
		r.m.scatterCol(j, out)
	case j < r.artLo:
		out[r.slackRow[j-r.numVars]] += r.slackSign[j-r.numVars]
	default:
		out[r.artRow[j-r.artLo]] += 1
	}
}

// ftranB applies the current basis inverse to v in place: the LU factors
// followed by the (oldest-first) update etas.
func (r *revisedSolver) ftranB(v []float64) {
	r.lu.ftran(v)
	r.eta.ftran(v)
}

// btranB applies the transposed basis inverse to v in place: the update etas
// newest-first, then the transposed LU factors.
func (r *revisedSolver) btranB(v []float64) {
	r.eta.btran(v)
	r.lu.btran(v)
}

// btranRow sets r.rho to B^-T e_row, the BTRAN'd unit vector of a leaving
// row.  The update etas run through etaFile.btranUnit, which skips the eta
// dots that would read only zeros, and the LU factors through
// luFactor.btranUnit, which runs only the steps the rows it leaves nonzero
// can reach; the result equals btranB's up to the sign of zero entries.
func (r *revisedSolver) btranRow(row int) {
	clear(r.rho)
	r.rho[row] = 1
	c := cap(r.rhoNZ)
	r.rhoNZ = r.eta.btranUnit(r.rho, row, r.rhoNZ)
	if cap(r.rhoNZ) != c {
		r.allocs++
	}
	r.lu.btranUnit(r.rho, r.rhoNZ)
}

// setPhase installs the cost vector of the given phase (see flatSolver).
func (r *revisedSolver) setPhase(phase int) {
	r.phase = phase
	clear(r.costs)
	if phase == 1 {
		for j := r.artLo; j < r.cols; j++ {
			r.costs[j] = 1
		}
		return
	}
	for v := 0; v < r.numVars; v++ {
		r.costs[v] = r.p.Objective(v)
	}
}

// objectiveValue evaluates the current phase's cost vector at the current
// basic solution.
func (r *revisedSolver) objectiveValue() float64 {
	total := 0.0
	for i := 0; i < r.rows; i++ {
		if cb := r.costs[r.basis[i]]; cb != 0 {
			total += cb * r.xB[i]
		}
	}
	return total
}

func (r *revisedSolver) priceLimit() int {
	if r.phase == 1 {
		return r.cols
	}
	return r.artLo
}

// computeDuals fills r.y with the simplex multipliers of the current basis:
// y = (B^-T) c_B, one BTRAN per pivot.
func (r *revisedSolver) computeDuals() {
	for i := 0; i < r.rows; i++ {
		r.y[i] = r.costs[r.basis[i]]
	}
	r.btranB(r.y)
}

// fullPrice computes the reduced cost of every eligible column into r.rc
// from the current duals.  Basic columns are pinned to zero so round-off
// never re-selects them.  Cost: one CSC sweep, O(nonzeros + cols).
func (r *revisedSolver) fullPrice() {
	r.fullPasses++
	limit := r.priceLimit()
	for j := 0; j < limit; j++ {
		if r.inBasis[j] {
			r.rc[j] = 0
			continue
		}
		r.rc[j] = r.costs[j] - r.colDot(r.y, j)
	}
}

// optimize runs revised simplex pivots for the current phase until
// optimality, unboundedness or the iteration limit, pricing with steepest
// edge over the shared candidate list, and with Bland's rule after a run of
// degenerateSwitchSE degenerate pivots.
func (r *revisedSolver) optimize(maxIter int) (Status, error) {
	degenerate := 0
	r.cand = r.cand[:0]
	r.resetReference()
	r.seResets-- // the per-phase reset is bookkeeping, not drift
	r.refreshRC()
	for {
		if r.iterations >= maxIter {
			return StatusIterLimit, nil
		}
		bland := degenerate >= degenerateSwitchSE
		var enter int
		if bland {
			enter = r.priceBlandSE()
			if enter < 0 {
				r.refreshRC()
				enter = r.priceBlandSE()
			}
		} else {
			enter = r.priceSteepest()
			if enter < 0 {
				// The maintained reduced costs say optimal; confirm against
				// freshly computed duals before declaring it, so incremental
				// round-off can never terminate a solve early.
				r.refreshRC()
				enter = r.refillSE()
			}
		}
		if enter < 0 {
			return StatusOptimal, nil
		}
		r.ftranColumn(enter)
		var leave int
		if bland {
			// Bland's anti-cycling guarantee needs smallest-index selection
			// on BOTH sides of the pivot, so the fallback pairs its entering
			// rule with the classic smallest-basis-index ratio test.
			leave = r.ratioTest()
		} else {
			leave = r.ratioTestSE()
		}
		if leave < 0 {
			return StatusUnbounded, nil
		}
		gq := r.enterWeight(enter)
		// The pivot's objective decrease is theta * |rc_enter|, read off the
		// maintained reduced costs before seUpdate pins rc[enter] to zero.
		if r.xB[leave]/r.alpha[leave]*-r.rc[enter] <= r.tol {
			degenerate++
		} else {
			degenerate = 0
		}
		r.seUpdate(enter, leave, gq)
		if err := r.pivot(leave, enter); err != nil {
			return 0, err
		}
		r.iterations++
		if bland {
			r.blandIters++
		}
	}
}

// ftranColumn fills r.alpha with B^-1 A_enter.  r.alpha is kept zeroed
// between calls.
func (r *revisedSolver) ftranColumn(enter int) {
	clear(r.alpha)
	r.scatterCol(enter, r.alpha)
	r.ftranB(r.alpha)
}

// ratioTest picks the leaving row for the FTRAN'd entering column in
// r.alpha, breaking ties towards the smallest basis index (the same
// lexicographic anti-cycling bias as the flat path); the Bland fallback
// pairs it with its smallest-index entering rule.  The sweep also
// accumulates |alpha|^2 into r.alphaNorm for the exact entering weight,
// saving a second pass over the column.
func (r *revisedSolver) ratioTest() int {
	leave := -1
	bestRatio := math.Inf(1)
	norm := 0.0
	for i := 0; i < r.rows; i++ {
		aij := r.alpha[i]
		norm += aij * aij
		if aij <= r.tol {
			continue
		}
		ratio := r.xB[i] / aij
		if ratio < bestRatio-r.tol ||
			(math.Abs(ratio-bestRatio) <= r.tol && (leave < 0 || r.basis[i] < r.basis[leave])) {
			bestRatio = ratio
			leave = i
		}
	}
	r.alphaNorm = norm
	return leave
}

// ratioTestSE is the steepest-edge engine's leaving-row rule: the same
// minimum-ratio test, but ties broken first towards rows whose basic
// variable is artificial (driving infeasibility carriers out early) and then
// towards the largest pivot element (numerical stability), instead of the
// smallest basis index.  Termination on degenerate stretches is still
// guaranteed by the Bland fallback in optimize.
func (r *revisedSolver) ratioTestSE() int {
	leave := -1
	bestRatio := math.Inf(1)
	bestArt := false
	bestAbs := 0.0
	norm := 0.0
	for i := 0; i < r.rows; i++ {
		aij := r.alpha[i]
		norm += aij * aij
		if aij <= r.tol {
			continue
		}
		ratio := r.xB[i] / aij
		if ratio < bestRatio-r.tol {
			bestRatio, leave = ratio, i
			bestArt = r.basis[i] >= r.artLo
			bestAbs = aij
			continue
		}
		if math.Abs(ratio-bestRatio) > r.tol {
			continue
		}
		art := r.basis[i] >= r.artLo
		if art != bestArt {
			if art {
				bestRatio, leave, bestArt, bestAbs = ratio, i, true, aij
			}
			continue
		}
		if aij > bestAbs {
			bestRatio, leave, bestAbs = ratio, i, aij
		}
	}
	r.alphaNorm = norm
	return leave
}

// pivot applies the basis change for the entering column whose FTRAN is in
// r.alpha: update the basic values, append an update eta, and refactorize
// when the file is long or the basic values have drifted.
func (r *revisedSolver) pivot(leave, enter int) error {
	if f := r.fault; f != nil && f.PerturbPivot != 0 {
		r.alpha[leave] *= 1 + f.PerturbPivot
	}
	theta := r.xB[leave] / r.alpha[leave]
	// One fused sweep over the FTRAN'd column updates the basic values and
	// writes the update eta's off-pivot entries (what etaFile.push would do
	// in a second pass).
	e := &r.eta
	if len(e.pivRow) == cap(e.pivRow) {
		r.allocs++
	}
	e.pivRow = append(e.pivRow, int32(leave))
	e.pivInv = append(e.pivInv, 1/r.alpha[leave])
	for i := 0; i < r.rows; i++ {
		a := r.alpha[i]
		if a == 0 || i == leave {
			continue
		}
		r.xB[i] -= theta * a
		if a > etaDrop || a < -etaDrop {
			if len(e.idx) == cap(e.idx) {
				r.allocs++
			}
			e.idx = append(e.idx, int32(i))
			e.val = append(e.val, a)
		}
	}
	e.start = append(e.start, int32(len(e.idx)))
	e.markRows(&r.allocs)
	r.xB[leave] = theta
	r.etaColumns++
	r.inBasis[r.basis[leave]] = false
	r.setBasic(leave, enter)

	r.sincePivot++
	r.sinceRefactor++
	if r.sinceRefactor >= r.refactorEvery {
		return r.refactorize()
	}
	if r.sincePivot >= driftCheckEvery && r.residual() > driftTol {
		return r.refactorize()
	}
	return nil
}

// residual returns max_i |(B xB - b)_i|, the drift of the updated basic
// values from the original system.  Cost: one sweep over the basic columns'
// nonzeros.
func (r *revisedSolver) residual() float64 {
	r.sincePivot = 0
	for i := 0; i < r.rows; i++ {
		r.work[i] = -r.m.b[i]
	}
	for i := 0; i < r.rows; i++ {
		j := r.basis[i]
		v := r.xB[i]
		if v == 0 {
			continue
		}
		switch {
		case j < r.numVars:
			for s := r.m.colPtr[j]; s < r.m.colPtr[j+1]; s++ {
				r.work[r.m.rowIdx[s]] += r.m.val[s] * v
			}
		case j < r.artLo:
			r.work[r.slackRow[j-r.numVars]] += r.slackSign[j-r.numVars] * v
		default:
			r.work[r.artRow[j-r.artLo]] += v
		}
	}
	worst := 0.0
	for _, v := range r.work {
		worst = math.Max(worst, math.Abs(v))
	}
	return worst
}

// refactorize rebuilds the basis inverse from scratch for the current basis
// and recomputes the basic values as B^-1 b, clearing accumulated drift: one
// sparse Markowitz elimination (lu.go), after which the update eta file is
// emptied because the fresh factors absorb it.  Rows may be reassigned to
// different basic variables by the elimination's pivot choices, which is
// harmless: basis[i] names the variable whose value lives in row i.
func (r *revisedSolver) refactorize() error {
	if f := r.fault; f != nil && f.ForceSingular {
		return errSingularBasis
	}
	r.refactors++
	cols := r.colBuf[:r.rows]
	copy(cols, r.basis)
	if err := r.lu.factorize(r, cols); err != nil {
		return err
	}
	if f := r.fault; f != nil && f.CorruptFactor && r.phase == 2 {
		f.apply(r.lu.uDiagInv)
		r.lu.listSteps()
	}
	r.luFills += r.lu.fills
	for k, row := range r.lu.pivRow {
		r.basis[row] = cols[r.lu.pivSlot[k]]
	}
	r.eta.reset()
	copy(r.xB, r.m.b)
	r.lu.ftran(r.xB)
	r.sinceRefactor = 0
	r.sincePivot = 0
	if r.probe != nil {
		r.probe(probeFactor, -1)
	}
	return nil
}

// driveOutArtificials removes artificial variables from the basis after
// phase one, pivoting on any structural column with a nonzero entry in the
// artificial's row of B^-1 A, or neutralising the row when it has become
// redundant.  The row is read through one BTRAN of the unit vector plus a
// price over the structural columns.
func (r *revisedSolver) driveOutArtificials() error {
	for i := 0; i < r.rows; i++ {
		if r.basis[i] < r.artLo {
			continue
		}
		clear(r.work)
		r.work[i] = 1
		r.btranB(r.work)
		pivoted := false
		for j := 0; j < r.artLo; j++ {
			if r.inBasis[j] || math.Abs(r.colDot(r.work, j)) <= r.tol {
				continue
			}
			r.ftranColumn(j)
			if math.Abs(r.alpha[i]) <= r.tol {
				// The priced entry and the exact FTRAN disagree: this entry
				// is at the edge of tolerance; keep looking for a solid one.
				continue
			}
			refactorsBefore := r.refactors
			if err := r.pivot(i, j); err != nil {
				return err
			}
			pivoted = true
			if r.refactors != refactorsBefore {
				// The pivot triggered a refactorization, which may reassign
				// rows to different basic variables; restart the scan so no
				// relocated artificial is missed.  Each pivot removes one
				// artificial from the basis, so this terminates.
				i = -1
			}
			break
		}
		if !pivoted {
			// Redundant row (all structural entries at tolerance): keep the
			// artificial basic at value zero and clear round-off.
			r.xB[i] = 0
		}
	}
	return nil
}

// extract reads the current basic solution restricted to problem variables.
func (r *revisedSolver) extract() []float64 {
	x := make([]float64, r.numVars)
	for i := 0; i < r.rows; i++ {
		b := r.basis[i]
		if b < r.numVars {
			v := r.xB[i]
			if v < 0 && v > -r.tol {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}

// solution assembles the Solution for the given terminal status and, on an
// optimal solve, captures the basis snapshots requested through Options.
func (r *revisedSolver) solution(status Status, p *Problem) *Solution {
	sol := &Solution{
		Status:           status,
		Iterations:       r.iterations,
		Phase1Iterations: r.phase1Iters,
		BlandIterations:  r.blandIters,
		DualIterations:   r.dualIters,
		PricingPasses:    r.fullPasses,
		TableauAllocs:    r.allocs,
		Refactorizations: r.refactors,
		EtaColumns:       r.etaColumns,
		LUFills:          r.luFills,
		WarmStarted:      r.warmStarted,
	}
	if status == StatusOptimal {
		sol.X = r.extract()
		sol.Objective = p.Value(sol.X)
		if f := r.fault; f != nil && f.CorruptObjective {
			// An offset of 1+|obj| clears Verify's relative tolerance on any
			// problem, so the fault is deterministically caught, never a
			// silent no-op.
			sol.Objective += 1 + math.Abs(sol.Objective)
		}
		// Capture the final simplex multipliers (one BTRAN plus one copy) so
		// Verify can price the dual-feasibility check without re-deriving
		// them from the factored inverse the check is meant to distrust the
		// output of.
		r.computeDuals()
		if r.dualsReuse != nil {
			// Batch path: the batch's arena absorbs the copy, so the
			// steady-state solve performs no duals allocation.  This recycles
			// the previous batched Solution's certificate; Verify tolerates
			// it (a stale duals slice can only fail, never falsely pass).
			sol.duals = append(r.dualsReuse[:0], r.y...)
		} else {
			sol.duals = append([]float64(nil), r.y...)
		}
		if r.capture {
			sol.Basis = r.captureBasis()
		}
	}
	return sol
}
