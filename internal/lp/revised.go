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
// between refactorizations (or a pure eta file behind Options.Basis ==
// BasisEta), and every pivot is a BTRAN solve for the duals, a price over the
// candidate list (steepest-edge by default, see pricing.go), an FTRAN solve
// of the entering column, and an O(rows) update of the basic values — no
// dense tableau anywhere.
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

	eta           etaFile  // update etas (BasisLU) or the whole inverse (BasisEta)
	lu            luFactor // factored basis (BasisLU only)
	pricing       Pricing
	basisMode     BasisMethod
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

	// identityStart disables both BasisLU crash passes and unitCrashOnly
	// the triangular one, so tests can compare the crash start against the
	// slack/artificial identity start and against the unit pass alone.
	identityStart, unitCrashOnly bool

	// dualsReuse, when non-nil, is the backing array the solution's dual
	// copy reuses instead of allocating (the Batch arena, batch.go).  The
	// batch clears it after each solve; plain Solver solves never see it set.
	dualsReuse []float64

	// fault is the injected numerical failure of the current solve (nil in
	// production; see fault.go).  Solver.solve arms and clears it.
	fault *Fault
}

// solve runs the two-phase revised simplex.  A non-nil warm basis is tried
// first: when it transfers to this problem the solve starts in phase two
// from it, otherwise the ordinary cold start runs.
func (r *revisedSolver) solve(p *Problem, opts Options, tol float64, warm *WarmBasis) (*Solution, error) {
	r.p = p
	defer func() { r.p = nil; r.m = nil }() // do not retain the problem
	r.tol = tol
	r.pricing = opts.Pricing
	r.basisMode = opts.Basis
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
		// refactorization one sparse elimination (or O(rows) FTRANs on the
		// eta path); capping the file around the row count balances the two
		// while keeping FTRAN/BTRAN far below one dense tableau sweep.  The
		// LU elimination is cheap enough that a shorter file (more frequent
		// refactorization) wins on the larger experiment sizes.
		r.refactorEvery = r.rows/2 + 32
		cap := 128
		if r.basisMode == BasisLU {
			cap = 96
		}
		if r.refactorEvery > cap {
			r.refactorEvery = cap
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
// slacks for <= rows, artificials for = and >= rows and, on the BasisLU
// path, a unit column singleton in place of the artificial wherever the row
// has one (cscMatrix.crashCol).  Either way the basis is the identity, so
// the factored inverse starts empty and exact.  A cold start then adds the
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
	if r.basisMode != BasisLU || r.identityStart {
		return
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

// crashTriangular is the BasisLU cold start's second crash pass: every row
// with a triangular crash column (cscMatrix.triCol) trades its artificial
// for that column.  The claimed columns are basic at exactly 0, so the basic
// values load installed stay feasible and unchanged, and one factorization
// of the basis, no longer the identity, replaces the empty LU.
func (r *revisedSolver) crashTriangular() error {
	if r.basisMode != BasisLU || r.identityStart || r.unitCrashOnly || r.m.triRows == 0 {
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
// followed by the (oldest-first) update etas, or the whole eta file on the
// BasisEta path.
func (r *revisedSolver) ftranB(v []float64) {
	if r.basisMode == BasisLU {
		r.lu.ftran(v)
	}
	r.eta.ftran(v)
}

// btranB applies the transposed basis inverse to v in place: the update etas
// newest-first, then the transposed LU factors.
func (r *revisedSolver) btranB(v []float64) {
	r.eta.btran(v)
	if r.basisMode == BasisLU {
		r.lu.btran(v)
	}
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

// reducedCost prices one column against the duals in r.y.
func (r *revisedSolver) reducedCost(j int) float64 {
	return r.costs[j] - r.colDot(r.y, j)
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

// rebuildCandidates refreshes the candidate list from a full pricing pass
// and returns the most attractive eligible column, or -1 at optimality.
func (r *revisedSolver) rebuildCandidates() int {
	r.fullPrice()
	best, cand := selectCandidates(r.rc, r.priceLimit(), r.tol, r.cand)
	r.cand = cand
	return best
}

// priceDantzig prices the surviving candidate list against the current duals
// and falls back to a full pricing sweep only when the list runs dry.
func (r *revisedSolver) priceDantzig() int {
	best, bestRC := -1, -r.tol
	w := 0
	for _, j := range r.cand {
		if r.inBasis[j] {
			continue
		}
		rcj := r.reducedCost(j)
		if rcj < -r.tol {
			r.cand[w] = j
			w++
			if rcj < bestRC {
				bestRC, best = rcj, j
			}
		}
	}
	r.cand = r.cand[:w]
	if best >= 0 {
		return best
	}
	return r.rebuildCandidates()
}

// priceBland returns the smallest-index eligible column with negative
// reduced cost (Bland's anti-cycling rule), or -1 at optimality.
func (r *revisedSolver) priceBland() int {
	r.fullPrice()
	limit := r.priceLimit()
	for j := 0; j < limit; j++ {
		if r.rc[j] < -r.tol {
			return j
		}
	}
	return -1
}

// optimize runs revised simplex pivots for the current phase until
// optimality, unboundedness or the iteration limit, pricing with the
// configured rule (steepest-edge or Dantzig over the shared candidate list,
// Bland after a run of degenerate pivots: degenerateSwitchSE of them on the
// steepest-edge engine, degenerateSwitch on Dantzig).
func (r *revisedSolver) optimize(maxIter int) (Status, error) {
	degenerate := 0
	lastObj := r.objectiveValue()
	r.cand = r.cand[:0]
	steepest := r.pricing == PricingSteepestEdge
	window := degenerateSwitch
	if steepest {
		window = degenerateSwitchSE
		r.resetReference()
		r.seResets-- // the per-phase reset is bookkeeping, not drift
		r.refreshRC()
	}
	for {
		if r.iterations >= maxIter {
			return StatusIterLimit, nil
		}
		bland := degenerate >= window
		var enter int
		switch {
		case steepest && bland:
			enter = r.priceBlandSE()
			if enter < 0 {
				r.refreshRC()
				enter = r.priceBlandSE()
			}
		case steepest:
			enter = r.priceSteepest()
			if enter < 0 {
				// The maintained reduced costs say optimal; confirm against
				// freshly computed duals before declaring it, so incremental
				// round-off can never terminate a solve early.
				r.refreshRC()
				enter = r.refillSE()
			}
		case bland:
			r.computeDuals()
			enter = r.priceBland()
		default:
			r.computeDuals()
			enter = r.priceDantzig()
		}
		if enter < 0 {
			return StatusOptimal, nil
		}
		r.ftranColumn(enter)
		var leave int
		if steepest && !bland {
			leave = r.ratioTestSE()
		} else {
			// Bland's anti-cycling guarantee needs smallest-index selection
			// on BOTH sides of the pivot, so the fallback pairs its entering
			// rule with the classic smallest-basis-index ratio test even in
			// steepest-edge mode.
			leave = r.ratioTest()
		}
		if leave < 0 {
			return StatusUnbounded, nil
		}
		var gq float64
		if steepest {
			gq = r.enterWeight(enter)
			// The pivot's objective decrease is theta * |rc_enter|; reading
			// it off the maintained reduced costs replaces the O(rows)
			// objective evaluation of the Dantzig path.  Do it before
			// seUpdate pins rc[enter] to zero.
			if r.xB[leave]/r.alpha[leave]*-r.rc[enter] <= r.tol {
				degenerate++
			} else {
				degenerate = 0
			}
			r.seUpdate(enter, leave, gq)
		}
		if err := r.pivot(leave, enter); err != nil {
			return 0, err
		}
		r.iterations++
		if bland {
			r.blandIters++
		}
		if !steepest {
			obj := r.objectiveValue()
			if obj >= lastObj-r.tol {
				degenerate++
			} else {
				degenerate = 0
			}
			lastObj = obj
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
// lexicographic anti-cycling bias as the flat path).  The sweep also
// accumulates |alpha|^2 into r.alphaNorm for the steepest-edge engine's
// exact entering weight, saving it a second pass over the column.
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
// and recomputes the basic values as B^-1 b, clearing accumulated drift.
// Rows may be reassigned to different basic variables by the pivot choices,
// which is harmless: basis[i] names the variable whose value lives in row i.
//
// On the BasisLU path this is one sparse Markowitz elimination (lu.go); the
// update eta file is emptied because the fresh factors absorb it.  On the
// BasisEta path it is the PR-2 product-form reinversion: each basic column
// is FTRAN'd through the partial file and pivots on its largest remaining
// entry, singleton slack and artificial columns first so the structural
// columns fill against as short a file as possible.
func (r *revisedSolver) refactorize() error {
	if f := r.fault; f != nil && f.ForceSingular {
		return errSingularBasis
	}
	r.refactors++
	if r.basisMode == BasisLU {
		cols := r.colBuf[:r.rows]
		copy(cols, r.basis)
		if err := r.lu.factorize(r, cols); err != nil {
			return err
		}
		if f := r.fault; f != nil && f.CorruptFactor && r.phase == 2 {
			f.apply(r.lu.uDiagInv)
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
		return nil
	}

	r.eta.reset()
	cols := r.colBuf[:r.rows]
	copy(cols, r.basis)
	// assigned marks pivot rows already consumed; reuse r.work as the FTRAN
	// scratch and r.y (free between pivots) is NOT usable here because the
	// caller needs it, so mark assignment through basis itself: basis[i] = -1
	// until row i is reassigned.
	for i := range r.basis {
		r.basis[i] = -1
	}
	for pass := 0; pass < 2; pass++ {
		for _, j := range cols {
			if (pass == 0) != (j >= r.numVars) {
				continue // singletons first, structural columns second
			}
			clear(r.work)
			r.scatterCol(j, r.work)
			r.eta.ftran(r.work)
			pivotRow, pivotAbs := -1, 0.0
			for i, v := range r.work {
				if r.basis[i] != -1 {
					continue
				}
				if a := math.Abs(v); a > pivotAbs {
					pivotAbs, pivotRow = a, i
				}
			}
			if pivotRow < 0 || pivotAbs <= etaDrop {
				return errSingularBasis
			}
			r.eta.push(r.work, pivotRow, &r.allocs)
			r.etaColumns++
			r.basis[pivotRow] = j
		}
	}
	if f := r.fault; f != nil && f.CorruptFactor && r.phase == 2 {
		f.apply(r.eta.pivInv)
	}
	copy(r.xB, r.m.b)
	r.eta.ftran(r.xB)
	r.sinceRefactor = 0
	r.sincePivot = 0
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
		PricingRule:      r.pricing,
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
