package lp

import (
	"math"
	"math/bits"
)

// luFactor is a sparse LU factorization of the simplex basis; the update
// etas since the last factorization live in an etaFile (eta.go).
//
// The factorization is a right-looking sparse Gaussian elimination with
// Markowitz-style pivoting: at every step the pivot column is an active
// column of minimal active nonzero count, and within it the pivot row
// minimises the active row count among entries passing threshold partial
// pivoting (|entry| >= luPivotRel * max|column entry|).  That double minimum
// approximates the Markowitz cost (r-1)(c-1) while the threshold keeps the
// factors numerically stable, and on the ~1% dense prefetching LPs it keeps
// fill-in (tracked in fills, surfaced as Solution.LUFills) a small multiple
// of the basis nonzeros, where a product-form reinversion writes one fresh,
// increasingly dense eta column per basis column.
//
// The output is a permuted triangular pair kept in flat reusable arrays:
//
//   - L as unit-diagonal multiplier columns in elimination order (pivRow[k]
//     plus the (lIdx, lVal) run of off-pivot multipliers), applied like an
//     eta file with pivot scale 1;
//   - U column-wise in elimination order: the inverted diagonal uDiagInv[k]
//     plus (uIdx, uVal) entries whose row coordinate is the *elimination
//     index* of an earlier pivot (physical row = pivRow[uIdx[s]]).
//
// ftran/btran solve against L and U directly: B^-1 v = U^-1 L^-1 v and
// B^-T v = L^-T U^-T v, both in place on a dense physical-row vector.  Most
// steps of a serving basis are identities (slack, artificial and unit crash
// columns: no multipliers, no off-diagonal U entries, diagonal 1), so the
// solves walk only the step lists lSteps and uSteps, which skip exactly the
// steps that leave every vector bit for bit unchanged.
// Between refactorizations the basis inverse is LU composed with the update
// eta file (see revisedSolver.ftranB/btranB): each pivot appends the
// FTRAN'd entering column as a product-form update in U-space — the
// untriangularised form of the Forrest–Tomlin column update, which keeps the
// factors frozen and the update cost proportional to the entering column's
// fill until the next refactorization.
type luFactor struct {
	rows int

	pivRow   []int32 // elimination order -> physical pivot row
	pivSlot  []int32 // elimination order -> basis position (column slot)
	lStart   []int32 // len(pivRow)+1 offsets into lIdx/lVal
	lIdx     []int32 // physical rows of L multipliers
	lVal     []float64
	uDiagInv []float64
	uStart   []int32 // len(pivRow)+1 offsets into uIdx/uVal
	uIdx     []int32 // elimination index of the entry's pivot row
	uVal     []float64

	// Step lists in ascending elimination order: lSteps holds the steps
	// with L multipliers, uSteps those with off-diagonal U entries or a
	// diagonal other than 1 (listSteps).
	lSteps []int32
	uSteps []int32

	// The factors' dependencies, transposed for btranUnit (listDeps):
	// uDep[uDepStart[i]:uDepStart[i+1]] lists the steps whose U column has
	// an entry at elimination index i, lDep[lDepStart[i]:lDepStart[i+1]]
	// the steps whose L column has a multiplier in step i's pivot row.
	// liveU and liveL are btranUnit's step bitsets, all zero between calls.
	uDepStart, uDep []int32
	lDepStart, lDep []int32
	liveU, liveL    []uint64

	// fills counts entries created beyond the basis columns' own nonzeros
	// during the last factorization.
	fills int

	// Factorization workspace, all reused across factorizations and solves.
	colIdx   [][]int32   // per basis slot: physical rows of the working column
	colVal   [][]float64 // per basis slot: matching values
	rowCols  [][]int32   // per physical row: column slots whose pattern has it
	rowOrder []int32     // physical row -> elimination index, -1 while active
	colDone  []bool      // column slot already pivoted
	colCount []int32     // active (unpivoted-row) entries per column slot
	rowCount []int32     // active columns containing each physical row
	mRows    []int32     // multiplier rows of the current step
	mVal     []float64   // dense multiplier value per physical row
	mMark    []int32     // mMark[i] == mGen marks i as a multiplier row
	present  []int32     // present[i] == pGen marks i as present in the target column
	mGen     int32
	pGen     int32

	// Column-count buckets for Markowitz pivot-column selection: bHead[c]
	// heads a doubly-linked list (bNext/bPrev) of the undone column slots
	// whose active count is exactly c (bCnt remembers the linked count so
	// unlinking knows its head).  Every count change relinks the column, so
	// popping the minimum is O(1) amortised instead of an O(rows) scan per
	// elimination step.
	bHead []int32
	bNext []int32
	bPrev []int32
	bCnt  []int32
	bCur  int32 // lowest bucket that may be nonempty
}

// luPivotRel is the threshold-partial-pivoting relative tolerance: a pivot
// candidate must be at least this fraction of the largest active entry of its
// column.  0.1 is the classic compromise between sparsity (freedom for the
// Markowitz row choice) and stability.
const luPivotRel = 0.1

// luDrop is the absolute magnitude below which fill-in entries are not
// recorded, mirroring etaDrop: the update that produced them is already
// bounded by the drift check and periodic refactorization.
const luDrop = 1e-12

// luSingular is the absolute pivot magnitude below which a column is treated
// as numerically zero and the basis as singular.
const luSingular = 1e-11

// reset empties the factor (keeping capacity), leaving it representing the
// identity — the state matching the initial basis of load.
func (lu *luFactor) reset() {
	lu.rows = 0
	lu.pivRow = lu.pivRow[:0]
	lu.pivSlot = lu.pivSlot[:0]
	lu.lIdx = lu.lIdx[:0]
	lu.lVal = lu.lVal[:0]
	lu.uDiagInv = lu.uDiagInv[:0]
	lu.uIdx = lu.uIdx[:0]
	lu.uVal = lu.uVal[:0]
	lu.lStart = lu.lStart[:0]
	lu.uStart = lu.uStart[:0]
	lu.lSteps = lu.lSteps[:0]
	lu.uSteps = lu.uSteps[:0]
	lu.fills = 0
}

// nonzeros returns the entry count of both factors, the quantity ftran/btran
// cost is proportional to.
func (lu *luFactor) nonzeros() int { return len(lu.lIdx) + len(lu.uIdx) + len(lu.uDiagInv) }

// grow readies the workspace for an m-row factorization.
func (lu *luFactor) grow(m int, allocs *int) {
	if cap(lu.colIdx) < m {
		*allocs++
		colIdx := make([][]int32, m)
		copy(colIdx, lu.colIdx)
		lu.colIdx = colIdx
		colVal := make([][]float64, m)
		copy(colVal, lu.colVal)
		lu.colVal = colVal
		rowCols := make([][]int32, m)
		copy(rowCols, lu.rowCols)
		lu.rowCols = rowCols
	}
	lu.colIdx = lu.colIdx[:m]
	lu.colVal = lu.colVal[:m]
	lu.rowCols = lu.rowCols[:m]
	lu.rowOrder = grabInt32s(lu.rowOrder, m, allocs)
	lu.colDone = grabBools(lu.colDone, m, allocs)
	lu.colCount = grabInt32s(lu.colCount, m, allocs)
	lu.rowCount = grabInt32s(lu.rowCount, m, allocs)
	if cap(lu.mRows) < m {
		*allocs++
		lu.mRows = make([]int32, 0, m)
	}
	lu.mRows = lu.mRows[:0]
	lu.mVal = grabFloats(lu.mVal, m, allocs)
	lu.mMark = grabInt32s(lu.mMark, m, allocs)
	lu.present = grabInt32s(lu.present, m, allocs)
	lu.pivRow = grabInt32s(lu.pivRow, m, allocs)[:0]
	lu.pivSlot = grabInt32s(lu.pivSlot, m, allocs)[:0]
	lu.uDiagInv = grabFloats(lu.uDiagInv, m, allocs)[:0]
	lu.lSteps = grabInt32s(lu.lSteps, m, allocs)[:0]
	lu.uSteps = grabInt32s(lu.uSteps, m, allocs)[:0]
	if cap(lu.lStart) < m+1 {
		*allocs++
		lu.lStart = make([]int32, 0, m+1)
		lu.uStart = make([]int32, 0, m+1)
	}
	lu.lStart = append(lu.lStart[:0], 0)
	lu.uStart = append(lu.uStart[:0], 0)
	lu.lIdx = lu.lIdx[:0]
	lu.lVal = lu.lVal[:0]
	lu.uIdx = lu.uIdx[:0]
	lu.uVal = lu.uVal[:0]
	clear(lu.mMark)
	clear(lu.present)
	lu.mGen = 0
	lu.pGen = 0
	lu.fills = 0
	lu.bHead = grabInt32s(lu.bHead, m+1, allocs)
	lu.bNext = grabInt32s(lu.bNext, m, allocs)
	lu.bPrev = grabInt32s(lu.bPrev, m, allocs)
	lu.bCnt = grabInt32s(lu.bCnt, m, allocs)
	for i := range lu.bHead {
		lu.bHead[i] = -1
	}
	lu.bCur = 0
}

// bucketLink inserts column slot c at the head of its current count's list.
func (lu *luFactor) bucketLink(c int32) {
	cnt := lu.colCount[c]
	lu.bCnt[c] = cnt
	lu.bPrev[c] = -1
	lu.bNext[c] = lu.bHead[cnt]
	if lu.bHead[cnt] >= 0 {
		lu.bPrev[lu.bHead[cnt]] = c
	}
	lu.bHead[cnt] = c
	if cnt < lu.bCur {
		lu.bCur = cnt
	}
}

// bucketUnlink removes column slot c from the list it is linked into.
func (lu *luFactor) bucketUnlink(c int32) {
	p, n := lu.bPrev[c], lu.bNext[c]
	if p >= 0 {
		lu.bNext[p] = n
	} else {
		lu.bHead[lu.bCnt[c]] = n
	}
	if n >= 0 {
		lu.bPrev[n] = p
	}
}

// bucketRelink moves column slot c to the list of its updated count.
func (lu *luFactor) bucketRelink(c int32) {
	if lu.bCnt[c] == lu.colCount[c] {
		return
	}
	lu.bucketUnlink(c)
	lu.bucketLink(c)
}

// bucketPop unlinks and returns the undone column slot with the smallest
// active count, or -1 when none remains.
func (lu *luFactor) bucketPop() int32 {
	top := int32(len(lu.bHead) - 1)
	for lu.bCur <= top && lu.bHead[lu.bCur] < 0 {
		lu.bCur++
	}
	if lu.bCur > top {
		return -1
	}
	c := lu.bHead[lu.bCur]
	lu.bucketUnlink(c)
	return c
}

// pushCol appends one entry to working column c, counting backing growth.
func (lu *luFactor) pushCol(c int, row int32, v float64, allocs *int) {
	if len(lu.colIdx[c]) == cap(lu.colIdx[c]) {
		*allocs++
	}
	lu.colIdx[c] = append(lu.colIdx[c], row)
	lu.colVal[c] = append(lu.colVal[c], v)
}

// factorize computes the LU factors of the basis described by slots: the
// basis column of slot i is the problem column slots[i] of solver r.  On
// success the elimination's (pivot row, slot) pairing is available through
// pivRow/pivSlot so the caller can reassign basis rows, exactly as the eta
// reinversion did.  Returns errSingularBasis when a column has no usable
// pivot.
func (lu *luFactor) factorize(r *revisedSolver, slots []int) error {
	m := r.rows
	lu.grow(m, &r.allocs)
	lu.rows = m

	for i := 0; i < m; i++ {
		lu.colIdx[i] = lu.colIdx[i][:0]
		lu.colVal[i] = lu.colVal[i][:0]
		lu.rowCols[i] = lu.rowCols[i][:0]
		lu.rowOrder[i] = -1
		lu.colDone[i] = false
		lu.colCount[i] = 0
		lu.rowCount[i] = 0
	}

	// Load the basis columns into the working sparse form.
	for c, j := range slots {
		switch {
		case j < r.numVars:
			cm := r.m
			for s := cm.colPtr[j]; s < cm.colPtr[j+1]; s++ {
				lu.pushCol(c, cm.rowIdx[s], cm.val[s], &r.allocs)
			}
		case j < r.artLo:
			lu.pushCol(c, int32(r.slackRow[j-r.numVars]), r.slackSign[j-r.numVars], &r.allocs)
		default:
			lu.pushCol(c, int32(r.artRow[j-r.artLo]), 1, &r.allocs)
		}
		lu.colCount[c] = int32(len(lu.colIdx[c]))
		for _, row := range lu.colIdx[c] {
			if len(lu.rowCols[row]) == cap(lu.rowCols[row]) {
				r.allocs++
			}
			lu.rowCols[row] = append(lu.rowCols[row], int32(c))
			lu.rowCount[row]++
		}
	}

	for c := int32(0); c < int32(m); c++ {
		lu.bucketLink(c)
	}

	for k := 0; k < m; k++ {
		// Pivot column: the active column with the fewest active entries,
		// popped from the count buckets (deterministic link order, so the
		// elimination is reproducible).
		pc := int(lu.bucketPop())
		if pc < 0 || lu.colCount[pc] == 0 {
			return errSingularBasis
		}

		// Pivot row: threshold partial pivoting (within luPivotRel of the
		// column's largest active entry) with the smallest active row count,
		// breaking ties towards the smallest physical row.
		idx, val := lu.colIdx[pc], lu.colVal[pc]
		maxAbs := 0.0
		for s, row := range idx {
			if lu.rowOrder[row] >= 0 {
				continue
			}
			if a := math.Abs(val[s]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs <= luSingular {
			return errSingularBasis
		}
		thresh := luPivotRel * maxAbs
		pr := int32(-1)
		prCount := int32(0)
		var pv float64
		for s, row := range idx {
			if lu.rowOrder[row] >= 0 {
				continue
			}
			if math.Abs(val[s]) < thresh {
				continue
			}
			if pr < 0 || lu.rowCount[row] < prCount || (lu.rowCount[row] == prCount && row < pr) {
				pr, prCount, pv = row, lu.rowCount[row], val[s]
			}
		}

		// Emit the L multipliers (active rows) and the U column (rows
		// pivoted in earlier steps, frozen since their step).
		lu.mGen++
		mRows := lu.mRows[:0]
		for s, row := range idx {
			if row == pr {
				continue
			}
			if ord := lu.rowOrder[row]; ord >= 0 {
				if len(lu.uIdx) == cap(lu.uIdx) {
					r.allocs++
				}
				lu.uIdx = append(lu.uIdx, ord)
				lu.uVal = append(lu.uVal, val[s])
				continue
			}
			l := val[s] / pv
			if len(lu.lIdx) == cap(lu.lIdx) {
				r.allocs++
			}
			lu.lIdx = append(lu.lIdx, row)
			lu.lVal = append(lu.lVal, l)
			lu.mVal[row] = l
			lu.mMark[row] = lu.mGen
			mRows = append(mRows, row)
			lu.rowCount[row]-- // column pc leaves the active set
		}
		lu.mRows = mRows
		lu.pivRow = append(lu.pivRow, pr)
		lu.pivSlot = append(lu.pivSlot, int32(pc))
		lu.uDiagInv = append(lu.uDiagInv, 1/pv)
		lu.lStart = append(lu.lStart, int32(len(lu.lIdx)))
		lu.uStart = append(lu.uStart, int32(len(lu.uIdx)))

		// Eliminate the pivot row from every other active column that has an
		// entry in it.  The entry itself stays frozen in the column (it is a
		// future U entry); only active rows are updated, gaining fill at the
		// multiplier rows they lack.
		for _, c2i := range lu.rowCols[pr] {
			c2 := int(c2i)
			if c2 == pc || lu.colDone[c2] {
				continue
			}
			idx2, val2 := lu.colIdx[c2], lu.colVal[c2]
			var u float64
			found := false
			for s, row := range idx2 {
				if row == pr {
					u, found = val2[s], true
					break
				}
			}
			if !found {
				continue
			}
			lu.colCount[c2]-- // the pivot-row entry freezes
			if u != 0 && len(mRows) > 0 {
				lu.pGen++
				for s, row := range idx2 {
					if lu.mMark[row] == lu.mGen && lu.rowOrder[row] < 0 {
						val2[s] -= lu.mVal[row] * u
						lu.present[row] = lu.pGen
					}
				}
				for _, row := range mRows {
					if lu.present[row] == lu.pGen {
						continue
					}
					f := -lu.mVal[row] * u
					if f < luDrop && f > -luDrop {
						continue
					}
					lu.pushCol(c2, row, f, &r.allocs)
					if len(lu.rowCols[row]) == cap(lu.rowCols[row]) {
						r.allocs++
					}
					lu.rowCols[row] = append(lu.rowCols[row], c2i)
					lu.rowCount[row]++
					lu.colCount[c2]++
					lu.fills++
				}
			}
			lu.bucketRelink(c2i) // count changed: move to its new bucket
		}

		lu.rowOrder[pr] = int32(k)
		lu.colDone[pc] = true
	}
	lu.listSteps()
	lu.listDeps(&r.allocs)
	return nil
}

// listDeps transposes the factors' patterns into uDep and lDep and sizes
// the live bitsets.  A U entry sits at an elimination index below its step
// and an L multiplier in a row pivoted after its step, so a step's U
// dependents all come after it and its L dependents all before it.
func (lu *luFactor) listDeps(allocs *int) {
	n := len(lu.pivRow)
	lu.uDepStart = grabInt32s(lu.uDepStart, n+1, allocs)
	lu.lDepStart = grabInt32s(lu.lDepStart, n+1, allocs)
	lu.uDep = grabInt32s(lu.uDep, len(lu.uIdx), allocs)
	lu.lDep = grabInt32s(lu.lDep, len(lu.lIdx), allocs)
	transpose := func(start, dep []int32, stepStart []int32, at func(s int32) int32) {
		clear(start)
		for s := int32(0); s < stepStart[n]; s++ {
			start[at(s)+1]++
		}
		for i := 0; i < n; i++ {
			start[i+1] += start[i]
		}
		for k := 0; k < n; k++ {
			for s := stepStart[k]; s < stepStart[k+1]; s++ {
				i := at(s)
				dep[start[i]] = int32(k)
				start[i]++
			}
		}
		copy(start[1:], start[:n])
		start[0] = 0
	}
	transpose(lu.uDepStart, lu.uDep, lu.uStart, func(s int32) int32 { return lu.uIdx[s] })
	transpose(lu.lDepStart, lu.lDep, lu.lStart, func(s int32) int32 { return lu.rowOrder[lu.lIdx[s]] })
	words := (n + 63) >> 6
	if cap(lu.liveU) < words {
		*allocs++
		lu.liveU = make([]uint64, words)
		lu.liveL = make([]uint64, words)
	}
	lu.liveU = lu.liveU[:words]
	lu.liveL = lu.liveL[:words]
}

// listSteps rebuilds the step lists from the factors.  A step left out is
// the identity in every solve: an L step without multipliers changes
// nothing, and a U step without off-diagonal entries whose diagonal is 1
// multiplies its entry by exactly 1.  A diagonal of -1 (a >= row's slack, a
// -1 crash entry) is not the identity and stays listed.  Callers that alter
// uDiagInv after factorize (fault injection) list the steps again.
func (lu *luFactor) listSteps() {
	lu.lSteps = lu.lSteps[:0]
	lu.uSteps = lu.uSteps[:0]
	for k := range lu.pivRow {
		if lu.lStart[k+1] > lu.lStart[k] {
			lu.lSteps = append(lu.lSteps, int32(k))
		}
		if lu.uStart[k+1] > lu.uStart[k] || lu.uDiagInv[k] != 1 {
			lu.uSteps = append(lu.uSteps, int32(k))
		}
	}
}

// ftran applies the factored basis inverse to v in place: v <- U^-1 L^-1 v,
// walking only the listed steps.
func (lu *luFactor) ftran(v []float64) {
	for _, k := range lu.lSteps {
		t := v[lu.pivRow[k]]
		if t == 0 {
			continue
		}
		for s := lu.lStart[k]; s < lu.lStart[k+1]; s++ {
			v[lu.lIdx[s]] -= lu.lVal[s] * t
		}
	}
	for i := len(lu.uSteps) - 1; i >= 0; i-- {
		k := lu.uSteps[i]
		r := lu.pivRow[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t *= lu.uDiagInv[k]
		v[r] = t
		for s := lu.uStart[k]; s < lu.uStart[k+1]; s++ {
			v[lu.pivRow[lu.uIdx[s]]] -= lu.uVal[s] * t
		}
	}
}

// btran applies the transposed factored inverse to v in place:
// v <- L^-T U^-T v, walking only the listed steps.
func (lu *luFactor) btran(v []float64) {
	for _, k := range lu.uSteps {
		r := lu.pivRow[k]
		t := v[r]
		for s := lu.uStart[k]; s < lu.uStart[k+1]; s++ {
			t -= lu.uVal[s] * v[lu.pivRow[lu.uIdx[s]]]
		}
		v[r] = t * lu.uDiagInv[k]
	}
	for i := len(lu.lSteps) - 1; i >= 0; i-- {
		k := lu.lSteps[i]
		r := lu.pivRow[k]
		t := v[r]
		for s := lu.lStart[k]; s < lu.lStart[k+1]; s++ {
			t -= lu.lVal[s] * v[lu.lIdx[s]]
		}
		v[r] = t
	}
}

// btranUnit is btran for a v that is zero outside the physical rows listed
// in nz, as rho is after the update etas (etaFile.btranUnit).  It runs only
// the live steps: those whose pivot row is in nz, and those a nonzero
// result of an earlier-run step feeds (uDep in the U pass, lDep in the L
// pass).  Every other step reads only zeros, so btran would leave a zero
// there.  A live step computes what btran computes, summing in the same
// order, so for finite factors the result equals btran's bit for bit up to
// the sign of zero entries.  The bitsets visit the U steps in ascending and
// the L steps in descending order, as btran does.
func (lu *luFactor) btranUnit(v []float64, nz []int32) {
	if len(lu.pivRow) == 0 {
		return // the identity basis of load
	}
	liveU, liveL := lu.liveU, lu.liveL
	for _, p := range nz {
		k := lu.rowOrder[p]
		liveU[k>>6] |= 1 << (k & 63)
	}
	for w := range liveU {
		for liveU[w] != 0 {
			b := bits.TrailingZeros64(liveU[w])
			liveU[w] &^= 1 << b
			k := int32(w<<6 | b)
			r := lu.pivRow[k]
			t := v[r]
			for s := lu.uStart[k]; s < lu.uStart[k+1]; s++ {
				t -= lu.uVal[s] * v[lu.pivRow[lu.uIdx[s]]]
			}
			t *= lu.uDiagInv[k]
			v[r] = t
			if t == 0 {
				continue
			}
			liveL[w] |= 1 << b
			for _, d := range lu.uDep[lu.uDepStart[k]:lu.uDepStart[k+1]] {
				liveU[d>>6] |= 1 << (d & 63)
			}
		}
	}
	for w := len(liveL) - 1; w >= 0; w-- {
		for liveL[w] != 0 {
			b := 63 - bits.LeadingZeros64(liveL[w])
			liveL[w] &^= 1 << b
			k := int32(w<<6 | b)
			r := lu.pivRow[k]
			t := v[r]
			for s := lu.lStart[k]; s < lu.lStart[k+1]; s++ {
				t -= lu.lVal[s] * v[lu.lIdx[s]]
			}
			v[r] = t
			if t == 0 {
				continue
			}
			for _, d := range lu.lDep[lu.lDepStart[k]:lu.lDepStart[k+1]] {
				liveL[d>>6] |= 1 << (d & 63)
			}
		}
	}
}

// grabInt32s is grabInts for int32 buffers.
func grabInt32s(buf []int32, n int, allocs *int) []int32 {
	if cap(buf) < n {
		*allocs++
		return make([]int32, n)
	}
	return buf[:n]
}
