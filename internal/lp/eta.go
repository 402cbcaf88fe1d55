package lp

import "slices"

// etaFile is a product-form representation of the basis inverse: one eta
// column per pivot.  Writing the FTRAN'd entering column as alpha with pivot
// row r, the pivot multiplies the current inverse on the left by E^-1, where
// E is the identity with column r replaced by alpha.  The file stores, per
// eta, the pivot row, 1/alpha_r, and the off-pivot nonzeros of alpha in flat
// arrays, so the whole file is three slices regardless of pivot count and is
// reusable across solves without allocation.
//
// The file holds the update etas since the last LU factorization (or since
// the identity basis of a cold start), so the basis inverse is
// E_k^-1 ... E_1^-1 applied after the LU factors oldest-first (ftran) and
// its transpose applied newest-first before them (btran).
type etaFile struct {
	pivRow []int32
	pivInv []float64 // 1/alpha_r per eta
	start  []int32   // len(pivRow)+1 offsets into idx/val
	idx    []int32   // off-pivot row indices
	val    []float64 // off-pivot alpha values

	// rowBits holds one bitset of words uint64s per eta marking its
	// off-pivot rows (revisedSolver.pivot writes it), so btranSparse can tell
	// which etas cannot read a sparse vector's nonzeros.
	rowBits []uint64
	words   int
	// nzWords is btranSparse's list of the nonzero words of its row bitset
	// (capacity words, sized by revisedSolver.load).
	nzWords []int32
}

// etaDrop is the absolute magnitude below which off-pivot entries are not
// recorded.  The prefetching LPs have O(1)-scaled data, so entries this small
// are floating-point noise; dropping them keeps eta columns sparse, and the
// periodic refactorization plus the drift check bound any accumulated error.
const etaDrop = 1e-12

// reset empties the file (keeping capacity).
func (e *etaFile) reset() {
	e.pivRow = e.pivRow[:0]
	e.pivInv = e.pivInv[:0]
	if cap(e.start) == 0 {
		e.start = append(e.start, 0)
	}
	e.start = e.start[:1]
	e.start[0] = 0
	e.idx = e.idx[:0]
	e.val = e.val[:0]
	e.rowBits = e.rowBits[:0]
}

// count returns the number of eta columns in the file.
func (e *etaFile) count() int { return len(e.pivRow) }

// markRows writes the row bitset of the newest eta (see rowBits).
func (e *etaFile) markRows(allocs *int) {
	n, w := len(e.rowBits), e.words
	if cap(e.rowBits)-n < w {
		*allocs++
	}
	e.rowBits = slices.Grow(e.rowBits, w)[:n+w]
	bits := e.rowBits[n:]
	clear(bits)
	k := len(e.pivRow) - 1
	for _, i := range e.idx[e.start[k]:e.start[k+1]] {
		bits[i>>6] |= 1 << (i & 63)
	}
}

// ftran applies the update etas to v in place, oldest first: each eta
// scales its pivot row and subtracts the off-pivot column.  Etas whose
// pivot entry of v is zero are skipped entirely, which keeps FTRANs of
// sparse columns cheap early in the eta file.  Every row it writes is
// marked in the row bitset nz.
func (e *etaFile) ftran(v []float64, nz []uint64) {
	for k := range e.pivRow {
		r := e.pivRow[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t *= e.pivInv[k]
		v[r] = t
		for s := e.start[k]; s < e.start[k+1]; s++ {
			i := e.idx[s]
			v[i] -= e.val[s] * t
			nz[i>>6] |= 1 << (i & 63)
		}
	}
}

// btran applies the transposed update etas to v in place: each eta, newest
// first, replaces its pivot entry by (v_r - alpha_offpivot · v) / alpha_r.
func (e *etaFile) btran(v []float64) {
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		r := e.pivRow[k]
		t := v[r]
		for s := e.start[k]; s < e.start[k+1]; s++ {
			t -= e.val[s] * v[e.idx[s]]
		}
		v[r] = t * e.pivInv[k]
	}
}

// btranSparse is btran for a v that is zero outside the rows marked in the
// row bitset nz, as the unit vector of a leaving row is.  An eta none of
// whose off-pivot rows is marked reads only zeros in btran's dot, so its dot
// is skipped and its pivot entry only scaled, or left at zero when unmarked;
// each eta whose dot runs marks its pivot row.  The hit test ANDs an eta's
// row bitset with nz only at nz's nonzero words, listed in nzWords as the
// pass marks them.  For finite etas the result equals btran's bit for bit,
// up to the sign of zero entries, and every row outside nz still holds +0.
func (e *etaFile) btranSparse(v []float64, nz []uint64) {
	w := e.words
	list := e.nzWords[:0]
	for i, b := range nz {
		if b != 0 {
			list = append(list, int32(i))
		}
	}
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		r := e.pivRow[k]
		bits := e.rowBits[k*w : k*w+w]
		hit := false
		for _, i := range list {
			if bits[i]&nz[i] != 0 {
				hit = true
				break
			}
		}
		if !hit {
			if nz[r>>6]&(1<<(r&63)) != 0 {
				v[r] *= e.pivInv[k]
			}
			continue
		}
		t := v[r]
		for s := e.start[k]; s < e.start[k+1]; s++ {
			t -= e.val[s] * v[e.idx[s]]
		}
		v[r] = t * e.pivInv[k]
		if nz[r>>6] == 0 {
			list = append(list, r>>6)
		}
		nz[r>>6] |= 1 << (r & 63)
	}
}
