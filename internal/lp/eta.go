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
// With the initial basis being the identity (slacks, artificials and the
// crash start's unit columns) or a fresh refactorization, the basis inverse
// is E_k^-1 ... E_1^-1 applied oldest-first (ftran) and its transpose
// applied newest-first (btran).
type etaFile struct {
	pivRow []int32
	pivInv []float64 // 1/alpha_r per eta
	start  []int32   // len(pivRow)+1 offsets into idx/val
	idx    []int32   // off-pivot row indices
	val    []float64 // off-pivot alpha values

	// rowBits holds, on the BasisLU path only, one bitset of words uint64s
	// per eta marking its off-pivot rows (revisedSolver.pivot writes it),
	// so btranUnit can tell which etas cannot read a sparse vector's
	// nonzeros.  The BasisEta reinversion leaves it empty.
	rowBits []uint64
	words   int
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

// nonzeros returns the total number of stored off-pivot entries, the quantity
// ftran/btran cost is proportional to.
func (e *etaFile) nonzeros() int { return len(e.idx) }

// push appends the eta column of a pivot on row r with FTRAN'd entering
// column alpha.  allocs counts backing-array growth so solver reuse remains
// observable in Solution.TableauAllocs.
func (e *etaFile) push(alpha []float64, r int, allocs *int) {
	if len(e.pivRow) == cap(e.pivRow) {
		*allocs++
	}
	e.pivRow = append(e.pivRow, int32(r))
	e.pivInv = append(e.pivInv, 1/alpha[r])
	for i, v := range alpha {
		if i == r || (v < etaDrop && v > -etaDrop) {
			continue
		}
		if len(e.idx) == cap(e.idx) {
			*allocs++
		}
		e.idx = append(e.idx, int32(i))
		e.val = append(e.val, v)
	}
	e.start = append(e.start, int32(len(e.idx)))
}

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

// ftran applies the basis inverse to v in place: each eta, oldest first,
// scales its pivot row and subtracts the off-pivot column.  Etas whose pivot
// entry of v is zero are skipped entirely, which keeps FTRANs of sparse
// columns cheap early in the eta file.
func (e *etaFile) ftran(v []float64) {
	for k := range e.pivRow {
		r := e.pivRow[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t *= e.pivInv[k]
		v[r] = t
		for s := e.start[k]; s < e.start[k+1]; s++ {
			v[e.idx[s]] -= e.val[s] * t
		}
	}
}

// btran applies the transposed basis inverse to v in place: each eta, newest
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

// btranUnit is btran for v = e_row on a file whose rowBits are written
// (the update etas of the BasisLU path).  It keeps nz, the rows where v may
// be nonzero, starting with row; an eta none of whose off-pivot rows is in
// nz reads only zeros in btran's dot, so its dot is skipped and its pivot
// entry only scaled, and each eta whose dot turns its pivot entry nonzero
// adds that row to nz.  For finite etas the result equals btran's bit for
// bit, up to the sign of zero entries.  nz is scratch capacity, returned
// for reuse.
func (e *etaFile) btranUnit(v []float64, row int, nz []int32) []int32 {
	nz = append(nz[:0], int32(row))
	w := e.words
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		r := e.pivRow[k]
		bits := e.rowBits[k*w : k*w+w]
		hit := false
		for _, i := range nz {
			if bits[i>>6]&(1<<(i&63)) != 0 {
				hit = true
				break
			}
		}
		if !hit {
			v[r] *= e.pivInv[k]
			continue
		}
		t := v[r]
		for s := e.start[k]; s < e.start[k+1]; s++ {
			t -= e.val[s] * v[e.idx[s]]
		}
		if v[r] == 0 && t != 0 {
			nz = append(nz, r)
		}
		v[r] = t * e.pivInv[k]
	}
	return nz
}
