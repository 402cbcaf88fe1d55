package lp

// cscMatrix is a Problem's constraint matrix in compressed sparse column
// form, restricted to the structural variable columns and normalised so that
// every right-hand side is non-negative (rows with a negative RHS are
// multiplied by -1 and their sense flipped, exactly as the flat solver's
// load does).  Slack and artificial columns are not materialised: they are
// singletons whose row and sign follow from the per-row effective sense, and
// the revised solver handles them symbolically.
//
// The matrix is built once per Problem (see Problem.csc) and is strictly
// read-only during solves, so concurrent solves of one problem can share it.
type cscMatrix struct {
	rows, cols int

	// colPtr has cols+1 entries; column j's nonzeros are
	// rowIdx/val[colPtr[j]:colPtr[j+1]], ordered by increasing row.
	colPtr []int32
	rowIdx []int32
	val    []float64

	// The transposed (CSR) view of the same entries: row i's nonzeros are
	// colIdxR/valR[rowPtr[i]:rowPtr[i+1]], ordered by increasing column.
	// The steepest-edge engine reads pivot rows through it: the pivot row of
	// the tableau is a combination of the A-rows in the BTRAN'd unit
	// vector's support, so its assembly costs only those rows' nonzeros.
	rowPtr  []int32
	colIdxR []int32
	valR    []float64

	// sense[i] is row i's effective sense after sign normalisation and b[i]
	// its normalised (non-negative) right-hand side.
	sense []Sense
	b     []float64

	// crashCol[i] is the structural column the BasisLU engine starts basic
	// in row i instead of an artificial (see revisedSolver.load), or -1.  It
	// is set for EQ and GE rows only: the lowest-index column whose single
	// nonzero is exactly +1 in row i.  Such a column is the row's unit
	// vector, so the crash basis stays the identity.
	crashCol []int32

	// triCol[i] is the structural column the BasisLU engine's cold start
	// installs in row i by its second, triangular crash pass (see
	// revisedSolver.crashTriangular), or -1; triRows counts the rows that
	// have one.  Only = rows with b_i = 0 and no crashCol get one: in row
	// order, each takes the lowest-index column that is not basic yet, has
	// a ±1 entry in the row and has no entry in a row claimed before it.
	// The claimed columns form a lower triangular block with a ±1 diagonal
	// beside the singleton basics, so the crashed basis is nonsingular, and
	// since every claimed row's b_i is 0 each claimed column is basic at
	// exactly 0.
	triCol  []int32
	triRows int
}

// buildCSC assembles the CSC form of p's constraint matrix.  Cost is
// O(nonzeros + rows + cols): one counting pass and one fill pass.
func buildCSC(p *Problem) *cscMatrix {
	rows := p.NumConstraints()
	cols := p.NumVars()
	m := &cscMatrix{
		rows:   rows,
		cols:   cols,
		colPtr: make([]int32, cols+1),
		rowIdx: make([]int32, p.NumNonzeros()),
		val:    make([]float64, p.NumNonzeros()),
		sense:  make([]Sense, rows),
		b:      make([]float64, rows),
	}
	for i := 0; i < rows; i++ {
		c := p.Constraint(i)
		m.sense[i] = effectiveSense(c)
		if c.RHS < 0 {
			m.b[i] = -c.RHS
		} else {
			m.b[i] = c.RHS
		}
		for _, co := range c.Coeffs {
			m.colPtr[co.Var+1]++
		}
	}
	for j := 0; j < cols; j++ {
		m.colPtr[j+1] += m.colPtr[j]
	}
	// Fill pass: advancing per-column cursors kept inside colPtr would lose
	// the offsets, so use a scratch cursor slice.  Iterating rows in order
	// leaves every column's entries sorted by row.
	next := make([]int32, cols)
	copy(next, m.colPtr[:cols])
	for i := 0; i < rows; i++ {
		c := p.Constraint(i)
		sign := 1.0
		if c.RHS < 0 {
			sign = -1.0
		}
		for _, co := range c.Coeffs {
			at := next[co.Var]
			m.rowIdx[at] = int32(i)
			m.val[at] = sign * co.Value
			next[co.Var] = at + 1
		}
	}

	// CSR view: count, prefix-sum, and fill by sweeping the columns in
	// order, which leaves every row's entries sorted by column.
	m.rowPtr = make([]int32, rows+1)
	m.colIdxR = make([]int32, len(m.rowIdx))
	m.valR = make([]float64, len(m.val))
	for _, i := range m.rowIdx {
		m.rowPtr[i+1]++
	}
	for i := 0; i < rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	nextRow := make([]int32, rows)
	copy(nextRow, m.rowPtr[:rows])
	for j := 0; j < cols; j++ {
		for s := m.colPtr[j]; s < m.colPtr[j+1]; s++ {
			i := m.rowIdx[s]
			at := nextRow[i]
			m.colIdxR[at] = int32(j)
			m.valR[at] = m.val[s]
			nextRow[i] = at + 1
		}
	}

	// Crash columns: a descending sweep leaves each row with its
	// lowest-index unit column singleton.
	m.crashCol = make([]int32, rows)
	m.triCol = make([]int32, rows)
	for i := range m.crashCol {
		m.crashCol[i] = -1
		m.triCol[i] = -1
	}
	for j := cols - 1; j >= 0; j-- {
		s := m.colPtr[j]
		if m.colPtr[j+1]-s != 1 || m.val[s] != 1 {
			continue
		}
		if i := m.rowIdx[s]; m.sense[i] != LE {
			m.crashCol[i] = int32(j)
		}
	}

	// Triangular crash columns, claimed row by row.  The fill cursors are
	// free again: basic[j] != 0 marks column j basic after either pass.
	basic := next
	clear(basic)
	for _, j := range m.crashCol {
		if j >= 0 {
			basic[j] = 1
		}
	}
	for i := 0; i < rows; i++ {
		if m.sense[i] != EQ || m.b[i] != 0 || m.crashCol[i] >= 0 {
			continue
		}
	scan:
		for s := m.rowPtr[i]; s < m.rowPtr[i+1]; s++ {
			j := m.colIdxR[s]
			if v := m.valR[s]; (v != 1 && v != -1) || basic[j] != 0 {
				continue
			}
			for t := m.colPtr[j]; t < m.colPtr[j+1]; t++ {
				if m.triCol[m.rowIdx[t]] >= 0 {
					continue scan
				}
			}
			m.triCol[i] = j
			m.triRows++
			basic[j] = 1
			break
		}
	}
	return m
}

// colDot returns v · A_j for structural column j.
func (m *cscMatrix) colDot(v []float64, j int) float64 {
	dot := 0.0
	for s := m.colPtr[j]; s < m.colPtr[j+1]; s++ {
		dot += m.val[s] * v[m.rowIdx[s]]
	}
	return dot
}

// scatterCol adds structural column j into the dense vector out and marks
// its rows in the row bitset nz.
func (m *cscMatrix) scatterCol(j int, out []float64, nz []uint64) {
	for s := m.colPtr[j]; s < m.colPtr[j+1]; s++ {
		i := m.rowIdx[s]
		out[i] += m.val[s]
		nz[i>>6] |= 1 << (i & 63)
	}
}
