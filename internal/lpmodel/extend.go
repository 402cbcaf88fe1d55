package lpmodel

import (
	"errors"
	"fmt"
	"sort"

	"pfcache/internal/core"
	"pfcache/internal/lp"
)

// ErrExtendRebuild reports that a trace extension is not expressible as an
// in-place append: the request names a block the built program has never
// seen (or the synthetic dummy block), so the interval and variable
// layout would have to change retroactively.  Callers handle it by rebuilding
// the model from the extended instance and solving cold — the two paths
// produce the same optimum, Extend is purely an acceleration.
var ErrExtendRebuild = errors.New("lpmodel: extension requires a rebuild")

// Extend appends the given requests to the model's instance and grows the
// linear program in place: new fetch intervals ending at each new request,
// their variables and per-interval rows, coefficient extensions of the
// boundary and trailing-eviction rows the new intervals fall into, and for
// each re-reference the fetch columns of the gap it closes and that gap's
// balance row.  Every pre-existing row keeps its index, sense and old-column
// coefficients, so a warm basis captured from the pre-extension solve
// transplants onto the grown program (lp.Solver.SolveFrom) and the next solve
// re-optimises in a handful of dual pivots instead of from scratch (see
// SolveIncremental).
//
// The extended program is equivalent to Build of the extended instance: same
// variables and constraints up to ordering, hence the same optimal value and
// the same per-interval optimum.  Extend mutates m.In.Seq.
//
// Requests must name blocks the program already knows (referenced or
// initially cached); anything else fails with ErrExtendRebuild before any
// mutation.
func (m *Model) Extend(reqs ...core.BlockID) error {
	for _, b := range reqs {
		if !b.Valid() || m.blockPos(b) < 0 {
			return fmt.Errorf("lpmodel: request for unknown block %v: %w", b, ErrExtendRebuild)
		}
	}
	for _, b := range reqs {
		m.extendOne(b, m.blockPos(b))
	}
	return nil
}

// SolveIncremental re-solves the extended program warm: the dual simplex
// re-optimises from the previous optimal basis (new rows enter with their
// crash slacks, old rows keep their basic columns), falling back to a cold
// primal solve whenever the basis does not transfer or the re-optimisation
// fails to certify.  The result is an optimum of the current program, like
// SolveWith's, reached by a shorter path; on a degenerate program it may be
// another optimal vertex than a cold solve's.
func (m *Model) SolveIncremental(s *lp.Solver, opts lp.Options) (*Fractional, error) {
	return m.solveFrom(s, opts, m.warm)
}

// blockPos returns the position of block b in m.Blocks, or -1 when b is not
// one of the instance's real blocks (the dummy is excluded: a request for it
// would change its never-referenced role).  m.Blocks is ascending — the
// instance's sorted block set followed by the strictly larger dummy ID — so
// the lookup is a binary search.
func (m *Model) blockPos(b core.BlockID) int {
	real := len(m.Blocks)
	if m.DummyCopies > 0 {
		real--
	}
	i := sort.Search(real, func(i int) bool { return m.Blocks[i] >= b })
	if i < real && m.Blocks[i] == b {
		return i
	}
	return -1
}

// extendOne grows the program by the single request for block b (position bi
// in m.Blocks).  With n requests already present the new request is number
// n+1, and the cold build of the extended trace differs from the current
// program by exactly:
//
//   - the intervals (s, n+1) for s in [max(0, n-F), n] — every other
//     interval has End <= n and was already enumerated;
//   - their x / evict / scratch variables, fetch variables for b alone (the
//     new intervals lie in every other block's trailing gap) and their
//     per-interval rows;
//   - x(s, n+1) entering the boundary rows q = s+1 .. n (q = n is new);
//   - evict(I, b') entering each block's trailing "evicted at most once"
//     row for the new intervals I inside that block's trailing gap;
//   - for b itself, the trailing gap (lastRef, n+1) closing into a full
//     fetch/evict gap balance: the gap's old intervals gain the fetch
//     columns of b that a trailing gap lacks, each entering its interval's
//     disk row and fetch/evict row, the gap's eviction row is the trailing
//     row just extended, and the balance equality over the whole gap is
//     appended.
//
// New coefficients in old rows only name new variables, the contract lp's
// warm dual path relies on.  The old basis keeps every old column's reduced
// cost, but a re-opened fetch column of b may price below zero; the dual
// path's primal clean-up prices it in.
func (m *Model) extendOne(b core.BlockID, bi int) {
	n := m.In.N()
	prob := m.Problem
	m.In.Seq = append(m.In.Seq, b)
	m.ix.Append(b)

	// New intervals, registered per start for gapIntervals.
	loS := n - m.In.F
	if loS < 0 {
		loS = 0
	}
	firstNew := len(m.Intervals)
	for s := loS; s <= n; s++ {
		idx := len(m.Intervals)
		iv := Interval{Start: s, End: n + 1}
		m.Intervals = append(m.Intervals, iv)
		for len(m.extStart) <= s {
			m.extStart = append(m.extStart, nil)
		}
		m.extStart[s] = append(m.extStart[s], int32(idx))
		m.xVar = append(m.xVar, prob.AddVariable(float64(iv.Stall(m.In.F))))
	}
	for idx := firstNew; idx < len(m.Intervals); idx++ {
		base := len(m.fVar)
		for range m.Blocks {
			m.fVar = append(m.fVar, noVar)
			m.eVar = append(m.eVar, noVar)
		}
		m.addBlockColumns(base, m.Intervals[idx])
	}
	for idx := firstNew; idx < len(m.Intervals); idx++ {
		for d := 0; d < m.In.Disks; d++ {
			m.sVar = append(m.sVar, prob.AddVariable(0))
		}
	}

	// Boundary rows: interval (s, n+1) spans q for q in s+1 .. n.  The rows
	// for q <= n-1 exist whenever a new interval spans them (any spanning
	// interval forces F >= 1, and with F >= 1 the build emitted every
	// boundary row); q = n is this extension's new boundary.
	coeffs := m.coefBuf
	for q := loS + 1; q <= n-1; q++ {
		coeffs = coeffs[:0]
		for idx := firstNew; idx < len(m.Intervals); idx++ {
			if m.Intervals[idx].Start <= q-1 {
				coeffs = append(coeffs, lp.Coef{Var: m.xVar[idx], Value: 1})
			}
		}
		if len(coeffs) == 0 {
			continue
		}
		if row := m.boundaryRow[q]; row >= 0 {
			prob.ExtendConstraint(row, coeffs)
		} else {
			m.boundaryRow[q] = prob.AddConstraint(coeffs, lp.LE, 1)
		}
	}
	coeffs = coeffs[:0]
	for idx := firstNew; idx < len(m.Intervals); idx++ {
		if m.Intervals[idx].Start <= n-1 {
			coeffs = append(coeffs, lp.Coef{Var: m.xVar[idx], Value: 1})
		}
	}
	row := -1
	if len(coeffs) > 0 {
		row = prob.AddConstraint(coeffs, lp.LE, 1)
	}
	m.boundaryRow = append(m.boundaryRow, row)
	m.coefBuf = coeffs

	for idx := firstNew; idx < len(m.Intervals); idx++ {
		m.addIntervalRows(idx)
	}

	// Every other block's trailing gap now also contains the new intervals
	// past its last reference: its "evicted at most once" row gains their
	// eviction variables (or appears, when the old trailing gap was empty).
	for bj, b2 := range m.Blocks {
		if bj == bi {
			continue
		}
		if m.lastRef[bj] == 0 && !m.initial[b2] {
			continue // never referenced and not cached: no rows to maintain
		}
		ec := m.coefBuf[:0]
		for idx := firstNew; idx < len(m.Intervals); idx++ {
			if m.Intervals[idx].Start < m.lastRef[bj] {
				continue
			}
			if v := m.evictVar(idx, bj); v != noVar {
				ec = append(ec, lp.Coef{Var: v, Value: 1})
			}
		}
		if len(ec) > 0 {
			if row := m.tailRow[bj]; row >= 0 {
				prob.ExtendConstraint(row, ec)
			} else {
				m.tailRow[bj] = prob.AddConstraint(ec, lp.LE, m.evictCap(bj))
			}
		}
		m.coefBuf = ec
	}

	// The requested block's trailing gap closes into a proper gap balance.
	// Its old intervals, which lacked b's fetch columns, gain them in their
	// disk row and fetch/evict row; the trailing eviction row, extended with
	// the new intervals, becomes the gap's "evicted at most once" half; and
	// the fetch/evict equality over the whole gap (old and new intervals)
	// is appended.  This is also the first-reference path for an initially
	// cached block: its trailing gap is (0, n+1) and the same columns and
	// rows are what Build would emit.
	lo := m.lastRef[bi]
	disk := m.blockDisk(b)
	for _, idx := range m.gapIntervals(lo, n) {
		v := prob.AddVariable(0)
		m.fVar[idx*len(m.Blocks)+bi] = v
		fc := append(m.coefBuf[:0], lp.Coef{Var: v, Value: 1})
		prob.ExtendConstraint(m.firstRow[idx]+disk, fc)
		prob.ExtendConstraint(m.firstRow[idx]+m.In.Disks, fc)
		m.coefBuf = fc
	}
	ec := m.coefBuf[:0]
	for idx := firstNew; idx < len(m.Intervals); idx++ {
		if m.Intervals[idx].Start < lo {
			continue
		}
		if v := m.evictVar(idx, bi); v != noVar {
			ec = append(ec, lp.Coef{Var: v, Value: 1})
		}
	}
	if len(ec) > 0 {
		if row := m.tailRow[bi]; row >= 0 {
			prob.ExtendConstraint(row, ec)
		} else {
			prob.AddConstraint(ec, lp.LE, 1)
		}
	}
	m.coefBuf = ec
	balance := m.coefBuf2[:0]
	for _, idx := range m.gapIntervals(lo, n+1) {
		if v := m.fetchVar(idx, bi); v != noVar {
			balance = append(balance, lp.Coef{Var: v, Value: 1})
		}
		if v := m.evictVar(idx, bi); v != noVar {
			balance = append(balance, lp.Coef{Var: v, Value: -1})
		}
	}
	if len(balance) > 0 {
		prob.AddConstraint(balance, lp.EQ, 0)
	}
	m.coefBuf2 = balance
	m.lastRef[bi] = n + 1
	m.tailRow[bi] = -1
}
