package lpmodel

import (
	"fmt"

	"pfcache/internal/core"
	"pfcache/internal/lp"
)

// Interval is a fetch interval (i, j) in the paper's notation: a fetch that
// starts after request r_i and completes before request r_j, overlapping the
// service of the j-i-1 requests in between.  Start and End use the paper's
// 1-based request numbers, so Start ranges over 0..n-1 and End over 1..n with
// Start < End and End-Start-1 <= F.
type Interval struct {
	Start int
	End   int
}

// Length is the number of requests served during the fetch, |I| = End-Start-1.
func (iv Interval) Length() int { return iv.End - iv.Start - 1 }

// Stall is the stall time charged at the end of the interval, F - |I|.
func (iv Interval) Stall(f int) int { return f - iv.Length() }

// ContainsRequest reports whether the 1-based request number q lies strictly
// inside the interval.
func (iv Interval) ContainsRequest(q int) bool { return iv.Start < q && q < iv.End }

// String renders the interval.
func (iv Interval) String() string { return fmt.Sprintf("(%d,%d)", iv.Start, iv.End) }

// noVar marks an (interval, block) pair without a fetch/eviction variable.
const noVar = -1

// Model is the synchronized-schedule linear program for one instance.
type Model struct {
	// In is the original instance.
	In *core.Instance
	// Intervals enumerates every candidate fetch interval.
	Intervals []Interval
	// Dummies are the never-requested blocks added (on disk 0) to fill the
	// initial cache to k+D-1 locations, as in the paper's S_init.
	Dummies []core.BlockID
	// Blocks is every block of the program: the instance's blocks plus the
	// dummies.
	Blocks []core.BlockID
	// Problem is the LP relaxation.
	Problem *lp.Problem

	// Variable lookup is flat and index-based: intervals are numbered by
	// position in Intervals, blocks by position in Blocks, so the dense maps
	// of the earlier implementation become slice lookups.
	xVar []int // interval -> x(I) variable
	fVar []int // interval*len(Blocks)+blockPos -> fetch variable or noVar
	eVar []int // interval*len(Blocks)+blockPos -> eviction variable or noVar
	sVar []int // interval*Disks+disk -> scratch fetch variable

	ix      *core.Index
	initial map[core.BlockID]bool

	// Constraint-assembly scratch, reused across every constraint of a build
	// and across builds (BuildInto): AddConstraint copies coefficients into
	// the Problem's own arena, so these can be recycled immediately.
	coefBuf  []lp.Coef
	coefBuf2 []lp.Coef
	refBuf   []int

	// startOff[s] is the index in Intervals of the first interval with
	// Start == s (startOff has n+1 entries; the enumeration in Build is
	// start-major, so the intervals starting at s are the contiguous run
	// Intervals[startOff[s]:startOff[s+1]], ordered by increasing End).
	// gapIntervals answers every (lo, hi) query from these offsets.
	startOff []int

	gapBuf []int // scratch for gapIntervals

	// Trace-extension bookkeeping (see extend.go).  Build records, per block
	// position, the 1-based request number of the block's last reference
	// (0 = never referenced) and the index of its trailing "evicted at most
	// once" row (-1 when the build emitted none), plus per boundary q the
	// index of its "at most one interval spans q" row.  Extensions append
	// intervals outside the start-major runs startOff describes; extStart[s]
	// lists them per start, ordered by increasing End, so gapIntervals stays
	// exact on an extended model.
	lastRef     []int
	tailRow     []int
	boundaryRow []int
	extStart    [][]int32

	// warm is the optimal basis of this model's last SolveWith or
	// SolveIncremental, the start of the next SolveIncremental.  No other
	// solve reads it.
	warm *lp.WarmBasis

	// tied records a TieBreakObjective since the last build: a solve then
	// reports the unperturbed objective as its bound (see fractional).
	tied bool
}

// Fractional is an optimal solution of the LP relaxation.
type Fractional struct {
	// X is the value of x(I) for every interval (indexed like Model.Intervals).
	X []float64
	// Objective is the optimal objective value: a lower bound on the optimal
	// stall time sOPT(sigma, k).
	Objective float64
	// Iterations is the number of simplex pivots used.
	Iterations int
	// Integral reports whether every x(I) is within tolerance of 0 or 1.
	Integral bool
	// Downgrades is the number of self-healing cascade rungs the solve
	// abandoned before this solution verified (0 without lp.Options.Cascade,
	// and 0 when the configured engines' own result passed verification).
	// It never appears on the wire: a recovered solve is byte-identical to a
	// clean one, and the counter exists so the service can taint the shard
	// solver that needed recovering.
	Downgrades int
}

// Build constructs the linear program of Section 3 for the instance.
func Build(in *core.Instance) (*Model, error) {
	m := &Model{}
	if err := BuildInto(m, in); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildInto rebuilds m as the linear program of Section 3 for the instance,
// reusing every buffer m already owns: the interval/block/variable tables,
// the start-bucketed interval offsets, the constraint-assembly scratch and
// the Problem itself (reset in place, keeping its coefficient arena).  A
// model cycled through BuildInto across the rows of a sweep performs no
// steady-state allocations beyond the per-instance block index.
//
// BuildInto leaves m exactly as Build would: in particular the basis of the
// previous program's last solve is dropped.
func BuildInto(m *Model, in *core.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	n := in.N()
	if n == 0 {
		return fmt.Errorf("lpmodel: empty request sequence")
	}
	m.In = in
	m.ix = core.NewIndex(in.Seq)
	if m.initial == nil {
		m.initial = make(map[core.BlockID]bool)
	} else {
		clear(m.initial)
	}
	m.Dummies = m.Dummies[:0]
	m.Blocks = m.Blocks[:0]
	m.Intervals = m.Intervals[:0]
	m.warm = nil
	m.tied = false
	for _, b := range in.InitialCache {
		m.initial[b] = true
	}

	// Dummy blocks on disk 0 fill the initial cache to k + D - 1 locations.
	nextID := in.Seq.MaxBlock() + 1
	for _, b := range in.InitialCache {
		if b >= nextID {
			nextID = b + 1
		}
	}
	need := in.K + in.Disks - 1 - len(in.InitialCache)
	for i := 0; i < need; i++ {
		d := nextID + core.BlockID(i)
		m.Dummies = append(m.Dummies, d)
		m.initial[d] = true
	}
	m.Blocks = append(m.Blocks, in.Blocks()...)
	m.Blocks = append(m.Blocks, m.Dummies...)

	// Enumerate intervals: Start in [0, n-1], End in [Start+1, min(n, Start+F+1)].
	if cap(m.startOff) < n+1 {
		m.startOff = make([]int, n+1)
	} else {
		m.startOff = m.startOff[:n+1]
	}
	for i := 0; i < n; i++ {
		m.startOff[i] = len(m.Intervals)
		for j := i + 1; j <= n && j-i-1 <= in.F; j++ {
			m.Intervals = append(m.Intervals, Interval{Start: i, End: j})
		}
	}
	m.startOff[n] = len(m.Intervals)
	m.extStart = m.extStart[:cap(m.extStart)]
	for i := range m.extStart {
		m.extStart[i] = m.extStart[i][:0]
	}
	m.extStart = m.extStart[:0]

	prob := m.Problem
	if prob == nil {
		prob = lp.NewProblem(0)
		m.Problem = prob
	} else {
		prob.Reset(0)
	}
	m.xVar = resizeInts(m.xVar, len(m.Intervals))
	for idx, iv := range m.Intervals {
		m.xVar[idx] = prob.AddVariable(float64(iv.Stall(in.F)))
	}
	// Fetch and eviction variables exist only for (interval, block) pairs
	// where the block is not referenced strictly inside the interval (the
	// paper's constraint that a block may not be fetched or evicted while it
	// is being referenced).
	m.fVar = resizeInts(m.fVar, len(m.Intervals)*len(m.Blocks))
	m.eVar = resizeInts(m.eVar, len(m.Intervals)*len(m.Blocks))
	for idx, iv := range m.Intervals {
		base := idx * len(m.Blocks)
		for bi, b := range m.Blocks {
			if m.blockReferencedInside(b, iv) {
				m.fVar[base+bi] = noVar
				m.eVar[base+bi] = noVar
				continue
			}
			m.fVar[base+bi] = prob.AddVariable(0)
			m.eVar[base+bi] = prob.AddVariable(0)
		}
	}
	// Scratch variables implement the idle-disk fetches of Lemma 3: a disk
	// that has nothing useful to fetch during a synchronized interval loads
	// an arbitrary block into an extra cache location and discards it when
	// the interval ends.  A scratch fetch therefore counts towards the
	// disk's fetch balance but needs no eviction and affects no block's
	// presence constraints.
	m.sVar = resizeInts(m.sVar, len(m.Intervals)*in.Disks)
	for idx := range m.Intervals {
		for d := 0; d < in.Disks; d++ {
			m.sVar[idx*in.Disks+d] = prob.AddVariable(0)
		}
	}

	m.boundaryRow = resizeInts(m.boundaryRow, n)
	m.lastRef = resizeInts(m.lastRef, len(m.Blocks))
	m.tailRow = resizeInts(m.tailRow, len(m.Blocks))
	m.addBoundaryConstraints()
	m.addPerIntervalConstraints()
	m.addBlockFlowConstraints()
	return nil
}

// resizeInts returns buf with length n, reallocating only when capacity is
// short (contents are fully overwritten by the callers).
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// fetchVar returns the fetch variable of (interval idx, block position bi),
// or noVar when the pair has none.
func (m *Model) fetchVar(idx, bi int) int { return m.fVar[idx*len(m.Blocks)+bi] }

// evictVar returns the eviction variable of (interval idx, block position
// bi), or noVar when the pair has none.
func (m *Model) evictVar(idx, bi int) int { return m.eVar[idx*len(m.Blocks)+bi] }

// blockDisk returns the disk a block resides on; dummy blocks live on disk 0.
func (m *Model) blockDisk(b core.BlockID) int {
	for _, d := range m.Dummies {
		if d == b {
			return 0
		}
	}
	return m.In.Disk(b)
}

// blockReferencedInside reports whether block b has a reference strictly
// inside interval iv.
func (m *Model) blockReferencedInside(b core.BlockID, iv Interval) bool {
	// References use 1-based request numbers: position p is request p+1.
	pos := m.ix.NextAt(b, iv.Start) // first reference at 0-based position >= Start
	if pos == core.NoRef {
		return false
	}
	q := pos + 1
	return iv.ContainsRequest(q)
}

// addBoundaryConstraints adds, for every request boundary q in [1, n-1], the
// constraint that at most one interval spans it.  An interval (s, e) spans q
// when s <= q-1 and e >= q+1; per start s the spanning intervals are a
// suffix of the End-sorted run startOff[s]:startOff[s+1], so each boundary
// is assembled from the offsets without scanning the interval list.
func (m *Model) addBoundaryConstraints() {
	n := m.In.N()
	coeffs := m.coefBuf
	m.boundaryRow[0] = -1
	for q := 1; q <= n-1; q++ {
		coeffs = coeffs[:0]
		lo := q - m.In.F // smallest start whose run (End <= s+F+1) reaches End >= q+1
		if lo < 0 {
			lo = 0
		}
		for s := lo; s <= q-1; s++ {
			base := m.startOff[s]
			run := m.startOff[s+1] - base
			skip := q - s // run entries with End in s+1 .. q do not span q
			for t := skip; t < run; t++ {
				coeffs = append(coeffs, lp.Coef{Var: m.xVar[base+t], Value: 1})
			}
		}
		m.boundaryRow[q] = -1
		if len(coeffs) > 0 {
			m.boundaryRow[q] = m.Problem.AddConstraint(coeffs, lp.LE, 1)
		}
	}
	m.coefBuf = coeffs
}

// addPerIntervalConstraints adds, for every interval, the per-disk fetch
// balance (every disk fetches exactly x(I)) and the fetch/evict balance.
func (m *Model) addPerIntervalConstraints() {
	for idx := range m.Intervals {
		m.addIntervalRows(idx)
	}
}

// addIntervalRows adds the per-disk fetch balance and the fetch/evict balance
// of the single interval idx; it is shared by the full build and the
// trace-extension path, which appends these rows for each new interval.
func (m *Model) addIntervalRows(idx int) {
	x := m.xVar[idx]
	for d := 0; d < m.In.Disks; d++ {
		coeffs := append(m.coefBuf[:0],
			lp.Coef{Var: x, Value: -1}, lp.Coef{Var: m.sVar[idx*m.In.Disks+d], Value: 1})
		for bi, b := range m.Blocks {
			if m.blockDisk(b) != d {
				continue
			}
			if v := m.fetchVar(idx, bi); v != noVar {
				coeffs = append(coeffs, lp.Coef{Var: v, Value: 1})
			}
		}
		m.Problem.AddConstraint(coeffs, lp.EQ, 0)
		m.coefBuf = coeffs
	}
	coeffs := m.coefBuf[:0]
	for bi := range m.Blocks {
		if v := m.fetchVar(idx, bi); v != noVar {
			coeffs = append(coeffs, lp.Coef{Var: v, Value: 1})
		}
		if v := m.evictVar(idx, bi); v != noVar {
			coeffs = append(coeffs, lp.Coef{Var: v, Value: -1})
		}
	}
	m.Problem.AddConstraint(coeffs, lp.EQ, 0)
	m.coefBuf = coeffs
}

// gapIntervals returns the indices of intervals fully contained in the open
// request-number gap (lo, hi): Start >= lo and End <= hi.  The returned
// slice is valid until the next call.
//
// The intervals starting at s are the contiguous, End-sorted index run
// startOff[s]:startOff[s+1] with End covering s+1 .. s+(run length), so the
// matches per start are a prefix of the run whose length is arithmetic — no
// interval is ever inspected and rejected, making the whole query
// output-sensitive: O(hi-lo + matches) instead of a scan of all intervals.
func (m *Model) gapIntervals(lo, hi int) []int {
	out := m.gapBuf[:0]
	n := m.In.N()
	n0 := len(m.startOff) - 1 // starts covered by the build-time runs
	if lo < 0 {
		lo = 0
	}
	for s := lo; s < n && s < hi; s++ {
		if s < n0 {
			base := m.startOff[s]
			count := hi - s // intervals with End in s+1 .. hi
			if run := m.startOff[s+1] - base; count > run {
				count = run
			}
			for t := 0; t < count; t++ {
				out = append(out, base+t)
			}
		}
		if s >= len(m.extStart) {
			continue
		}
		// Extension intervals starting at s, End-ascending like the runs.
		for _, idx := range m.extStart[s] {
			if m.Intervals[idx].End > hi {
				break
			}
			out = append(out, int(idx))
		}
	}
	m.gapBuf = out
	return out
}

// addBlockFlowConstraints adds the per-block presence constraints: a block
// must be in cache whenever it is referenced, evictions between consecutive
// references are matched by re-fetches, and initially cached blocks (real or
// dummy) are evicted at most once before their next use.
func (m *Model) addBlockFlowConstraints() {
	n := m.In.N()
	for bi, b := range m.Blocks {
		occ := m.ix.Occurrences(b)
		m.lastRef[bi] = 0
		m.tailRow[bi] = -1
		if len(occ) == 0 {
			// Never-referenced block (a dummy or an unused initial block):
			// it may be evicted at most once over the whole sequence.
			if !m.initial[b] {
				continue
			}
			coeffs := m.coefBuf[:0]
			for _, idx := range m.gapIntervals(0, n) {
				if v := m.evictVar(idx, bi); v != noVar {
					coeffs = append(coeffs, lp.Coef{Var: v, Value: 1})
				}
			}
			if len(coeffs) > 0 {
				m.tailRow[bi] = m.Problem.AddConstraint(coeffs, lp.LE, 1)
			}
			m.coefBuf = coeffs
			continue
		}
		refs := resizeInts(m.refBuf, len(occ))
		m.refBuf = refs
		for i, p := range occ {
			refs[i] = p + 1 // 1-based request numbers
		}
		first := refs[0]
		if !m.initial[b] {
			// The block must be fetched, and not evicted, before its first
			// reference.
			fc := m.coefBuf[:0]
			ec := m.coefBuf2[:0]
			for _, idx := range m.gapIntervals(0, first) {
				if v := m.fetchVar(idx, bi); v != noVar {
					fc = append(fc, lp.Coef{Var: v, Value: 1})
				}
				if v := m.evictVar(idx, bi); v != noVar {
					ec = append(ec, lp.Coef{Var: v, Value: 1})
				}
			}
			m.Problem.AddConstraint(fc, lp.EQ, 1)
			if len(ec) > 0 {
				m.Problem.AddConstraint(ec, lp.EQ, 0)
			}
			m.coefBuf, m.coefBuf2 = fc, ec
		} else {
			// Initially cached: within the gap before the first reference the
			// block may be evicted and fetched back, at most once.
			m.addGapBalance(bi, 0, first)
		}
		for i := 0; i+1 < len(refs); i++ {
			m.addGapBalance(bi, refs[i], refs[i+1])
		}
		// After the last reference the block may be evicted at most once.
		m.lastRef[bi] = refs[len(refs)-1]
		coeffs := m.coefBuf[:0]
		for _, idx := range m.gapIntervals(refs[len(refs)-1], n) {
			if v := m.evictVar(idx, bi); v != noVar {
				coeffs = append(coeffs, lp.Coef{Var: v, Value: 1})
			}
		}
		if len(coeffs) > 0 {
			m.tailRow[bi] = m.Problem.AddConstraint(coeffs, lp.LE, 1)
		}
		m.coefBuf = coeffs
	}
}

// addGapBalance adds, for the block at position bi and the gap (lo, hi)
// between two of its references (or before its first reference when it
// starts in cache), the constraints sum f = sum e and sum e <= 1 over
// intervals inside the gap.
func (m *Model) addGapBalance(bi, lo, hi int) {
	balance := m.coefBuf[:0]
	evict := m.coefBuf2[:0]
	for _, idx := range m.gapIntervals(lo, hi) {
		if v := m.fetchVar(idx, bi); v != noVar {
			balance = append(balance, lp.Coef{Var: v, Value: 1})
		}
		if v := m.evictVar(idx, bi); v != noVar {
			balance = append(balance, lp.Coef{Var: v, Value: -1})
			evict = append(evict, lp.Coef{Var: v, Value: 1})
		}
	}
	if len(balance) > 0 {
		m.Problem.AddConstraint(balance, lp.EQ, 0)
	}
	if len(evict) > 0 {
		m.Problem.AddConstraint(evict, lp.LE, 1)
	}
	m.coefBuf, m.coefBuf2 = balance, evict
}

// Solve solves the LP relaxation and returns the fractional solution, using
// a pooled solver.
func (m *Model) Solve(opts lp.Options) (*Fractional, error) {
	return m.SolveWith(nil, opts)
}

// SolveWith solves the LP relaxation cold with the given reusable Solver
// (nil falls back to the package solver pool), so sweeps that solve many
// models of similar size can reuse one set of tableau buffers.  It keeps
// the optimal basis for a later SolveIncremental.
func (m *Model) SolveWith(s *lp.Solver, opts lp.Options) (*Fractional, error) {
	return m.solveFrom(s, opts, nil)
}

// solveFrom solves the LP relaxation from the given basis (nil: cold) and
// keeps the optimal basis in m.warm.
func (m *Model) solveFrom(s *lp.Solver, opts lp.Options, from *lp.WarmBasis) (*Fractional, error) {
	opts.CaptureBasis = true
	var sol *lp.Solution
	var err error
	if s != nil {
		sol, err = s.SolveFrom(m.Problem, opts, from)
	} else {
		sol, err = lp.SolveFrom(m.Problem, opts, from)
	}
	if err != nil {
		return nil, err
	}
	if sol.Basis != nil {
		m.warm = sol.Basis
	}
	return m.fractional(sol)
}

// fractional assembles the Fractional of a solve of m's program, failing
// when the solve did not end optimal.  On a tie-broken model the Objective
// is the unperturbed sum of stall(I)·x(I), not the solver's perturbed one.
func (m *Model) fractional(sol *lp.Solution) (*Fractional, error) {
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("lpmodel: LP relaxation ended with status %v", sol.Status)
	}
	frac := &Fractional{
		X:          make([]float64, len(m.Intervals)),
		Objective:  sol.Objective,
		Iterations: sol.Iterations,
		Integral:   true,
		Downgrades: sol.Downgrades,
	}
	if m.tied {
		// The perturbation only picks the vertex; the bound is the paper's
		// objective at it.
		frac.Objective = 0
		for idx, iv := range m.Intervals {
			frac.Objective += float64(iv.Stall(m.In.F)) * sol.X[m.xVar[idx]]
		}
	}
	const tol = 1e-6
	for idx := range m.Intervals {
		v := sol.X[m.xVar[idx]]
		if v < tol {
			v = 0
		}
		frac.X[idx] = v
		if v > tol && v < 1-tol {
			frac.Integral = false
		}
	}
	return frac, nil
}

// VariableCounts reports the number of interval, fetch and eviction variables
// in the program (useful for reporting and testing).
func (m *Model) VariableCounts() (x, f, e int) {
	x = len(m.xVar)
	for _, v := range m.fVar {
		if v != noVar {
			f++
		}
	}
	for _, v := range m.eVar {
		if v != noVar {
			e++
		}
	}
	return x, f, e
}
