package lp

import (
	"fmt"
	"math"
	"sync"
)

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraints have no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
	// StatusIterLimit means the iteration budget was exhausted.
	StatusIterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Method selects the simplex implementation.
type Method int

// Solve methods.
const (
	// MethodRevised (the default) is the revised simplex: the constraint
	// matrix stays in a read-only sparse column form, the basis inverse is a
	// sparse LU factorization with product-form update etas and periodic
	// refactorization, and every pivot costs time proportional to the
	// nonzeros it touches.
	MethodRevised Method = iota
	// MethodFlat is the PR-1 flat-tableau path with dense O(rows x cols)
	// Gauss-Jordan pivots, kept as a reference and numerical fallback.
	MethodFlat
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodRevised:
		return "revised"
	case MethodFlat:
		return "flat"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod resolves a method name ("revised" or "flat") as used by command
// line flags.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "revised":
		return MethodRevised, nil
	case "flat":
		return MethodFlat, nil
	default:
		return 0, fmt.Errorf("lp: unknown solve method %q (want revised or flat)", name)
	}
}

// BasisMethod names the revised simplex's basis representation.  There is
// one, BasisLU; the type and Options.Basis are kept, ignored, because the
// serving benchmark still sets them.
type BasisMethod int

// BasisLU factorizes the basis as a sparse LU with Markowitz pivoting and
// solves BTRAN/FTRAN against the triangular factors, appending product-form
// update etas between refactorizations (see lu.go).
const BasisLU BasisMethod = 0

// String names the basis representation.
func (b BasisMethod) String() string {
	if b == BasisLU {
		return "lu"
	}
	return fmt.Sprintf("basis(%d)", int(b))
}

// Options tunes the solver.  Four fields do something: Method,
// RefactorEvery, CaptureBasis and Stats; the rest are kept, ignored, because
// the serving benchmark still sets them.
type Options struct {
	// Method selects the simplex implementation; the zero value is
	// MethodRevised.
	Method Method
	// RefactorEvery bounds the update-eta growth of the revised method: after
	// this many pivots since the last refactorization the basis inverse is
	// rebuilt from scratch (0 means an automatic threshold based on the row
	// count).  Ignored by MethodFlat.
	RefactorEvery int
	// Pricing is ignored: the revised method always prices with steepest
	// edge, and MethodFlat with Dantzig's rule.  The field stays because the
	// serving benchmark sets it.
	Pricing Pricing
	// Basis is ignored: the revised method always keeps a sparse LU basis.
	// The field stays because the serving benchmark sets it.
	Basis BasisMethod
	// WarmStart is ignored: every solve without an explicit basis starts
	// cold, so its answer depends only on the problem.  The field stays
	// because the serving benchmark sets it; a warm start is asked for by
	// passing a basis to Solver.SolveFrom.
	WarmStart bool
	// CaptureBasis asks an optimal revised solve to snapshot its final basis
	// into Solution.Basis, for replay through Solver.SolveFrom.
	CaptureBasis bool
	// Cascade is ignored: every revised solve runs the verified cascade
	// (cascade.go).  The field stays because the serving benchmark sets it.
	Cascade bool
	// Stats is the sink the solve's work is counted in (see Counters); nil
	// leaves the solve uncounted.  Callers that report their own work — a
	// server's shards, one experiment sweep — each pass their own sink.
	Stats *Stats
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports how the solve ended.
	Status Status
	// X is the value of every problem variable (valid when Status is
	// StatusOptimal).
	X []float64
	// Objective is the objective value of X.
	Objective float64
	// Iterations is the total number of simplex pivots performed (both
	// phases).
	Iterations int
	// Phase1Iterations is the number of pivots spent finding a basic
	// feasible solution.
	Phase1Iterations int
	// BlandIterations is the number of pivots priced by Bland's rule, the
	// anti-cycling fallback after a run of degenerate pivots (included in
	// Iterations).
	BlandIterations int
	// PricingPasses is the number of full reduced-cost sweeps over all
	// columns; partial pricing keeps this far below Iterations on large
	// programs.
	PricingPasses int
	// TableauAllocs is the number of backing-buffer allocations this solve
	// performed; 0 means the Solver reused buffers from an earlier solve.
	TableauAllocs int
	// Refactorizations is the number of times the revised method rebuilt the
	// basis inverse from scratch (always 0 for MethodFlat).
	Refactorizations int
	// EtaColumns is the total number of eta columns appended to the basis
	// inverse by the revised method between refactorizations (always 0 for
	// MethodFlat).
	EtaColumns int
	// LUFills is the total fill-in (entries beyond the basis columns' own
	// nonzeros) created by the BasisLU factorizations of this solve.
	LUFills int
	// WarmStarted reports that the solve skipped phase one by starting from
	// a transferred prior basis (see Solver.SolveFrom).
	WarmStarted bool
	// DualIterations is the number of dual simplex pivots a warm re-solve
	// performed (see Solver.SolveFrom; included in Iterations).
	DualIterations int
	// Basis is the optimal basis snapshot requested by Options.CaptureBasis
	// (nil otherwise or when the solve did not end optimal).
	Basis *WarmBasis
	// Downgrades is the number of cascade rungs abandoned before this
	// solution was produced (0 means the revised engine's first result
	// verified; always 0 for MethodFlat, which runs no cascade).
	Downgrades int

	// duals holds the final simplex multipliers of a revised optimal solve,
	// in the sign-normalised row space of the problem's CSC form; Verify
	// prices the dual-feasibility check against them.  The flat path leaves
	// them nil.
	duals []float64
}

// tolerance is the feasibility/optimality tolerance of both implementations.
const tolerance = 1e-9

// candListSize bounds the candidate list kept by the flat path's partial
// pricing: a full pricing pass remembers up to this many attractive columns,
// and subsequent pivots price only those until the list runs dry.
const candListSize = 24

// degenerateSwitch is the number of consecutive non-improving pivots after
// which the flat path's Dantzig pricing falls back to Bland's rule to
// guarantee termination.
const degenerateSwitch = 50

// degenerateSwitchSE is the revised simplex's Bland window.  The
// paper's LPs have long degenerate runs that are not cycles: phase one
// trades the balance rows' zero-valued artificials one pivot at a time, and
// ratioTestSE's tie rules (basic artificials first, then the largest pivot)
// keep such a run moving.  After 50 of them Bland's rule priced the rest of
// the run, with denser pivots (the BTRAN'd row about twice the nonzeros):
// on lp-cold's 126 instances it priced 104 of 673 pivots per solve and set
// the slowest solves.  With this window it prices none there, and the
// window alone cuts pivots to 605 per solve.  Bland stays the termination
// guarantee for a run that does cycle.
const degenerateSwitchSE = 1000

// solverPool recycles Solvers (and so their working buffers) across
// package-level Solve calls, which is what makes repeated solves in the
// experiment sweeps allocation-free in steady state.
var solverPool = sync.Pool{New: func() interface{} { return NewSolver() }}

// Solve runs the two-phase primal simplex method on the problem.  It draws a
// reusable Solver from an internal pool; callers with a long sequence of
// solves can hold their own Solver instead.
func Solve(p *Problem, opts Options) (*Solution, error) {
	s := solverPool.Get().(*Solver)
	sol, err := s.Solve(p, opts)
	solverPool.Put(s)
	return sol, err
}

// SolveFrom is Solve warm-started from an explicit basis snapshot (see
// Solver.SolveFrom); a nil basis is an ordinary Solve.
func SolveFrom(p *Problem, opts Options, from *WarmBasis) (*Solution, error) {
	s := solverPool.Get().(*Solver)
	sol, err := s.SolveFrom(p, opts, from)
	solverPool.Put(s)
	return sol, err
}

// Solver is a reusable two-phase primal simplex solver holding the working
// state of both implementations (revised and flat), so a Solver that has seen
// a problem of a given size solves subsequent problems of similar size
// without allocating.
//
// A Solver is not safe for concurrent use; use one per goroutine (the
// package-level Solve does this via an internal pool).
type Solver struct {
	rev  revisedSolver
	flat flatSolver
}

// NewSolver returns an empty Solver; buffers are allocated lazily on first
// use and reused afterwards.
func NewSolver() *Solver { return &Solver{} }

// Solve solves the problem with the implementation selected by opts.Method,
// reusing the solver's buffers.  MethodFlat runs the flat reference path
// alone.  A revised solve runs the verified cascade (cascade.go): its
// Optimal result has passed Verify, and a failed certificate, a singular
// refactorization or an exhausted pivot budget re-solves down to the flat
// path instead of being returned.  Every Solve starts cold: the answer never
// depends on what the Solver solved before.
func (s *Solver) Solve(p *Problem, opts Options) (*Solution, error) {
	return s.SolveFrom(p, opts, nil)
}

// SolveFrom is Solve warm-started from an explicit basis snapshot (see
// WarmBasis): the cascade's first rung transplants the snapshot and
// re-optimizes from it with dual simplex pivots (dual.go), and when it does
// not transfer the ordinary cold start runs.  Only MethodRevised uses the
// snapshot.  A nil basis is an ordinary Solve.
func (s *Solver) SolveFrom(p *Problem, opts Options, from *WarmBasis) (*Solution, error) {
	plan := loadFaultPlan()
	switch opts.Method {
	case MethodRevised:
		return s.cascadeSolve(p, opts, from, plan)
	case MethodFlat:
		sol := s.flat.solve(p, plan.at(0))
		recordSolve(opts.Stats, sol)
		return sol, nil
	default:
		return nil, fmt.Errorf("lp: unknown solve method %d", int(opts.Method))
	}
}

// pivotBudget is the pivot budget of a solve of the given size: 200 pivots
// per row and column, and at least 20,000, unless the solve's injected fault
// sets its own (Fault.PivotBudget).
func pivotBudget(f *Fault, rows, cols int) int {
	if f != nil && f.PivotBudget > 0 {
		return f.PivotBudget
	}
	return max(200*(cols+rows), 20000)
}

// grabFloats returns buf resized to n, reallocating only when capacity is
// short; fresh content is NOT zeroed.
func grabFloats(buf []float64, n int, allocs *int) []float64 {
	if cap(buf) < n {
		*allocs++
		return make([]float64, n)
	}
	return buf[:n]
}

func grabInts(buf []int, n int, allocs *int) []int {
	if cap(buf) < n {
		*allocs++
		return make([]int, n)
	}
	return buf[:n]
}

func grabBools(buf []bool, n int, allocs *int) []bool {
	if cap(buf) < n {
		*allocs++
		return make([]bool, n)
	}
	return buf[:n]
}

// effectiveSense is the sense of a constraint after the row is multiplied
// by -1 when its RHS is negative (so the tableau RHS is non-negative).
func effectiveSense(c Constraint) Sense {
	if c.RHS < 0 {
		switch c.Sense {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return c.Sense
}

// selectCandidates refreshes cand with the (up to candListSize) most negative
// entries of rc[:limit] below -tol and returns the most attractive column
// together with the updated list, or -1 at optimality: the flat path's full
// pricing pass.
func selectCandidates(rc []float64, limit int, tol float64, cand []int) (int, []int) {
	cand = cand[:0]
	best, bestRC := -1, -tol
	// Keep the candListSize most negative reduced costs.  worst tracks the
	// largest (least attractive) reduced cost currently in the list so most
	// columns are rejected with a single comparison.
	worst := math.Inf(-1)
	for j := 0; j < limit; j++ {
		r := rc[j]
		if r >= -tol {
			continue
		}
		if r < bestRC {
			bestRC, best = r, j
		}
		if len(cand) < candListSize {
			cand = append(cand, j)
			if r > worst {
				worst = r
			}
			continue
		}
		if r >= worst {
			continue
		}
		// Replace the current worst candidate; the list's new maximum is
		// the larger of its old runner-up and the newcomer.
		wi, wr, runnerUp := 0, math.Inf(-1), math.Inf(-1)
		for k, cj := range cand {
			v := rc[cj]
			if v > wr {
				runnerUp = wr
				wr, wi = v, k
			} else if v > runnerUp {
				runnerUp = v
			}
		}
		cand[wi] = j
		worst = runnerUp
		if r > worst {
			worst = r
		}
	}
	return best, cand
}
