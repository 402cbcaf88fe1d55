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
	// product-form eta file with periodic refactorization, and every pivot
	// costs time proportional to the nonzeros it touches.
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

// BasisMethod selects how the revised simplex represents the basis inverse.
type BasisMethod int

// Basis representations.
const (
	// BasisLU (the default) factorizes the basis as a sparse LU with
	// Markowitz pivoting and solves BTRAN/FTRAN against the triangular
	// factors, appending product-form update etas between refactorizations
	// (see lu.go).
	BasisLU BasisMethod = iota
	// BasisEta is the PR-2 representation — a pure product-form eta file
	// rebuilt from scratch at every refactorization — kept as the reference
	// implementation.
	BasisEta
)

// String names the basis representation.
func (b BasisMethod) String() string {
	switch b {
	case BasisLU:
		return "lu"
	case BasisEta:
		return "eta"
	default:
		return fmt.Sprintf("basis(%d)", int(b))
	}
}

// ParseBasis resolves a basis-representation name ("lu" or "eta") as used by
// command line flags.
func ParseBasis(name string) (BasisMethod, error) {
	switch name {
	case "lu":
		return BasisLU, nil
	case "eta":
		return BasisEta, nil
	default:
		return 0, fmt.Errorf("lp: unknown basis representation %q (want lu or eta)", name)
	}
}

// Options tunes the solver.
type Options struct {
	// MaxIterations caps the total number of simplex pivots (0 means an
	// automatic limit based on the problem size).
	MaxIterations int
	// Tolerance is the feasibility/optimality tolerance (0 means 1e-9).
	Tolerance float64
	// Method selects the simplex implementation; the zero value is
	// MethodRevised.
	Method Method
	// RefactorEvery bounds the update-eta growth of the revised method: after
	// this many pivots since the last refactorization the basis inverse is
	// rebuilt from scratch (0 means an automatic threshold based on the row
	// count).  Ignored by MethodFlat.
	RefactorEvery int
	// Pricing selects the entering-column rule of the revised method; the
	// zero value is PricingSteepestEdge.  Ignored by MethodFlat (which always
	// prices with Dantzig's rule).
	Pricing Pricing
	// Basis selects the basis-inverse representation of the revised method;
	// the zero value is BasisLU.  Ignored by MethodFlat.
	Basis BasisMethod
	// WarmStart lets the revised method start from the optimal basis of the
	// Solver's previous solve whenever that basis transfers to this problem
	// (same shape, nonsingular, primal feasible), falling back to the
	// ordinary phase-1 cold start otherwise.  Ignored by MethodFlat.
	WarmStart bool
	// CaptureBasis asks an optimal revised solve to snapshot its final basis
	// into Solution.Basis, for replay through Solver.SolveFrom.
	CaptureBasis bool
	// Dual widens the warm-start acceptance of the revised method: a basis
	// snapshot that no longer matches the problem's exact shape — because
	// rows and columns were appended (Problem/Model extension) or the RHS
	// moved — is transplanted anyway when the old rows form a prefix of the
	// new ones, and a dual simplex phase re-optimizes from it before the
	// ordinary primal clean-up runs.  Any basis the dual phase cannot certify
	// falls back to the cold primal start, so (like WarmStart) Dual is always
	// safe to request.  Ignored by MethodFlat.
	Dual bool
	// Cascade opts the revised method into the self-healing solve ladder:
	// every Optimal result is checked against the independent certificate
	// (Verify), and a verification failure, singular refactorization or
	// exhausted pivot budget re-solves down the engine ladder — same engines
	// cold, then Dantzig pricing over a pure eta file, then the flat
	// reference path — instead of being returned.  See cascade.go.  Ignored
	// by MethodFlat.
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
	// inverse by the revised method — update etas plus, on the BasisEta
	// path, the columns written during refactorizations (always 0 for
	// MethodFlat).
	EtaColumns int
	// LUFills is the total fill-in (entries beyond the basis columns' own
	// nonzeros) created by the BasisLU factorizations of this solve.
	LUFills int
	// NumericRefactors counts the BasisLU refactorizations of this solve that
	// found a recorded symbolic skeleton for their (problem pattern, basis)
	// structure and attempted a numeric-only replay (see lusym.go).
	NumericRefactors int
	// SymbolicReuses counts the attempted replays whose value-dependent
	// decisions all verified, so the Markowitz analysis was skipped entirely.
	// NumericRefactors - SymbolicReuses replays fell back to a full
	// factorization.
	SymbolicReuses int
	// PricingRule is the entering-column rule the solve priced with.
	PricingRule Pricing
	// WarmStarted reports that the solve skipped phase one by starting from
	// a transferred prior basis (see Options.WarmStart, Solver.SolveFrom).
	WarmStarted bool
	// DualIterations is the number of dual simplex pivots performed
	// (Options.Dual only; included in Iterations).
	DualIterations int
	// Basis is the optimal basis snapshot requested by Options.CaptureBasis
	// (nil otherwise or when the solve did not end optimal).
	Basis *WarmBasis
	// Downgrades is the number of cascade rungs abandoned before this
	// solution was produced (always 0 without Options.Cascade; 0 under the
	// cascade means the configured engines' own result verified).
	Downgrades int

	// duals holds the final simplex multipliers of a revised optimal solve,
	// in the sign-normalised row space of the problem's CSC form; Verify
	// prices the dual-feasibility check against them.  The flat path leaves
	// them nil.
	duals []float64
}

const defaultTolerance = 1e-9

// candListSize bounds the candidate list kept by partial pricing: a full
// pricing pass remembers up to this many attractive columns, and subsequent
// pivots price only those until the list runs dry.
const candListSize = 24

// degenerateSwitch is the number of consecutive non-improving pivots after
// which pricing falls back to Bland's rule to guarantee termination.
const degenerateSwitch = 50

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
// reusing the solver's buffers.  A revised solve that hits a numerically
// singular refactorization (which a correct basis never produces exactly,
// only catastrophic round-off does) transparently falls back to the flat
// path.  With Options.WarmStart the revised method first tries the optimal
// basis of this Solver's previous solve (see WarmBasis).
func (s *Solver) Solve(p *Problem, opts Options) (*Solution, error) {
	return s.SolveFrom(p, opts, nil)
}

// SolveFrom is Solve warm-started from an explicit basis snapshot (see
// WarmBasis): when the snapshot transfers to this problem the solve skips
// phase one entirely, and when it does not the ordinary cold start runs.
// Only MethodRevised uses the snapshot.  A nil basis is an ordinary Solve —
// except that with Options.WarmStart set, the Solver's own last optimal
// basis stands in for it.
func (s *Solver) SolveFrom(p *Problem, opts Options, from *WarmBasis) (*Solution, error) {
	if opts.Method != MethodRevised {
		from = nil
	} else if from == nil && opts.WarmStart && s.rev.haveWarm {
		from = &s.rev.lastWarm
	}
	return s.solve(p, opts, from)
}

// SolveDualFrom is SolveFrom with Options.Dual forced: the snapshot is
// transplanted even when it is out of shape for this problem (rows/columns
// appended) or primal infeasible (RHS perturbed), as long as the old rows
// form a prefix of the new ones, and a dual simplex phase re-optimizes from
// it.  A basis the dual phase cannot certify falls back to the ordinary cold
// start, so the call is always safe.
func (s *Solver) SolveDualFrom(p *Problem, opts Options, from *WarmBasis) (*Solution, error) {
	opts.Dual = true
	return s.SolveFrom(p, opts, from)
}

func (s *Solver) solve(p *Problem, opts Options, warm *WarmBasis) (*Solution, error) {
	tol := opts.Tolerance
	if tol <= 0 {
		tol = defaultTolerance
	}
	plan := loadFaultPlan()
	if opts.Cascade && opts.Method == MethodRevised {
		return s.cascadeSolve(p, opts, tol, warm, plan)
	}
	var fault *Fault
	if plan != nil {
		fault = plan(0)
	}
	if fault != nil && fault.PivotBudget > 0 {
		opts.MaxIterations = fault.PivotBudget
	}
	var sol *Solution
	var err error
	switch opts.Method {
	case MethodRevised:
		s.rev.fault = fault
		sol, err = s.rev.solve(p, opts, tol, warm)
		s.rev.fault = nil
		if err == errSingularBasis {
			sol, err = s.flat.solve(p, opts, tol)
		}
	case MethodFlat:
		sol, err = s.flat.solve(p, opts, tol)
	default:
		return nil, fmt.Errorf("lp: unknown solve method %d", int(opts.Method))
	}
	if err == nil {
		recordSolve(opts.Stats, sol)
	}
	return sol, err
}

// maxIterations resolves the pivot budget for a problem of the given size.
func maxIterations(opts Options, rows, cols int) int {
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 200 * (cols + rows)
		if maxIter < 20000 {
			maxIter = 20000
		}
	}
	return maxIter
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
// together with the updated list, or -1 at optimality.  Shared by the full
// pricing passes of both simplex implementations.
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
