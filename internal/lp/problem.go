package lp

import (
	"fmt"
	"sync"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	// LE is a "less than or equal" constraint.
	LE Sense = iota
	// EQ is an equality constraint.
	EQ
	// GE is a "greater than or equal" constraint.
	GE
)

// String renders the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("sense(%d)", int(s))
	}
}

// Coef is one nonzero coefficient of a constraint: Value times variable Var.
type Coef struct {
	Var   int
	Value float64
}

// Constraint is a single linear constraint over the problem variables.
type Constraint struct {
	Coeffs []Coef
	Sense  Sense
	RHS    float64
}

// Problem is a linear program in minimisation form with non-negative
// variables.
type Problem struct {
	numVars   int
	objective []float64
	cons      []Constraint
	nnz       int // total nonzero coefficients across all constraints

	// AddConstraint merges duplicate variables with an epoch-stamped dense
	// scratch: stamp[v] == epoch marks v as seen in the current call and
	// slot[v] holds its position in the output, so merging is O(len(coeffs))
	// with no map and no clearing between calls.
	stamp []int
	slot  []int32
	epoch int

	// arena is the shared backing store for every constraint's Coeffs slice.
	// Constraints keep full-capacity subslices of whatever array arena pointed
	// at when they were added; growing the arena reallocates it but leaves the
	// old arrays (and the constraints aliasing them) intact, so the only
	// invalidation point is Reset.  With Reset-driven reuse (see BuildInto in
	// internal/lpmodel) a rebuilt problem performs zero coefficient
	// allocations in steady state.
	arena []Coef

	// The revised solver works from a compressed sparse column form of the
	// constraint matrix.  It is built lazily on first solve and cached until
	// the matrix changes (version counts matrix mutations); repeated solves
	// of the same problem then share one read-only copy.
	version    int
	cscMu      sync.Mutex
	cscCache   *cscMatrix
	cscVersion int

	// PatternFingerprint cache, guarded by cscMu alongside the CSC cache.
	fp        uint64
	fpVersion int
	fpValid   bool
}

// NewProblem creates a problem with the given number of non-negative
// variables, all with objective coefficient zero.
func NewProblem(numVars int) *Problem {
	if numVars < 0 {
		panic(fmt.Sprintf("lp: negative variable count %d", numVars))
	}
	return &Problem{
		numVars:   numVars,
		objective: make([]float64, numVars),
	}
}

// Reset empties the problem in place, keeping every internal buffer (the
// coefficient arena, the objective vector, the merge scratch) at capacity so
// the next build allocates nothing in steady state.  The problem afterwards
// has numVars non-negative variables with zero objective and no constraints.
//
// Reset invalidates all Constraint values previously returned for this
// problem: their Coeffs alias the arena being reused.  Callers that retain
// constraints across builds must copy them first.
func (p *Problem) Reset(numVars int) {
	if numVars < 0 {
		panic(fmt.Sprintf("lp: negative variable count %d", numVars))
	}
	p.numVars = numVars
	if cap(p.objective) < numVars {
		p.objective = make([]float64, numVars)
	} else {
		p.objective = p.objective[:numVars]
		clear(p.objective)
	}
	p.cons = p.cons[:0]
	p.arena = p.arena[:0]
	p.nnz = 0
	p.version++
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// NumNonzeros returns the total number of nonzero constraint coefficients,
// the quantity the revised solver's per-pivot cost is proportional to.
func (p *Problem) NumNonzeros() int { return p.nnz }

// AddVariable appends a new variable with the given objective coefficient and
// returns its index.
func (p *Problem) AddVariable(objective float64) int {
	p.objective = append(p.objective, objective)
	p.numVars++
	p.version++
	return p.numVars - 1
}

// SetObjective sets the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, c float64) {
	p.checkVar(v)
	p.objective[v] = c
}

// Objective returns the objective coefficient of variable v.
func (p *Problem) Objective(v int) float64 {
	p.checkVar(v)
	return p.objective[v]
}

// AddConstraint adds the constraint sum_i coeffs_i {sense} rhs and returns
// its index.  Coefficients referring to the same variable are summed (into
// the variable's first occurrence) and zero coefficients are dropped.  The
// coefficients are copied into a problem-owned arena, so callers may reuse
// the coeffs slice; the stored Coeffs stay valid until Reset.
func (p *Problem) AddConstraint(coeffs []Coef, sense Sense, rhs float64) int {
	for len(p.stamp) < p.numVars {
		p.stamp = append(p.stamp, 0)
		p.slot = append(p.slot, 0)
	}
	p.epoch++
	start := len(p.arena)
	for _, c := range coeffs {
		p.checkVar(c.Var)
		if p.stamp[c.Var] == p.epoch {
			p.arena[start+int(p.slot[c.Var])].Value += c.Value
			continue
		}
		p.stamp[c.Var] = p.epoch
		p.slot[c.Var] = int32(len(p.arena) - start)
		p.arena = append(p.arena, c)
	}
	w := start
	for s := start; s < len(p.arena); s++ {
		if p.arena[s].Value != 0 {
			p.arena[w] = p.arena[s]
			w++
		}
	}
	p.arena = p.arena[:w]
	out := p.arena[start:w:w]
	p.cons = append(p.cons, Constraint{Coeffs: out, Sense: sense, RHS: rhs})
	p.nnz += len(out)
	p.version++
	return len(p.cons) - 1
}

// ExtendConstraint appends coefficients to the existing constraint i,
// keeping its sense and RHS — the shape of a trace extension, where old rows
// gain entries only in freshly added columns.  The row is rewritten at the
// arena tail (rows are full-capacity sub-slices of the shared arena, so
// growing one in place would clobber its neighbour); the abandoned arena
// region is reclaimed by the next Reset.  Duplicate-variable merging follows
// AddConstraint: coefficients naming a variable the row already has are
// summed into it, and zero results are dropped.
func (p *Problem) ExtendConstraint(i int, coeffs []Coef) {
	for len(p.stamp) < p.numVars {
		p.stamp = append(p.stamp, 0)
		p.slot = append(p.slot, 0)
	}
	c := &p.cons[i]
	p.epoch++
	start := len(p.arena)
	for _, old := range c.Coeffs {
		p.stamp[old.Var] = p.epoch
		p.slot[old.Var] = int32(len(p.arena) - start)
		p.arena = append(p.arena, old)
	}
	for _, co := range coeffs {
		p.checkVar(co.Var)
		if p.stamp[co.Var] == p.epoch {
			p.arena[start+int(p.slot[co.Var])].Value += co.Value
			continue
		}
		p.stamp[co.Var] = p.epoch
		p.slot[co.Var] = int32(len(p.arena) - start)
		p.arena = append(p.arena, co)
	}
	w := start
	for s := start; s < len(p.arena); s++ {
		if p.arena[s].Value != 0 {
			p.arena[w] = p.arena[s]
			w++
		}
	}
	p.arena = p.arena[:w]
	p.nnz += (w - start) - len(c.Coeffs)
	c.Coeffs = p.arena[start:w:w]
	p.version++
}

// csc returns the cached compressed sparse column form of the constraint
// matrix, rebuilding it when constraints or variables were added since the
// last build.  Safe for concurrent solves of a fixed problem; mutating a
// problem concurrently with a solve is not supported (and never was).
func (p *Problem) csc() *cscMatrix {
	p.cscMu.Lock()
	defer p.cscMu.Unlock()
	if p.cscCache == nil || p.cscVersion != p.version {
		p.cscCache = buildCSC(p)
		p.cscVersion = p.version
	}
	return p.cscCache
}

// CrashColumn returns the structural variable a cold revised solve on the
// default BasisLU engine starts basic in constraint row i, or -1 when the
// row starts on its slack or artificial.  Only equality and (after a
// negative right-hand side flips the row) >= rows have one: the
// lowest-index variable whose only coefficient is exactly +1 in that row.
func (p *Problem) CrashColumn(i int) int { return int(p.csc().crashCol[i]) }

// Constraint returns the i-th constraint.
func (p *Problem) Constraint(i int) Constraint {
	return p.cons[i]
}

func (p *Problem) checkVar(v int) {
	if v < 0 || v >= p.numVars {
		panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", v, p.numVars))
	}
}

// Value evaluates the objective at x.
func (p *Problem) Value(x []float64) float64 {
	total := 0.0
	for i := 0; i < p.numVars && i < len(x); i++ {
		total += p.objective[i] * x[i]
	}
	return total
}

// Violation returns the largest constraint violation of x (0 when feasible)
// together with the index of the most violated constraint (-1 when feasible).
// Negative variable values also count as violations, reported with constraint
// index -1.
func (p *Problem) Violation(x []float64) (float64, int) {
	worst := 0.0
	worstIdx := -1
	for i := 0; i < p.numVars; i++ {
		v := 0.0
		if i < len(x) {
			v = x[i]
		}
		if -v > worst {
			worst = -v
			worstIdx = -1
		}
	}
	for ci, c := range p.cons {
		lhs := 0.0
		for _, co := range c.Coeffs {
			if co.Var < len(x) {
				lhs += co.Value * x[co.Var]
			}
		}
		var viol float64
		switch c.Sense {
		case LE:
			viol = lhs - c.RHS
		case GE:
			viol = c.RHS - lhs
		case EQ:
			viol = lhs - c.RHS
			if viol < 0 {
				viol = -viol
			}
		}
		if viol > worst {
			worst = viol
			worstIdx = ci
		}
	}
	return worst, worstIdx
}
