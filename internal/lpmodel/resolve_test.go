package lpmodel

import (
	"math"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

// TestModelResolveRepeatsFirstSolve verifies that re-solving the same model
// on the same Solver starts cold and repeats the first solve bit for bit:
// the same pivots, objective and fractional solution.
func TestModelResolveRepeatsFirstSolve(t *testing.T) {
	seq := workload.Uniform(11, 6, 900)
	in := workload.Instance(seq, 3, 2, 3, workload.AssignStripe, 0)
	m, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	solver := lp.NewSolver()
	first, err := m.SolveWith(solver, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Iterations == 0 {
		t.Fatal("first solve reported zero pivots; the re-solve check needs a real solve")
	}
	second, err := m.SolveWith(solver, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Iterations != first.Iterations {
		t.Errorf("re-solve spent %d pivots, first %d", second.Iterations, first.Iterations)
	}
	if math.Float64bits(second.Objective) != math.Float64bits(first.Objective) {
		t.Errorf("re-solve objective %x, first %x", math.Float64bits(second.Objective), math.Float64bits(first.Objective))
	}
	for i := range second.X {
		if math.Float64bits(second.X[i]) != math.Float64bits(first.X[i]) {
			t.Fatalf("re-solve X[%d] = %x, first %x", i, math.Float64bits(second.X[i]), math.Float64bits(first.X[i]))
		}
	}
}
