package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"pfcache/internal/lp"
)

// batchSweepProblems builds the property-test batch: a mix of random LPs, a
// degenerate paper-sized model (the synchronized-schedule LP has alternative
// optima at degenerate vertices), and an infeasible member placed mid-batch
// so the sweep must survive a failed member without corrupting the arenas
// the later members solve from.
func batchSweepProblems(tb testing.TB) []*lp.Problem {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	var probs []*lp.Problem
	for i := 0; i < 4; i++ {
		p, _ := randomProblem(rng)
		probs = append(probs, p)
	}
	probs = append(probs, buildE7SizedProblem(tb))
	infeasible := lp.NewProblem(1)
	infeasible.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 1)
	infeasible.AddConstraint([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 2)
	probs = append(probs, infeasible)
	for i := 0; i < 3; i++ {
		p, _ := randomProblem(rng)
		probs = append(probs, p)
	}
	return probs
}

// TestBatchSolveMatchesColdAcrossEngines pins the batch path's correctness
// contract over the engine grid: two rounds over the
// same problems through one batch are each bit-identical — status,
// iteration count, objective and every solution coordinate compared by
// their float64 bits — to solving each problem cold on its own fresh
// Solver.  The second round re-solves every problem the batch has just
// solved, and must still start cold.  Each optimal solution's certificate
// shares the batch's duals arena, so it is verified before the next solve.
// The infeasible member mid-batch must fail in place without disturbing the
// members after it.
func TestBatchSolveMatchesColdAcrossEngines(t *testing.T) {
	probs := batchSweepProblems(t)
	for _, combo := range engineCombos {
		opts := combo.opts
		refs := make([]*lp.Solution, len(probs))
		for i, p := range probs {
			ref, err := lp.NewSolver().Solve(p, opts)
			if err != nil {
				t.Fatalf("%s prob %d ref: %v", combo.name, i, err)
			}
			refs[i] = ref
		}
		batch := lp.NewBatch()
		for round := 1; round <= 2; round++ {
			for i, p := range probs {
				got, err := batch.Solve(p, opts)
				if err != nil {
					t.Fatalf("%s round %d prob %d: %v", combo.name, round, i, err)
				}
				ref := refs[i]
				if got.Status != ref.Status || got.Iterations != ref.Iterations || got.WarmStarted {
					t.Fatalf("%s round %d prob %d: batched %v/%d pivots (warm %v), cold %v/%d",
						combo.name, round, i, got.Status, got.Iterations, got.WarmStarted, ref.Status, ref.Iterations)
				}
				if math.Float64bits(got.Objective) != math.Float64bits(ref.Objective) {
					t.Fatalf("%s round %d prob %d: batched objective %x, cold %x",
						combo.name, round, i, math.Float64bits(got.Objective), math.Float64bits(ref.Objective))
				}
				if len(got.X) != len(ref.X) {
					t.Fatalf("%s round %d prob %d: %d coords, cold %d", combo.name, round, i, len(got.X), len(ref.X))
				}
				for j := range got.X {
					if math.Float64bits(got.X[j]) != math.Float64bits(ref.X[j]) {
						t.Fatalf("%s round %d prob %d x[%d]: batched %x, cold %x",
							combo.name, round, i, j, math.Float64bits(got.X[j]), math.Float64bits(ref.X[j]))
					}
				}
				if got.Status == lp.StatusOptimal {
					if verr := lp.Verify(p, got); verr != nil {
						t.Fatalf("%s round %d prob %d failed verification: %v", combo.name, round, i, verr)
					}
				}
			}
		}
	}
}

// BenchmarkBatchSolveE7Size times the E7-size sweep (each model's LP solved
// twice per point) routed through one persistent Batch.  Every solve is
// cold; the batch contributes only its reused Solver buffers and duals
// arena, which make the sweep allocation-free beyond the two unavoidable
// allocations per solve (the Solution and its X vector), a bound
// scripts/allocguard.sh enforces.
func BenchmarkBatchSolveE7Size(b *testing.B) {
	models := e7SweepInstances(b)
	var probs []*lp.Problem
	for _, m := range models {
		probs = append(probs, m.Problem, m.Problem)
	}
	batch := lp.NewBatch()
	sweep := func() {
		for _, p := range probs {
			if _, err := batch.Solve(p, lp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm-up sweeps, untimed, let every buffer capacity converge, so even
	// -benchtime 1x (the CI allocation guard) reports the steady state.
	for warmup := 0; warmup < 4; warmup++ {
		sweep()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
