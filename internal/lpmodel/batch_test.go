package lpmodel

import (
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

// TestPlanBatchMatchesPlan pins the contract the E7 sweep rows rely on:
// planning through one reused ModelBatch, whose model slots are recycled and
// whose solves share solver arenas and symbolic factorizations, gives
// exactly what a plain Plan gives.  Stall, lower bound, schedule and pivots
// must agree on E7-shaped instances, on the served engine and on the suite's
// Dantzig/eta pair.
func TestPlanBatchMatchesPlan(t *testing.T) {
	engines := []struct {
		name string
		opts lp.Options
	}{
		{"steepest-lu", lp.Options{}},
		{"dantzig-eta", lp.Options{Pricing: lp.PricingDantzig, Basis: lp.BasisEta}},
	}
	sizes := []struct{ n, blocks, k, f int }{{11, 6, 3, 2}, {22, 10, 4, 4}}
	for _, eng := range engines {
		mb := NewModelBatch()
		for _, disks := range []int{1, 2, 3} {
			for _, size := range sizes {
				for seed := int64(900); seed < 908; seed++ {
					seq := workload.Uniform(size.n, size.blocks, seed)
					in := workload.Instance(seq, size.k, size.f, disks, workload.AssignStripe, 0)
					want, err := Plan(in, eng.opts)
					if err != nil {
						t.Fatalf("%s D=%d n=%d seed %d: Plan: %v", eng.name, disks, size.n, seed, err)
					}
					got, err := PlanBatch(mb, in, eng.opts)
					if err != nil {
						t.Fatalf("%s D=%d n=%d seed %d: PlanBatch: %v", eng.name, disks, size.n, seed, err)
					}
					if got.Stall != want.Stall || got.LowerBound != want.LowerBound ||
						got.LPIterations != want.LPIterations || got.Schedule.String() != want.Schedule.String() {
						t.Errorf("%s D=%d n=%d seed %d: PlanBatch stall %d, bound %g, %d pivots; Plan %d, %g, %d; schedules equal: %v",
							eng.name, disks, size.n, seed, got.Stall, got.LowerBound, got.LPIterations,
							want.Stall, want.LowerBound, want.LPIterations, got.Schedule.String() == want.Schedule.String())
					}
				}
			}
		}
	}
}
