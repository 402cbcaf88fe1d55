package lpmodel

import (
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

// planBatch is Plan routed through a ModelBatch the way the experiment
// suite and the service shards route it: the build reuses the batch's slot
// storage (a repeated instance skips it) and the solve runs through the
// batch's lp.Batch.
func planBatch(b *ModelBatch, in *core.Instance, opts lp.Options) (*PlanResult, error) {
	m, err := b.Model(in)
	if err != nil {
		return nil, err
	}
	frac, err := m.SolveBatch(b.LP(), opts)
	if err != nil {
		return nil, err
	}
	return Extract(m, frac)
}

// TestPlanBatchMatchesPlan pins the contract the E7 sweep rows and the
// service shards rely on: planning through one reused ModelBatch, whose
// model slots are recycled and whose solves share solver arenas, gives
// exactly what a plain Plan gives.  Stall, lower bound, schedule and pivots
// must agree on E7-shaped instances.  Every instance after the first is planned as A, B, A —
// A, the previous instance, then A again from its cached model — and the
// repeat must match Plan too: a re-solve starts cold, like the first.
func TestPlanBatchMatchesPlan(t *testing.T) {
	engines := []struct {
		name string
		opts lp.Options
	}{
		{"steepest-lu", lp.Options{}},
	}
	sizes := []struct{ n, blocks, k, f int }{{11, 6, 3, 2}, {22, 10, 4, 4}}
	for _, eng := range engines {
		mb := NewModelBatch()
		var prev *core.Instance
		for _, disks := range []int{1, 2, 3} {
			for _, size := range sizes {
				for seed := int64(900); seed < 908; seed++ {
					seq := workload.Uniform(size.n, size.blocks, seed)
					in := workload.Instance(seq, size.k, size.f, disks, workload.AssignStripe, 0)
					want, err := Plan(in, eng.opts)
					if err != nil {
						t.Fatalf("%s D=%d n=%d seed %d: Plan: %v", eng.name, disks, size.n, seed, err)
					}
					check := func(what string) {
						t.Helper()
						got, err := planBatch(mb, in, eng.opts)
						if err != nil {
							t.Fatalf("%s D=%d n=%d seed %d: %s: %v", eng.name, disks, size.n, seed, what, err)
						}
						if got.Stall != want.Stall || got.LowerBound != want.LowerBound ||
							got.LPIterations != want.LPIterations || got.Schedule.String() != want.Schedule.String() {
							t.Errorf("%s D=%d n=%d seed %d: %s stall %d, bound %g, %d pivots; Plan %d, %g, %d; schedules equal: %v",
								eng.name, disks, size.n, seed, what, got.Stall, got.LowerBound, got.LPIterations,
								want.Stall, want.LowerBound, want.LPIterations, got.Schedule.String() == want.Schedule.String())
						}
					}
					check("batched plan")
					if prev != nil {
						if _, err := planBatch(mb, prev, eng.opts); err != nil {
							t.Fatalf("%s D=%d n=%d seed %d: batched plan of the previous instance: %v", eng.name, disks, size.n, seed, err)
						}
						check("repeated batched plan")
					}
					prev = in
				}
			}
		}
	}
}
