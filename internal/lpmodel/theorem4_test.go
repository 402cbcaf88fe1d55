package lpmodel_test

import (
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/workload"
)

// TestTheorem4E7Shape pins Theorem 4 on E7's n=22 shape (Uniform(22, 10),
// k=4, F=4, striped) over 200 seeds at D=2 and at D=3, solved like a served
// request: the extracted schedule stalls at most OPT(k), the exact search's
// stall without extra locations, and uses at most 2(D-1) extra cache
// locations.  E7 runs four of these seeds; a wider net catches an extraction
// that keeps a feasible schedule above OPT(k) when another tier has a better
// one.
func TestTheorem4E7Shape(t *testing.T) {
	opts := lp.Options{Cascade: true}
	failures := 0
	for _, d := range []int{2, 3} {
		for seed := int64(900); seed < 1100; seed++ {
			in := workload.Instance(workload.Uniform(22, 10, seed), 4, 4, d, workload.AssignStripe, 0)
			want, err := opt.OptimalStall(in, opt.Options{})
			if err != nil {
				t.Fatalf("D=%d seed %d: exact search: %v", d, seed, err)
			}
			res, err := lpmodel.Plan(in, opts)
			if err != nil {
				t.Fatalf("D=%d seed %d: %v", d, seed, err)
			}
			if res.Stall > want || res.ExtraCache > 2*(d-1) {
				failures++
				t.Errorf("D=%d seed %d: stall %d (OPT %d, LP bound %.3f), extra cache %d (budget %d)",
					d, seed, res.Stall, want, res.LowerBound, res.ExtraCache, 2*(d-1))
			}
		}
	}
	if failures > 0 {
		t.Logf("%d of 400 instances break Theorem 4", failures)
	}
}
