package lpmodel_test

import (
	"testing"

	"pfcache/internal/core"
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
	opts := lp.Options{}
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

// TestTheorem4SaltedVertices checks Theorem 4 at other optimal vertices than
// the served one: each instance of the lp-cold census (blocks 1-3) and of
// E7's n=22 shape (as in TestTheorem4E7Shape) is solved under several salted
// tie-break weights, each of which picks a vertex of the optimal face, and
// every vertex must round to a schedule that stalls at most OPT(k) with at
// most 2(D-1) extra cache locations.  A change to the program or the engine
// moves served vertices; this is the net under that.
func TestTheorem4SaltedVertices(t *testing.T) {
	const salts = 2
	var ins []*core.Instance
	for b := 1; b <= 3; b++ {
		ins = append(ins, lpmodel.LPColdBlock(b)...)
	}
	for _, d := range []int{2, 3} {
		for seed := int64(900); seed < 1100; seed++ {
			ins = append(ins, workload.Instance(workload.Uniform(22, 10, seed), 4, 4, d, workload.AssignStripe, 0))
		}
	}
	opts := lp.Options{}
	moved := 0
	for i, in := range ins {
		want, err := opt.OptimalStall(in, opt.Options{})
		if err != nil {
			t.Fatalf("instance %d: exact search: %v", i, err)
		}
		stalls := map[int]bool{}
		for salt := 1; salt <= salts; salt++ {
			m, err := lpmodel.Build(in)
			if err != nil {
				t.Fatal(err)
			}
			lpmodel.SaltTieBreak(m, 1e-5, salt)
			frac, err := m.Solve(opts)
			if err != nil {
				t.Fatalf("instance %d salt %d: %v", i, salt, err)
			}
			res, err := lpmodel.Extract(m, frac)
			if err != nil {
				t.Errorf("instance %d salt %d (D=%d, n=%d): %v", i, salt, in.Disks, in.N(), err)
				continue
			}
			if res.Stall > want || res.ExtraCache > 2*(in.Disks-1) {
				t.Errorf("instance %d salt %d (D=%d, n=%d, k=%d, F=%d): stall %d (OPT %d, LP bound %.3f), extra cache %d (budget %d)",
					i, salt, in.Disks, in.N(), in.K, in.F, res.Stall, want, res.LowerBound, res.ExtraCache, 2*(in.Disks-1))
			}
			stalls[res.Stall] = true
		}
		if len(stalls) > 1 {
			moved++
		}
	}
	t.Logf("%d instances, %d salts each; %d round to different stalls on different vertices", len(ins), salts, moved)
}
