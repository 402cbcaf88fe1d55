package lpmodel

import (
	"math"
	"math/rand"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

// expandDummy is the equivalence oracle of the single dummy: the program m
// would be with the dummy's d copies spelled out, one per dummy of the
// paper's S_init.  It is read from Problem.Constraint: every evict column
// of the dummy (a never-requested block has no fetch column, see columns)
// gets d-1 duplicates sitting in the same rows with the same coefficients,
// except that the dummy's own row, the <= row whose every column is a
// dummy evict column, sum_I e(I) <= d, becomes d rows sum_I e_c(I) <= 1, one
// per copy c.  (An interval whose every real block is requested inside it
// has a fetch/evict row holding the dummy's evict column alone; that row is
// an equality and is duplicated like any other.)
func expandDummy(t *testing.T, m *Model) *lp.Problem {
	t.Helper()
	p := m.Problem
	out := lp.NewProblem(0)
	for v := 0; v < p.NumVars(); v++ {
		out.AddVariable(p.Objective(v))
	}
	d := m.DummyCopies
	dups := map[int][]int{} // dummy column -> its d-1 duplicates
	evict := map[int]bool{}
	if d > 0 {
		bi := len(m.Blocks) - 1
		if m.Blocks[bi] != m.Dummy {
			t.Fatalf("the last block is %v, the dummy %v", m.Blocks[bi], m.Dummy)
		}
		for idx := range m.Intervals {
			v := m.evictVar(idx, bi)
			if v == noVar || m.fetchVar(idx, bi) != noVar {
				t.Fatalf("interval %v: the dummy has evict column %d and fetch column %d, want an evict column alone",
					m.Intervals[idx], v, m.fetchVar(idx, bi))
			}
			for c := 1; c < d; c++ {
				dups[v] = append(dups[v], out.AddVariable(p.Objective(v)))
			}
			evict[v] = true
		}
	}
	dummyRows := 0
	for i := 0; i < p.NumConstraints(); i++ {
		c := p.Constraint(i)
		own := d > 0 && c.Sense == lp.LE
		for _, co := range c.Coeffs {
			own = own && evict[co.Var]
		}
		if own {
			dummyRows++
			for copyIdx := 0; copyIdx < d; copyIdx++ {
				coeffs := make([]lp.Coef, 0, len(c.Coeffs))
				for _, co := range c.Coeffs {
					if copyIdx > 0 {
						co.Var = dups[co.Var][copyIdx-1]
					}
					coeffs = append(coeffs, co)
				}
				out.AddConstraint(coeffs, c.Sense, 1)
			}
			continue
		}
		coeffs := make([]lp.Coef, 0, len(c.Coeffs))
		for _, co := range c.Coeffs {
			coeffs = append(coeffs, co)
			for _, v := range dups[co.Var] {
				coeffs = append(coeffs, lp.Coef{Var: v, Value: co.Value})
			}
		}
		out.AddConstraint(coeffs, c.Sense, c.RHS)
	}
	if want := min(d, 1); dummyRows != want {
		t.Fatalf("%d rows hold only dummy evictions, want %d", dummyRows, want)
	}
	return out
}

// dummyInstance draws a small random instance with D in 1..3 whose initial
// cache is empty (mode 0), partial (mode 1) or full (mode 2), so the dummy
// carries d = k+D-1 copies, fewer, or D-1 (none at D = 1).
func dummyInstance(rng *rand.Rand, mode int) *core.Instance {
	n := 6 + rng.Intn(10)
	blocks := 3 + rng.Intn(5)
	seq := make(core.Sequence, n)
	for i := range seq {
		seq[i] = core.BlockID(rng.Intn(blocks))
	}
	k := 1 + rng.Intn(blocks-1)
	in := workload.Instance(seq, k, 1+rng.Intn(3), 1+rng.Intn(3), workload.AssignStripe, 0)
	size := 0
	switch mode {
	case 1:
		size = rng.Intn(k)
	case 2:
		size = k
	}
	perm := rng.Perm(blocks)
	init := make([]core.BlockID, size)
	for i := range init {
		init[i] = core.BlockID(perm[i])
	}
	return in.WithInitialCache(init...)
}

// TestDummyFoldKeepsOptimum checks that the single dummy carrying d copies
// gives the same optimum as d separate dummies, each evicted at most once
// (expandDummy), on random instances with D 1-3 and empty, partial and full
// initial caches, both as built and after Extend has grown the program.  A
// dummy row left at sum_I e(I) <= 1 fails it: with an empty cache the first
// k+D-1 fetches need a dummy eviction each.
func TestDummyFoldKeepsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	solve := func(p *lp.Problem) float64 {
		t.Helper()
		sol, err := lp.Solve(p, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		return sol.Objective
	}
	copies := map[int]int{}
	disks := map[int]int{}
	for trial := 0; trial < 90; trial++ {
		in := dummyInstance(rng, trial%3)
		known := in.Blocks()
		m, err := Build(in.Clone())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		copies[m.DummyCopies]++
		disks[in.Disks]++
		for step := 0; step < 3; step++ {
			folded, expanded := solve(m.Problem), solve(expandDummy(t, m))
			if math.Abs(folded-expanded) > 1e-9*math.Max(1, math.Abs(expanded)) {
				t.Fatalf("trial %d step %d (D=%d, k=%d, |S_init|=%d, d=%d): one dummy gives %v, %d dummies give %v",
					trial, step, in.Disks, in.K, len(in.InitialCache), m.DummyCopies, folded, m.DummyCopies, expanded)
			}
			reqs := make([]core.BlockID, 1+rng.Intn(3))
			for i := range reqs {
				reqs[i] = known[rng.Intn(len(known))]
			}
			if err := m.Extend(reqs...); err != nil {
				t.Fatalf("trial %d: extend %v: %v", trial, reqs, err)
			}
		}
	}
	if copies[0] == 0 || len(copies) < 4 || len(disks) != 3 {
		t.Fatalf("coverage: dummy copies %v, disks %v", copies, disks)
	}
	t.Logf("trials per dummy copy count %v, per D %v", copies, disks)
}
