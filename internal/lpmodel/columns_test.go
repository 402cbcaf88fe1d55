package lpmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/lp"
)

// expandOmitted is the equivalence oracle of the columns Build leaves out
// (see columns): the paper's program, read from Problem.Constraint and the
// model's tables with every omitted column added back.  It derives each
// block's gaps from the request sequence alone and fails unless the model
// omits exactly the columns doc.go names.  Every fetch column of a trailing
// gap (every one of a never-requested block) comes back in its interval's
// disk row and fetch/evict row, the only rows the paper's program gives it.
// Every eviction column before a non-initial block's first request comes
// back in its interval's fetch/evict row, and the block's paper row
// sum_I e(I) = 0 is added over them.  It returns the program and the
// numbers of fetch and eviction columns it added.
func expandOmitted(t *testing.T, m *Model) (out *lp.Problem, fetches, evictions int) {
	t.Helper()
	p := m.Problem
	out = lp.NewProblem(0)
	for v := 0; v < p.NumVars(); v++ {
		out.AddVariable(p.Objective(v))
	}
	rows := make([][]lp.Coef, p.NumConstraints())
	for i := range rows {
		rows[i] = slices.Clone(p.Constraint(i).Coeffs)
	}
	var zeroRows [][]lp.Coef
	for bi, b := range m.Blocks {
		var refs []int // 1-based request numbers of b
		for pos, r := range m.In.Seq {
			if r == b {
				refs = append(refs, pos+1)
			}
		}
		initial := slices.Contains(m.In.InitialCache, b) || b == m.Dummy // the dummy starts in cache
		var zero []lp.Coef
		for idx, iv := range m.Intervals {
			// I lies in the gap between b's last request at or before
			// Start and its first at or after End, unless b is requested
			// inside I.
			i := 0
			for i < len(refs) && refs[i] <= iv.Start {
				i++
			}
			fv, ev := m.fetchVar(idx, bi), m.evictVar(idx, bi)
			if i < len(refs) && refs[i] < iv.End {
				if fv != noVar || ev != noVar {
					t.Fatalf("interval %v: block %v, requested inside it, has fetch %d and evict %d", iv, b, fv, ev)
				}
				continue
			}
			trailing := i == len(refs)
			beforeFirst := i == 0 && !initial
			if (fv == noVar) != trailing || (ev == noVar) != beforeFirst {
				t.Fatalf("interval %v, block %v (trailing gap %v, before a first request %v): fetch %d, evict %d",
					iv, b, trailing, beforeFirst, fv, ev)
			}
			fe := m.firstRow[idx] + m.In.Disks
			if trailing {
				v := out.AddVariable(0)
				disk := m.firstRow[idx] + m.blockDisk(b)
				rows[disk] = append(rows[disk], lp.Coef{Var: v, Value: 1})
				rows[fe] = append(rows[fe], lp.Coef{Var: v, Value: 1})
				fetches++
			}
			if beforeFirst {
				v := out.AddVariable(0)
				rows[fe] = append(rows[fe], lp.Coef{Var: v, Value: -1})
				zero = append(zero, lp.Coef{Var: v, Value: 1})
				evictions++
			}
		}
		if len(zero) > 0 {
			zeroRows = append(zeroRows, zero)
		}
	}
	for i, coeffs := range rows {
		c := p.Constraint(i)
		out.AddConstraint(coeffs, c.Sense, c.RHS)
	}
	for _, coeffs := range zeroRows {
		out.AddConstraint(coeffs, lp.EQ, 0)
	}
	return out, fetches, evictions
}

// TestOmittedColumnsKeepOptimum checks that the columns Build leaves out
// carry no schedule: the model and the paper's program (expandOmitted) have
// the same optimum, and under TieBreakObjective, which makes the optimal x
// unique, the same x(I) for every interval, since the two programs have
// the same feasible x-set (doc.go).  It runs on random instances with D 1-3
// and empty, partial and full initial caches, as built and after each of
// three Extend steps, which re-open the fetch columns of the trailing gaps
// their requests close.
func TestOmittedColumnsKeepOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(2323))
	solve := func(p *lp.Problem) *lp.Solution {
		t.Helper()
		sol, err := lp.Solve(p, lp.Options{Cascade: true})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		return sol
	}
	var fetches, evictions int
	disks := map[int]int{}
	for trial := 0; trial < 90; trial++ {
		in := dummyInstance(rng, trial%3)
		disks[in.Disks]++
		known := in.Blocks()
		plain, err := Build(in.Clone())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tied, err := Build(in.Clone())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for step := 0; step <= 3; step++ {
			if step > 0 {
				reqs := make([]core.BlockID, 1+rng.Intn(3))
				for i := range reqs {
					reqs[i] = known[rng.Intn(len(known))]
				}
				for _, m := range []*Model{plain, tied} {
					if err := m.Extend(reqs...); err != nil {
						t.Fatalf("trial %d: extend %v: %v", trial, reqs, err)
					}
				}
			}
			full, f, e := expandOmitted(t, plain)
			fetches += f
			evictions += e
			got, want := solve(plain.Problem).Objective, solve(full).Objective
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d step %d (D=%d, k=%d, |S_init|=%d): the model's optimum is %v, the paper's program's %v",
					trial, step, in.Disks, in.K, len(in.InitialCache), got, want)
			}
			tied.TieBreakObjective(1e-5)
			tiedFull, _, _ := expandOmitted(t, tied)
			x, fullX := solve(tied.Problem).X, solve(tiedFull).X
			for idx, v := range tied.xVar {
				if math.Abs(x[v]-fullX[v]) > 1e-9 {
					t.Fatalf("trial %d step %d: tied x%v is %v in the model, %v in the paper's program",
						trial, step, tied.Intervals[idx], x[v], fullX[v])
				}
			}
		}
	}
	if fetches == 0 || evictions == 0 || len(disks) != 3 {
		t.Fatalf("coverage: %d omitted fetches, %d omitted evictions, trials per D %v", fetches, evictions, disks)
	}
	t.Logf("omitted columns added back: %d fetches, %d evictions; trials per D %v", fetches, evictions, disks)
}
