package lpmodel

import (
	"cmp"
	"fmt"
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
		sol, err := lp.Solve(p, lp.Options{})
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

// checkColumnOrder fails unless every interval's fetch and eviction columns
// follow the normal form's order (doc.go, "Column order").  An interval's
// columns are made with it, against the n requests the program then has:
// n0 for a built interval, End for one an extension added.  Among them the
// fetch columns come first, by rising next request of their block at or
// after the interval's start, then the eviction columns, by falling next
// request, a block not requested again among those n counting as furthest,
// ties in block order; each interval's columns follow the previous
// interval's.  A fetch column a later request re-opens (one whose block is
// not requested again among those n) comes after all of them, in the order
// of the requests that re-open them.  The next requests are read from the
// sequence, not from the model's index.  It returns the number of
// intervals with two or more fetch columns made with them and with two or
// more eviction columns, and the number of re-opened fetch columns.
func checkColumnOrder(t *testing.T, what string, m *Model, n0 int) (fetchRuns, evictRuns, reopened int) {
	t.Helper()
	seq := m.In.Seq
	nextIn := func(b core.BlockID, from, to int) int {
		for p := from; p < to; p++ {
			if seq[p] == b {
				return p
			}
		}
		return core.NoRef
	}
	type col struct{ v, bi, next int }
	last := -1 // the last column made with the previous interval
	for idx, iv := range m.Intervals {
		n := max(n0, iv.End) // the requests the program had when iv was made
		var fetches, evictions, later []col
		for bi, b := range m.Blocks {
			next := nextIn(b, iv.Start, n)
			if v := m.fetchVar(idx, bi); v != noVar {
				if next == core.NoRef {
					later = append(later, col{v, bi, nextIn(b, iv.Start, len(seq))})
				} else {
					fetches = append(fetches, col{v, bi, next})
				}
			}
			if v := m.evictVar(idx, bi); v != noVar {
				evictions = append(evictions, col{v, bi, next})
			}
		}
		slices.SortFunc(fetches, func(a, b col) int { return cmp.Or(cmp.Compare(a.next, b.next), cmp.Compare(a.bi, b.bi)) })
		slices.SortFunc(evictions, func(a, b col) int { return cmp.Or(cmp.Compare(b.next, a.next), cmp.Compare(a.bi, b.bi)) })
		slices.SortFunc(later, func(a, b col) int { return cmp.Compare(a.next, b.next) })
		own := append(fetches, evictions...) // the columns made with iv
		if len(own) > 0 {
			if own[0].v <= last {
				t.Fatalf("%s: interval %v's first column %d does not follow the previous interval's last, %d", what, iv, own[0].v, last)
			}
			last = own[len(own)-1].v
		}
		want := append(own, later...)
		for i := 1; i < len(want); i++ {
			if want[i].v <= want[i-1].v {
				t.Fatalf("%s: interval %v: column %d of block %v (next request %d) comes after column %d of block %v (next request %d); want fetches by rising next request, then evictions by falling next request, ties in block order, then re-opened fetches: %v",
					what, iv, want[i].v, m.Blocks[want[i].bi], want[i].next, want[i-1].v, m.Blocks[want[i-1].bi], want[i-1].next, want)
			}
		}
		if len(fetches) > 1 {
			fetchRuns++
		}
		if len(evictions) > 1 {
			evictRuns++
		}
		reopened += len(later)
	}
	return fetchRuns, evictRuns, reopened
}

// TestColumnOrderFollowsNormalForm checks the order in which the program
// lists each interval's columns (checkColumnOrder) on random instances with
// D 1-3 and empty, partial and full initial caches, as built and after each
// of three Extend steps, which add intervals with their columns and re-open
// the fetch columns of the trailing gaps their requests close.
func TestColumnOrderFollowsNormalForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2727))
	var fetchRuns, evictRuns, reopened int
	disks := map[int]int{}
	for trial := 0; trial < 60; trial++ {
		in := dummyInstance(rng, trial%3)
		disks[in.Disks]++
		n0 := in.N()
		known := in.Blocks()
		m, err := Build(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for step := 0; step <= 3; step++ {
			if step > 0 {
				reqs := make([]core.BlockID, 1+rng.Intn(3))
				for i := range reqs {
					reqs[i] = known[rng.Intn(len(known))]
				}
				if err := m.Extend(reqs...); err != nil {
					t.Fatalf("trial %d: extend %v: %v", trial, reqs, err)
				}
			}
			f, e, r := checkColumnOrder(t, fmt.Sprintf("trial %d step %d (D=%d, |S_init|=%d)", trial, step, in.Disks, len(in.InitialCache)), m, n0)
			fetchRuns += f
			evictRuns += e
			reopened += r
		}
	}
	if fetchRuns == 0 || evictRuns == 0 || reopened == 0 || len(disks) != 3 {
		t.Fatalf("coverage: %d intervals with several fetches, %d with several evictions, %d re-opened fetches, trials per D %v",
			fetchRuns, evictRuns, reopened, disks)
	}
	t.Logf("summed over every check: %d intervals with several fetches, %d with several evictions, %d re-opened fetches; trials per D %v",
		fetchRuns, evictRuns, reopened, disks)
}
