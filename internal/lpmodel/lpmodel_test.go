package lpmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

func introInstance() *core.Instance {
	seq := core.Sequence{0, 1, 2, 3, 3, 4, 0, 3, 3, 1}
	return core.SingleDisk(seq, 4, 4).WithInitialCache(0, 1, 2, 3)
}

func introParallelInstance() *core.Instance {
	seq := core.Sequence{0, 1, 4, 5, 2, 6, 3}
	diskOf := map[core.BlockID]int{0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
	return core.MultiDisk(seq, 4, 4, 2, diskOf).WithInitialCache(0, 1, 4, 5)
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Start: 2, End: 5}
	if iv.Length() != 2 {
		t.Errorf("Length = %d, want 2", iv.Length())
	}
	if iv.Stall(4) != 2 {
		t.Errorf("Stall = %d, want 2", iv.Stall(4))
	}
	if !iv.ContainsRequest(3) || !iv.ContainsRequest(4) || iv.ContainsRequest(2) || iv.ContainsRequest(5) {
		t.Errorf("ContainsRequest wrong for %v", iv)
	}
	if iv.String() != "(2,5)" {
		t.Errorf("String = %q", iv.String())
	}
}

func TestBuildBasicStructure(t *testing.T) {
	in := introParallelInstance()
	m, err := Build(in)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The dummy fills the cache from 4 to k + D - 1 = 5 locations.
	if m.DummyCopies != 1 || m.Blocks[len(m.Blocks)-1] != m.Dummy {
		t.Fatalf("dummy %v carrying %d, want the last block carrying 1", m.Dummy, m.DummyCopies)
	}
	// Interval count: for each start i in [0,n-1], ends i+1..min(n, i+F+1).
	n, f := in.N(), in.F
	want := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j <= n && j-i-1 <= f; j++ {
			want++
		}
	}
	if len(m.Intervals) != want {
		t.Fatalf("intervals = %d, want %d", len(m.Intervals), want)
	}
	// Every block is requested once: 0, 1, 4, 5, 2, 6, 3 at requests 1..7.
	// With n=7 and F=4, A(q) = sum_{e=1..q} min(e, 5) intervals end by
	// request q and B(q) = sum_{s=q..6} min(7-s, 5) start at or after it:
	// A = 1, 3, 6, 10, 15, 20, 25 and B = 20, 15, 10, 6, 3, 1, 0 for
	// q = 1..7.  A block requested at q gets a fetch column in the A(q)
	// intervals its request closes and none in its trailing gap: 80 in all.
	// It gets an evict column in those A(q) intervals only when it starts in
	// cache, and in all B(q) of its trailing gap: 71 for the initial blocks
	// 0, 1, 4 and 5, 4 for blocks 2, 6 and 3.  The never-requested dummy
	// gets an evict column in all 25 intervals and no fetch column: 100.
	x, fv, ev := m.VariableCounts()
	if x != 25 || fv != 80 || ev != 100 {
		t.Fatalf("variable counts x=%d f=%d e=%d, want 25, 80 and 100", x, fv, ev)
	}
	if m.Problem.NumConstraints() == 0 {
		t.Fatalf("no constraints generated")
	}
	// The dummy lives on disk 0.
	if m.blockDisk(m.Dummy) != 0 {
		t.Fatalf("dummy on disk %d, want 0", m.blockDisk(m.Dummy))
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	if _, err := Build(core.SingleDisk(core.Sequence{}, 2, 2)); err == nil {
		t.Errorf("empty sequence accepted")
	}
	if _, err := Build(core.SingleDisk(core.Sequence{0}, 0, 2)); err == nil {
		t.Errorf("invalid instance accepted")
	}
	if _, err := Plan(core.SingleDisk(core.Sequence{0}, 0, 2), lp.Options{}); err == nil {
		t.Errorf("Plan accepted an invalid instance")
	}
	if _, err := LowerBound(core.SingleDisk(core.Sequence{0}, 0, 2), lp.Options{}); err == nil {
		t.Errorf("LowerBound accepted an invalid instance")
	}
}

// TestLowerBoundMatchesOptimalIntro checks that the LP relaxation value
// equals the true optimal stall time on the two worked examples of the paper.
func TestLowerBoundMatchesOptimalIntro(t *testing.T) {
	lb, err := LowerBound(introInstance(), lp.Options{})
	if err != nil {
		t.Fatalf("LowerBound(single): %v", err)
	}
	if math.Abs(lb-1) > 1e-6 {
		t.Fatalf("single-disk intro lower bound = %f, want 1", lb)
	}
	lb, err = LowerBound(introParallelInstance(), lp.Options{})
	if err != nil {
		t.Fatalf("LowerBound(parallel): %v", err)
	}
	if lb > 3+1e-6 {
		t.Fatalf("parallel intro lower bound = %f, want at most 3", lb)
	}
	if lb < 2-1e-6 {
		t.Fatalf("parallel intro lower bound = %f, implausibly small", lb)
	}
}

// TestPlanIntroExamples checks the full pipeline on the worked examples: the
// extracted schedule must match the optimal stall time and stay within the
// Theorem 4 extra-cache budget.
func TestPlanIntroExamples(t *testing.T) {
	res, err := Plan(introInstance(), lp.Options{})
	if err != nil {
		t.Fatalf("Plan(single): %v", err)
	}
	if res.Stall != 1 {
		t.Fatalf("single-disk intro stall = %d, want 1\n%v", res.Stall, res.Schedule)
	}
	if res.ExtraCache > 0 {
		t.Fatalf("single-disk intro used %d extra locations, want 0", res.ExtraCache)
	}
	pres, err := Plan(introParallelInstance(), lp.Options{})
	if err != nil {
		t.Fatalf("Plan(parallel): %v", err)
	}
	if pres.Stall > 3 {
		t.Fatalf("parallel intro stall = %d, want at most 3\n%v", pres.Stall, pres.Schedule)
	}
	if pres.ExtraCache > 2 {
		t.Fatalf("parallel intro used %d extra locations, want at most 2(D-1)=2", pres.ExtraCache)
	}
}

// TestGapIntervalsMatchesScan cross-checks the offset-indexed gapIntervals
// against a direct scan of every interval, on the full range and on random
// (lo, hi) gaps, including empty and out-of-range ones.
func TestGapIntervalsMatchesScan(t *testing.T) {
	seq := workload.Uniform(14, 6, 42)
	in := workload.Instance(seq, 3, 2, 2, workload.AssignStripe, 0)
	m, err := Build(in)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	n := in.N()
	check := func(lo, hi int) {
		got := append([]int(nil), m.gapIntervals(lo, hi)...)
		var want []int
		for idx, iv := range m.Intervals {
			if iv.Start >= lo && iv.End <= hi {
				want = append(want, idx)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("gapIntervals(%d, %d) = %v, scan says %v", lo, hi, got, want)
		}
	}
	check(0, n)
	check(0, 0)
	check(n, n)
	check(-1, n+3)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+2-lo)
		check(lo, hi)
	}
}
