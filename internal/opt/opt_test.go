package opt

import (
	"errors"
	"math/rand"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/sim"
	"pfcache/internal/single"
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

// verify executes the schedule of a result and checks that the executor
// agrees with the reported stall and respects the extra-cache budget.
func verify(t *testing.T, in *core.Instance, res *Result, extra int) {
	t.Helper()
	simRes, err := sim.Run(in, res.Schedule, sim.Options{})
	if err != nil {
		t.Fatalf("optimal schedule infeasible: %v\n%v", err, res.Schedule)
	}
	if simRes.Stall != res.Stall {
		t.Fatalf("executor stall %d != reported optimal stall %d\n%v", simRes.Stall, res.Stall, res.Schedule)
	}
	if simRes.ExtraCache > extra {
		t.Fatalf("optimal schedule used %d extra cache locations, budget %d", simRes.ExtraCache, extra)
	}
}

// TestIntroExampleOptimal checks that the optimal stall time of the paper's
// single-disk introduction example is 1 (elapsed time 11), matching the
// "better option" discussed in the paper.
func TestIntroExampleOptimal(t *testing.T) {
	in := introInstance()
	res, err := Optimal(in, Options{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if res.Stall != 1 || res.Elapsed != 11 {
		t.Fatalf("optimal stall=%d elapsed=%d, want 1 and 11", res.Stall, res.Elapsed)
	}
	verify(t, in, res, 0)
}

// TestIntroParallelOptimal checks that the optimal stall time of the paper's
// two-disk introduction example is 3, i.e. the schedule described in the
// paper is optimal.
func TestIntroParallelOptimal(t *testing.T) {
	in := introParallelInstance()
	res, err := Optimal(in, Options{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if res.Stall != 3 {
		t.Fatalf("optimal parallel stall = %d, want 3", res.Stall)
	}
	verify(t, in, res, 0)
}

// TestOptimalStallWrapper exercises the convenience wrapper.
func TestOptimalStallWrapper(t *testing.T) {
	st, err := OptimalStall(introInstance(), Options{})
	if err != nil || st != 1 {
		t.Fatalf("OptimalStall = %d, %v; want 1, nil", st, err)
	}
	if _, err := OptimalStall(core.SingleDisk(core.Sequence{0}, 0, 1), Options{}); err == nil {
		t.Fatalf("invalid instance accepted")
	}
}

// TestPrunedMatchesFull validates the exchange-argument pruning: on random
// tiny instances the pruned search and the full search find the same optimal
// stall time.
func TestPrunedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(7)
		blocks := 3 + rng.Intn(3)
		k := 2 + rng.Intn(2)
		f := 1 + rng.Intn(3)
		disks := 1 + rng.Intn(2)
		seq := workload.Uniform(n, blocks, int64(trial))
		in := workload.Instance(seq, k, f, disks, workload.AssignStripe, 0)
		pruned, err := Optimal(in, Options{})
		if err != nil {
			t.Fatalf("trial %d pruned: %v", trial, err)
		}
		full, err := Optimal(in, Options{Full: true})
		if err != nil {
			t.Fatalf("trial %d full: %v", trial, err)
		}
		if pruned.Stall != full.Stall {
			t.Fatalf("trial %d: pruned stall %d != full stall %d (seq=%v k=%d F=%d D=%d)",
				trial, pruned.Stall, full.Stall, seq, k, f, disks)
		}
		verify(t, in, pruned, 0)
		verify(t, in, full, 0)
	}
}

// TestOptimalLowerBoundsSingleDiskAlgorithms checks on random small instances
// that no approximation algorithm beats the exhaustive optimum and that the
// measured ratios respect the paper's bounds (Theorem 1 for Aggressive, 2 for
// Conservative, Theorem 3 for Delay).
func TestOptimalLowerBoundsSingleDiskAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(8)
		blocks := 4 + rng.Intn(4)
		k := 2 + rng.Intn(3)
		f := 2 + rng.Intn(3)
		seq := workload.Uniform(n, blocks, int64(100+trial))
		in := core.SingleDisk(seq, k, f)
		optRes, err := Optimal(in, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verify(t, in, optRes, 0)
		check := func(name string, sched *core.Schedule, bound float64) {
			res, err := sim.Run(in, sched, sim.Options{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if res.Stall < optRes.Stall {
				t.Fatalf("trial %d: %s stall %d beats optimal %d (seq=%v k=%d F=%d)",
					trial, name, res.Stall, optRes.Stall, seq, k, f)
			}
			ratio := float64(res.Elapsed) / float64(optRes.Elapsed)
			if ratio > bound+1e-9 {
				t.Fatalf("trial %d: %s elapsed ratio %.4f exceeds bound %.4f (seq=%v k=%d F=%d)",
					trial, name, ratio, bound, seq, k, f)
			}
		}
		ag, err := single.Aggressive(in)
		if err != nil {
			t.Fatalf("Aggressive: %v", err)
		}
		check("aggressive", ag, single.AggressiveUpperBound(k, f))
		cons, err := single.Conservative(in)
		if err != nil {
			t.Fatalf("Conservative: %v", err)
		}
		check("conservative", cons, single.ConservativeUpperBound())
		for _, d := range []int{0, 1, 2, 5} {
			dl, err := single.Delay(in, d)
			if err != nil {
				t.Fatalf("Delay(%d): %v", d, err)
			}
			check("delay", dl, single.DelayUpperBound(d, f))
		}
		comb, err := single.Combination(in)
		if err != nil {
			t.Fatalf("Combination: %v", err)
		}
		check("combination", comb, single.CombinationUpperBound(k, f))
	}
}

// TestOptimalParallelFeasibleAndConsistent checks optimal schedules on random
// multi-disk instances: they execute to exactly the reported stall, use no
// extra cache, and improve (weakly) when an extra cache location is granted.
func TestOptimalParallelFeasibleAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(6)
		blocks := 4 + rng.Intn(4)
		k := 2 + rng.Intn(2)
		f := 1 + rng.Intn(3)
		disks := 2 + rng.Intn(2)
		seq := workload.Uniform(n, blocks, int64(200+trial))
		in := workload.Instance(seq, k, f, disks, workload.AssignStripe, 0)
		base, err := Optimal(in, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verify(t, in, base, 0)
		extra, err := Optimal(in, Options{ExtraCache: 1})
		if err != nil {
			t.Fatalf("trial %d extra: %v", trial, err)
		}
		verify(t, in, extra, 1)
		if extra.Stall > base.Stall {
			t.Fatalf("trial %d: extra cache increased optimal stall (%d > %d)", trial, extra.Stall, base.Stall)
		}
		if base.StatesExpanded <= 0 {
			t.Fatalf("trial %d: no states expanded", trial)
		}
	}
}

// TestMonotonicityInCacheSize checks that the optimal stall time is
// non-increasing in the cache size.
func TestMonotonicityInCacheSize(t *testing.T) {
	seq := workload.Zipf(14, 6, 1.0, 9)
	prev := -1
	for k := 1; k <= 5; k++ {
		in := core.SingleDisk(seq, k, 3)
		st, err := OptimalStall(in, Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if prev >= 0 && st > prev {
			t.Fatalf("optimal stall increased from %d to %d when k grew to %d", prev, st, k)
		}
		prev = st
	}
}

// TestSequentialScanNeedsNoStallWithPrefetch checks a textbook case: a scan
// over m blocks with F <= k-1 can hide every fetch after the cold start.
func TestSequentialScanNeedsNoStallWithPrefetch(t *testing.T) {
	// Cache of 4, F = 2, scanning 8 blocks twice; the first k blocks are
	// warm.  After the cold region, prefetching hides all fetches except the
	// unavoidable ones at the start.
	seq := workload.SequentialScan(16, 8)
	in := core.SingleDisk(seq, 4, 2).WithInitialCache(0, 1, 2, 3)
	res, err := Optimal(in, Options{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	verify(t, in, res, 0)
	// Every block is re-referenced 8 requests later while fetches take 2 time
	// units and the disk is the only bottleneck: 12 fetches of 2 time units
	// fit in 16 request slots only if perfectly pipelined; the optimum must
	// still be strictly better than demand paging (12 * 2 = 24 stall).
	if res.Stall >= 24 {
		t.Fatalf("optimal stall %d not better than demand paging", res.Stall)
	}
}

// TestTooLarge checks the state budget guard.
func TestTooLarge(t *testing.T) {
	seq := workload.Uniform(40, 12, 1)
	in := core.SingleDisk(seq, 6, 4)
	// The blind reference search materialises states fastest; the informed
	// engine could in principle solve this instance within the budget.
	_, err := Optimal(in, Options{MaxStates: 50, NoHeuristic: true})
	var tooLarge *TooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("error = %v, want TooLargeError", err)
	}
	if tooLarge.Error() == "" {
		t.Fatalf("empty error string")
	}
}

// TestInputValidation checks rejection of unsupported instances.
func TestInputValidation(t *testing.T) {
	if _, err := Optimal(core.SingleDisk(core.Sequence{0}, 0, 1), Options{}); err == nil {
		t.Errorf("invalid instance accepted")
	}
	seq := make(core.Sequence, 70)
	for i := range seq {
		seq[i] = core.BlockID(i)
	}
	if _, err := Optimal(core.SingleDisk(seq, 2, 1), Options{}); err == nil {
		t.Errorf("instance with more than 64 blocks accepted")
	}
	diskOf := map[core.BlockID]int{0: 0}
	many := core.MultiDisk(core.Sequence{0}, 1, 1, 9, diskOf)
	if _, err := Optimal(many, Options{}); err == nil {
		t.Errorf("instance with more than 8 disks accepted")
	}
}

// TestFlightEncoding exercises the flight encoding helpers.
func TestFlightEncoding(t *testing.T) {
	f := flightOf(13, 7)
	if flightBlock(f) != 13 || flightRemaining(f) != 7 {
		t.Fatalf("flight encoding round trip failed: %d %d", flightBlock(f), flightRemaining(f))
	}
	if flightOf(0, 1) == 0 {
		t.Fatalf("flight encoding of block 0 collides with the idle sentinel")
	}
}
