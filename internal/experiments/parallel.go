package experiments

import (
	"errors"
	"fmt"

	"pfcache/internal/core"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/parallel"
	"pfcache/internal/report"
	"pfcache/internal/sim"
	"pfcache/internal/stats"
	"pfcache/internal/workload"
)

// runParallel executes a parallel-disk algorithm and returns its executor
// result.
func runParallel(in *core.Instance, a parallel.Algorithm) (*sim.Result, error) {
	sched, err := a.Run(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	res, err := sim.Run(in, sched, sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return res, nil
}

// E2IntroParallelExample reproduces the two-disk worked example of the
// introduction, whose schedule has total stall time 3 (which the exhaustive
// search confirms to be optimal).  Expected shape: parallel Aggressive and
// the LP algorithm achieve stall 3; demand paging pays the full fetch time
// per fault.
func E2IntroParallelExample(cfg Config) (*report.Table, error) {
	in := IntroParallelInstance()
	t := report.NewTable("E2: introduction example, two disks (k=4, F=4, n=7)",
		"algorithm", "stall", "elapsed", "extra cache")
	t.Note = "Paper: the described schedule has stall time 3."
	for _, a := range parallel.AlgorithmsWith(cfg.lpOptions()) {
		res, err := runParallel(in, a)
		if err != nil {
			return nil, err
		}
		t.AddRow(a.Name, res.Stall, res.Elapsed, res.ExtraCache)
	}
	optRes, err := opt.Optimal(in, cfg.optOptions(opt.Options{}))
	if err != nil {
		return nil, err
	}
	t.AddRow("optimal (exhaustive)", optRes.Stall, optRes.Elapsed, 0)
	return t, nil
}

// E7ParallelLPOptimal is the reproduction of Theorem 4: on random multi-disk
// instances the LP-based schedule must not exceed the optimal stall time
// sOPT(sigma, k) while using at most 2(D-1) extra cache locations, improving
// on the previous D-approximation.  Expected shape: "stall ratio" at most
// 1.000 for every D (the schedule may even beat OPT(k) thanks to its extra
// locations) and "max extra" at most 2(D-1).  The n=11 rows are the
// historical instance size, the n=22 rows the sizes the A*/branch-and-bound
// search first unlocked, and the n=40 rows the sizes reachable with the
// layered bounds.  The four trailing columns attribute the exact engine's
// work per bound layer on the same instances: the matching-bound search
// alone ("astar"), with the landmark table ("astar+lm"), with landmarks and
// dominance merging ("astar+lm+dom" — the default engine), and the blind
// Dijkstra reference.  A -1 records a layer that exhausted its state budget.
func E7ParallelLPOptimal(cfg Config) (*report.Table, error) {
	t := report.NewTable("E7: Theorem 4 - LP schedule vs optimal stall",
		"D", "n", "instances", "mean stall ratio", "max stall ratio", "max extra cache", "budget 2(D-1)", "mean LP bound / OPT", "astar expanded", "astar+lm expanded", "astar+lm+dom expanded", "dijkstra expanded")
	t.Note = "Expected: stall ratio <= 1.000, extra cache within budget, expansions shrink with every bound layer."
	diskSet := []int{1, 2, 3}
	sizes := []struct{ n, blocks, k, f int }{
		{11, 6, 3, 2},
		{22, 10, 4, 4},
		{40, 16, 4, 6},
	}
	const seeds = 4
	type point struct {
		ratio, bound                     float64
		extra                            int
		astarExp, lmExp, domExp, dijkExp int
	}
	// layerExpansions runs one engine configuration and returns its expansion
	// count, or -1 when the configuration exhausts its state budget (the
	// instance is then out of that layer's reach; stall agreement is checked
	// only for configurations that complete).
	layerExpansions := func(in *core.Instance, o opt.Options, wantStall int, label string) (int, error) {
		res, err := opt.Optimal(in, o)
		if err != nil {
			var tle *opt.TooLargeError
			if errors.As(err, &tle) {
				return -1, nil
			}
			return 0, err
		}
		if res.Stall != wantStall {
			return 0, fmt.Errorf("E7: %s engine disagrees: stall %d, want %d", label, res.Stall, wantStall)
		}
		return res.StatesExpanded, nil
	}
	points := make([]point, len(diskSet)*len(sizes)*seeds)
	err := cfg.forEach(len(points), func(i int) error {
		disks := diskSet[i/(len(sizes)*seeds)]
		size := sizes[i/seeds%len(sizes)]
		seed := int64(i % seeds)
		seq := workload.Uniform(size.n, size.blocks, 900+seed)
		in := workload.Instance(seq, size.k, size.f, disks, workload.AssignStripe, 0)
		optRes, err := opt.Optimal(in, cfg.optOptions(opt.Options{}))
		if err != nil {
			return err
		}
		astarExp, err := layerExpansions(in, cfg.optOptions(opt.Options{NoLandmarks: true, NoDominance: true}), optRes.Stall, "matching-bound")
		if err != nil {
			return err
		}
		lmExp, err := layerExpansions(in, cfg.optOptions(opt.Options{NoDominance: true}), optRes.Stall, "landmark")
		if err != nil {
			return err
		}
		dijkExp, err := layerExpansions(in, cfg.optOptions(opt.Options{Bound: opt.BoundNone, NoHeuristic: true}), optRes.Stall, "dijkstra")
		if err != nil {
			return err
		}
		// The batch shares solver arenas and symbolic factorizations across
		// the rows this worker processes; a cold batched solve is
		// bit-identical to a plain lpmodel.Plan.
		mb := cfg.acquireBatch()
		res, err := lpmodel.PlanBatch(mb, in, cfg.lpOptions())
		cfg.releaseBatch(mb)
		if err != nil {
			return err
		}
		points[i] = point{
			ratio:    stats.Ratio(float64(res.Stall), float64(optRes.Stall)),
			bound:    stats.Ratio(res.LowerBound, float64(optRes.Stall)),
			extra:    res.ExtraCache,
			astarExp: astarExp,
			lmExp:    lmExp,
			domExp:   optRes.StatesExpanded,
			dijkExp:  dijkExp,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// sumExp adds a layer's expansions across a row group; one exhausted seed
	// (-1) marks the whole cell -1, since the sum would not be comparable.
	sumExp := func(acc, v int) int {
		if acc < 0 || v < 0 {
			return -1
		}
		return acc + v
	}
	for di, disks := range diskSet {
		for si, size := range sizes {
			var ratios, bounds []float64
			maxExtra := 0
			astarExp, lmExp, domExp, dijkExp := 0, 0, 0, 0
			base := (di*len(sizes) + si) * seeds
			for _, p := range points[base : base+seeds] {
				ratios = append(ratios, p.ratio)
				bounds = append(bounds, p.bound)
				if p.extra > maxExtra {
					maxExtra = p.extra
				}
				astarExp = sumExp(astarExp, p.astarExp)
				lmExp = sumExp(lmExp, p.lmExp)
				domExp = sumExp(domExp, p.domExp)
				dijkExp = sumExp(dijkExp, p.dijkExp)
			}
			s := stats.Summarize(ratios)
			b := stats.Summarize(bounds)
			t.AddRow(disks, size.n, seeds, s.Mean, s.Max, maxExtra, 2*(disks-1), b.Mean, astarExp, lmExp, domExp, dijkExp)
		}
	}
	return t, nil
}

// E8ParallelHeuristics measures how the greedy parallel strategies degrade as
// the number of disks grows, normalising stall times by the LP lower bound
// (a certified lower bound on the optimal stall time).  Expected shape: the
// LP algorithm stays at ratio about 1 while Aggressive, Conservative and
// especially demand paging drift upwards with D, the behaviour that motivates
// Theorem 4 (prior guarantees degraded like D).
func E8ParallelHeuristics(cfg Config) (*report.Table, error) {
	t := report.NewTable("E8: parallel heuristics vs number of disks (stall / LP lower bound)",
		"D", "lp-optimal", "aggressive", "conservative", "demand")
	t.Note = "Expected: lp-optimal stays near 1; the others grow with D."
	diskSet := []int{1, 2, 3, 4}
	algos := parallel.AlgorithmsWith(cfg.lpOptions())
	// The interleaved workload is deterministic for a given D (the old
	// per-seed loop recomputed identical instances), so one point per D
	// suffices.
	points := make([][]float64, len(diskSet))
	err := cfg.forEach(len(points), func(i int) error {
		disks := diskSet[i]
		seq := workload.Interleaved(16, disks, 5)
		in := workload.Instance(seq, 4, 3, disks, workload.AssignStripe, 0)
		// The lower-bound solve below and the planning re-solve in the
		// lp-optimal branch run through one ModelBatch, so the second solve
		// reuses the built model (zero rebuild), the symbolic factorization
		// and the pattern's warm basis.
		mb := cfg.acquireBatch()
		defer cfg.releaseBatch(mb)
		m, err := mb.Model(in)
		if err != nil {
			return err
		}
		frac, err := m.SolveBatch(mb.LP(), cfg.lpOptions())
		if err != nil {
			return err
		}
		lb := frac.Objective
		// Guard against a zero lower bound (nothing to fetch).
		if lb < 0.5 {
			lb = 1
		}
		vals := make([]float64, len(algos))
		for ai, a := range algos {
			if a.Name == "lp-optimal" {
				// The lower-bound solve above already solved this exact LP;
				// re-solving the same built Problem through the batch reuses
				// the pattern's warm basis, so it terminates without a pivot
				// at the same vertex: the row value is identical to a cold
				// Plan while the point pays for one phase-1 crash instead of
				// two and no model rebuild.
				frac2, err := m.SolveBatch(mb.LP(), cfg.lpOptions())
				if err != nil {
					return fmt.Errorf("%s: %w", a.Name, err)
				}
				res, err := lpmodel.Extract(m, frac2)
				if err != nil {
					return fmt.Errorf("%s: %w", a.Name, err)
				}
				vals[ai] = float64(res.Stall) / lb
				continue
			}
			res, err := runParallel(in, a)
			if err != nil {
				return err
			}
			vals[ai] = float64(res.Stall) / lb
		}
		points[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	for di, disks := range diskSet {
		row := []interface{}{disks}
		for ai := range algos {
			row = append(row, points[di][ai])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// A1SynchronizationAblation quantifies the two relaxations behind Lemma 3 and
// Theorem 4: how much the optimal stall time improves when the cache gets
// D-1 extra locations, and how the synchronized LP lower bound compares with
// both.  Expected shape: OPT(k + D - 1) <= OPT(k), and the synchronized LP
// bound is at most OPT(k) (Lemma 3), typically equal to it.
func A1SynchronizationAblation(cfg Config) (*report.Table, error) {
	t := report.NewTable("A1: ablation - extra cache locations and synchronization",
		"D", "instance", "OPT(k)", "OPT(k+D-1)", "LP bound (synchronized, k+D-1)")
	t.Note = "Expected: LP bound <= OPT(k); extra locations never hurt."
	diskSet := []int{2, 3}
	const seeds = 3
	type row struct {
		base, extra int
		lb          float64
	}
	rows := make([]row, len(diskSet)*seeds)
	err := cfg.forEach(len(rows), func(i int) error {
		disks := diskSet[i/seeds]
		seed := int64(i % seeds)
		seq := workload.Uniform(10, 6, 300+seed)
		in := workload.Instance(seq, 3, 2, disks, workload.AssignStripe, 0)
		base, err := opt.OptimalStall(in, cfg.optOptions(opt.Options{}))
		if err != nil {
			return err
		}
		extra, err := opt.OptimalStall(in, cfg.optOptions(opt.Options{ExtraCache: disks - 1}))
		if err != nil {
			return err
		}
		lb, err := lpmodel.LowerBound(in, cfg.lpOptions())
		if err != nil {
			return err
		}
		rows[i] = row{base: base, extra: extra, lb: lb}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(diskSet[i/seeds], fmt.Sprintf("uniform/%d", i%seeds), r.base, r.extra, r.lb)
	}
	return t, nil
}
