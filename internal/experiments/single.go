package experiments

import (
	"fmt"

	"pfcache/internal/core"
	"pfcache/internal/opt"
	"pfcache/internal/report"
	"pfcache/internal/sim"
	"pfcache/internal/single"
	"pfcache/internal/stats"
	"pfcache/internal/workload"
)

// IntroSingleDiskInstance returns the worked example from the introduction of
// the paper: sigma = b1 b2 b3 b4 b4 b5 b1 b4 b4 b2 with k = 4, F = 4 and
// b1..b4 initially cached.
func IntroSingleDiskInstance() *core.Instance {
	seq := core.Sequence{0, 1, 2, 3, 3, 4, 0, 3, 3, 1}
	return core.SingleDisk(seq, 4, 4).WithInitialCache(0, 1, 2, 3)
}

// IntroParallelInstance returns the two-disk worked example from the
// introduction: sigma = b1 b2 c1 c2 b3 c3 b4 with k = 4, F = 4, b1,b2,c1,c2
// initially cached, b-blocks on disk 0 and c-blocks on disk 1.
func IntroParallelInstance() *core.Instance {
	seq := core.Sequence{0, 1, 4, 5, 2, 6, 3}
	diskOf := map[core.BlockID]int{0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
	return core.MultiDisk(seq, 4, 4, 2, diskOf).WithInitialCache(0, 1, 4, 5)
}

// runSingle executes a single-disk algorithm and returns its executor result.
func runSingle(in *core.Instance, a single.Algorithm) (*sim.Result, error) {
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

// E1IntroExample reproduces the single-disk worked example of the paper's
// introduction.  The paper discusses two schedules, with elapsed times 13
// (the Aggressive-style early fetch) and 11 (the better, delayed fetch); the
// table reports what each implemented algorithm and the exhaustive optimum
// achieve.  Expected shape: Aggressive 13, optimal 11, Delay(1) and the LP
// pipeline 11.
func E1IntroExample(cfg Config) (*report.Table, error) {
	in := IntroSingleDiskInstance()
	t := report.NewTable("E1: introduction example, single disk (k=4, F=4, n=10)",
		"algorithm", "stall", "elapsed")
	t.Note = "Paper: early fetch gives elapsed 13, the better schedule 11."
	algos := []single.Algorithm{}
	for _, name := range []string{"aggressive", "conservative", "delay:1", "combination", "demand-min"} {
		a, err := single.ByName(name)
		if err != nil {
			return nil, err
		}
		algos = append(algos, a)
	}
	for _, a := range algos {
		res, err := runSingle(in, a)
		if err != nil {
			return nil, err
		}
		t.AddRow(a.Name, res.Stall, res.Elapsed)
	}
	optRes, err := opt.Optimal(in, cfg.optOptions(opt.Options{}))
	if err != nil {
		return nil, err
	}
	t.AddRow("optimal (exhaustive)", optRes.Stall, optRes.Elapsed)
	return t, nil
}

// E3AggressiveRatio measures the elapsed-time ratio of Aggressive against the
// exhaustive optimum across cache sizes, fetch times and workload shapes, and
// compares it with the refined Theorem 1 bound and the original bound of Cao
// et al.  Expected shape: every measured ratio is at most the Theorem 1 bound
// (which is itself at most the Cao bound and at most 2), and the bound
// tightens as k grows relative to F.
func E3AggressiveRatio(cfg Config) (*report.Table, error) {
	t := report.NewTable("E3: Aggressive elapsed-time ratio vs bounds (Theorem 1)",
		"k", "F", "workload", "mean ratio", "max ratio", "Thm1 bound", "Cao bound")
	t.Note = "Expected: max ratio <= Thm1 bound <= Cao bound <= 2.  The *-36 workloads are the larger instances unlocked by the A*/branch-and-bound search."
	type setting struct{ k, f int }
	configs := []setting{{3, 2}, {4, 2}, {4, 4}, {5, 3}, {5, 5}, {3, 5}}
	workloads := []struct {
		name string
		gen  func(seed int64) core.Sequence
	}{
		{"uniform", func(seed int64) core.Sequence { return workload.Uniform(20, 8, seed) }},
		{"zipf", func(seed int64) core.Sequence { return workload.Zipf(20, 8, 1.1, seed) }},
		{"loop", func(seed int64) core.Sequence { return workload.Loop(7, 3) }},
		{"uniform-36", func(seed int64) core.Sequence { return workload.Uniform(36, 10, seed) }},
		{"zipf-36", func(seed int64) core.Sequence { return workload.Zipf(36, 10, 1.1, seed) }},
	}
	type point struct{ mean, max float64 }
	points := make([]point, len(configs)*len(workloads))
	err := cfg.forEach(len(points), func(i int) error {
		c := configs[i/len(workloads)]
		w := workloads[i%len(workloads)]
		var ratios []float64
		for seed := int64(0); seed < 3; seed++ {
			in := core.SingleDisk(w.gen(seed), c.k, c.f)
			optRes, err := opt.Optimal(in, cfg.optOptions(opt.Options{}))
			if err != nil {
				return err
			}
			a, _ := single.ByName("aggressive")
			res, err := runSingle(in, a)
			if err != nil {
				return err
			}
			ratios = append(ratios, stats.Ratio(float64(res.Elapsed), float64(optRes.Elapsed)))
		}
		s := stats.Summarize(ratios)
		points[i] = point{mean: s.Mean, max: s.Max}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		c := configs[i/len(workloads)]
		w := workloads[i%len(workloads)]
		t.AddRow(c.k, c.f, w.name, p.mean, p.max,
			single.AggressiveUpperBound(c.k, c.f), single.CaoAggressiveBound(c.k, c.f))
	}
	return t, nil
}

// E4AggressiveLowerBound runs Aggressive on the Theorem 2 phase construction
// and reports how its elapsed time compares with the optimal behaviour
// (realised here by Conservative, which on this instance evicts only the
// previous phase's blocks).  Expected shape: the measured ratio climbs with
// the number of phases towards the Theorem 2 bound 1 + F/(k + (k-1)/(F-1))
// and stays below the Theorem 1 upper bound.
func E4AggressiveLowerBound(cfg Config) (*report.Table, error) {
	t := report.NewTable("E4: Theorem 2 lower-bound construction",
		"k", "F", "phases", "aggressive elapsed", "optimal elapsed", "ratio", "Thm2 bound", "Thm1 bound")
	t.Note = "Expected: ratio climbs with phases towards (k+l+F)/(k+l+2), which tends to the Thm2 bound for large k and F."
	type setting struct{ k, f int }
	configs := []setting{{7, 4}, {5, 3}, {9, 5}, {13, 5}}
	phaseSet := []int{2, 6, 16, 40}
	type row struct{ agg, cons int }
	rows := make([]row, len(configs)*len(phaseSet))
	err := cfg.forEach(len(rows), func(i int) error {
		c := configs[i/len(phaseSet)]
		phases := phaseSet[i%len(phaseSet)]
		in, err := workload.AggressiveAdversary(c.k, c.f, phases)
		if err != nil {
			return err
		}
		ag, _ := single.ByName("aggressive")
		ares, err := runSingle(in, ag)
		if err != nil {
			return err
		}
		cons, _ := single.ByName("conservative")
		cres, err := runSingle(in, cons)
		if err != nil {
			return err
		}
		rows[i] = row{agg: ares.Elapsed, cons: cres.Elapsed}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		c := configs[i/len(phaseSet)]
		phases := phaseSet[i%len(phaseSet)]
		ratio := stats.Ratio(float64(r.agg), float64(r.cons))
		t.AddRow(c.k, c.f, phases, r.agg, r.cons, ratio,
			single.AggressiveLowerBound(c.k, c.f), single.AggressiveUpperBound(c.k, c.f))
	}
	return t, nil
}

// E5DelaySweep sweeps the delay parameter d of Delay(d) and reports the
// analytic Theorem 3 bound together with the measured worst-case ratio
// against the exhaustive optimum on small workloads.  Expected shape: the
// analytic bound has an interior minimum near d0 = floor((sqrt(3)-1)/2*F)
// with value about sqrt(3) = 1.732, bridging Aggressive (d = 0, bound 2 when
// F >= k) and Conservative-like behaviour for large d; measured ratios stay
// below the bound for every d.
func E5DelaySweep(cfg Config) (*report.Table, error) {
	const k, f = 4, 6
	t := report.NewTable(fmt.Sprintf("E5: Delay(d) sweep (k=%d, F=%d)", k, f),
		"n", "d", "Thm3 bound", "mean ratio", "max ratio")
	t.Note = fmt.Sprintf("Expected: bound minimised near d0=%d at about sqrt(3)=1.732.  n=20 are the historical rows, n=32 the larger instances.", single.BestDelay(f))
	sets := []struct {
		n    int
		gens []func(seed int64) core.Sequence
	}{
		{20, []func(seed int64) core.Sequence{
			func(seed int64) core.Sequence { return workload.Uniform(20, 7, seed) },
			func(seed int64) core.Sequence { return workload.Zipf(20, 7, 1.2, seed+100) },
		}},
		{32, []func(seed int64) core.Sequence{
			func(seed int64) core.Sequence { return workload.Uniform(32, 9, seed) },
			func(seed int64) core.Sequence { return workload.Zipf(32, 9, 1.2, seed+100) },
		}},
	}
	// Precompute the optima once per instance, in parallel.
	type inst struct {
		in  *core.Instance
		opt int
	}
	const instSeeds = 2
	// The flat index arithmetic below requires every size group to hold the
	// same number of instances.
	perSet := len(sets[0].gens) * instSeeds
	for _, set := range sets {
		if len(set.gens)*instSeeds != perSet {
			return nil, fmt.Errorf("E5: size group n=%d has %d generators, want %d", set.n, len(set.gens), perSet/instSeeds)
		}
	}
	instances := make([]inst, len(sets)*perSet)
	err := cfg.forEach(len(instances), func(i int) error {
		set := sets[i/perSet]
		j := i % perSet
		g := set.gens[j/instSeeds]
		seed := int64(j % instSeeds)
		in := core.SingleDisk(g(seed), k, f)
		o, err := opt.Optimal(in, cfg.optOptions(opt.Options{}))
		if err != nil {
			return err
		}
		instances[i] = inst{in: in, opt: o.Elapsed}
		return nil
	})
	if err != nil {
		return nil, err
	}
	type point struct{ mean, max float64 }
	sweep := 2*f + 1
	points := make([]point, len(sets)*sweep)
	err = cfg.forEach(len(points), func(i int) error {
		si := i / sweep
		d := i % sweep
		var ratios []float64
		for _, it := range instances[si*perSet : (si+1)*perSet] {
			sched, err := single.Delay(it.in, d)
			if err != nil {
				return err
			}
			res, err := sim.Run(it.in, sched, sim.Options{})
			if err != nil {
				return err
			}
			ratios = append(ratios, stats.Ratio(float64(res.Elapsed), float64(it.opt)))
		}
		s := stats.Summarize(ratios)
		points[i] = point{mean: s.Mean, max: s.Max}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		t.AddRow(sets[i/sweep].n, i%sweep, single.DelayUpperBound(i%sweep, f), p.mean, p.max)
	}
	return t, nil
}

// E6Combination compares Aggressive, Conservative, Delay(d0), Combination and
// the demand baseline head to head against the exhaustive optimum.  Expected
// shape: Combination is never worse than both Aggressive and Conservative on
// the same instance family (Corollary 2), and every prefetching algorithm
// beats the demand baseline.
func E6Combination(cfg Config) (*report.Table, error) {
	t := report.NewTable("E6: head-to-head comparison (elapsed-time ratio to optimal)",
		"workload", "k", "F", "aggressive", "conservative", "delay:auto", "combination", "demand-min")
	t.Note = "Expected: combination <= max(aggressive, conservative); demand worst."
	type setting struct {
		name string
		k, f int
		gen  func(seed int64) core.Sequence
	}
	configs := []setting{
		{"uniform", 4, 3, func(seed int64) core.Sequence { return workload.Uniform(20, 8, seed) }},
		{"zipf", 4, 5, func(seed int64) core.Sequence { return workload.Zipf(20, 8, 1.2, seed) }},
		{"loop", 3, 4, func(seed int64) core.Sequence { return workload.Loop(6, 3) }},
		{"phased", 4, 4, func(seed int64) core.Sequence { return workload.Phased(2, 10, 5, 2, seed) }},
		{"uniform-32", 5, 4, func(seed int64) core.Sequence { return workload.Uniform(32, 10, seed) }},
		{"phased-32", 5, 3, func(seed int64) core.Sequence { return workload.Phased(2, 16, 8, 3, seed) }},
	}
	algoNames := []string{"aggressive", "conservative", "delay:auto", "combination", "demand-min"}
	const seeds = 3
	points := make([][]float64, len(configs)*seeds)
	err := cfg.forEach(len(points), func(i int) error {
		c := configs[i/seeds]
		seed := int64(i % seeds)
		in := core.SingleDisk(c.gen(seed), c.k, c.f)
		optRes, err := opt.Optimal(in, cfg.optOptions(opt.Options{}))
		if err != nil {
			return err
		}
		vals := make([]float64, len(algoNames))
		for ai, name := range algoNames {
			a, err := single.ByName(name)
			if err != nil {
				return err
			}
			res, err := runSingle(in, a)
			if err != nil {
				return err
			}
			vals[ai] = stats.Ratio(float64(res.Elapsed), float64(optRes.Elapsed))
		}
		points[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range configs {
		row := []interface{}{c.name, c.k, c.f}
		for ai := range algoNames {
			var vals []float64
			for _, p := range points[ci*seeds : (ci+1)*seeds] {
				vals = append(vals, p[ai])
			}
			row = append(row, stats.Summarize(vals).Mean)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// A2EvictionAblation removes the two ingredients of the integrated algorithms
// one at a time: prefetching (demand paging with MIN replacement) and the
// optimal replacement rule (demand paging with LRU/FIFO replacement), and
// compares them with Aggressive on the same workloads.  Expected shape:
// integrated prefetching+MIN < demand+MIN < demand+LRU/FIFO in elapsed time.
func A2EvictionAblation(cfg Config) (*report.Table, error) {
	t := report.NewTable("A2: ablation - value of prefetching and of the eviction rule",
		"workload", "aggressive", "demand-min", "demand-lru", "demand-fifo")
	t.Note = "Mean elapsed time; expected ordering: aggressive < demand-min < demand-lru/fifo."
	type setting struct {
		name string
		gen  func(seed int64) core.Sequence
	}
	configs := []setting{
		{"uniform", func(seed int64) core.Sequence { return workload.Uniform(300, 24, seed) }},
		{"zipf", func(seed int64) core.Sequence { return workload.Zipf(300, 24, 1.1, seed) }},
		{"loop", func(seed int64) core.Sequence { return workload.Loop(10, 30) }},
	}
	algoNames := []string{"aggressive", "demand-min", "demand-lru", "demand-fifo"}
	const seeds = 3
	points := make([][]float64, len(configs)*seeds)
	err := cfg.forEach(len(points), func(i int) error {
		c := configs[i/seeds]
		seed := int64(i % seeds)
		in := core.SingleDisk(c.gen(seed), 8, 4)
		vals := make([]float64, len(algoNames))
		for ai, name := range algoNames {
			a, err := single.ByName(name)
			if err != nil {
				return err
			}
			res, err := runSingle(in, a)
			if err != nil {
				return err
			}
			vals[ai] = float64(res.Elapsed)
		}
		points[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range configs {
		row := []interface{}{c.name}
		for ai := range algoNames {
			var vals []float64
			for _, p := range points[ci*seeds : (ci+1)*seeds] {
				vals = append(vals, p[ai])
			}
			row = append(row, stats.Summarize(vals).Mean)
		}
		t.AddRow(row...)
	}
	return t, nil
}
