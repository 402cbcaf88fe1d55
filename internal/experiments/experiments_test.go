package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRegistry checks the experiment registry.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("expected 11 experiments, got %d", len(all))
	}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%q) failed: %v", e.ID, err)
		}
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
	if len(IDs()) != len(all) {
		t.Fatalf("IDs() length mismatch")
	}
}

// TestE1Numbers checks the worked-example numbers of the paper: Aggressive
// reaches elapsed time 13 and the optimum 11.
func TestE1Numbers(t *testing.T) {
	tab, err := E1IntroExample(Config{})
	if err != nil {
		t.Fatalf("E1: %v", err)
	}
	values := map[string]string{}
	for _, row := range tab.Rows {
		values[row[0]] = row[2]
	}
	if values["aggressive"] != "13" {
		t.Errorf("aggressive elapsed = %s, want 13", values["aggressive"])
	}
	if values["optimal (exhaustive)"] != "11" {
		t.Errorf("optimal elapsed = %s, want 11", values["optimal (exhaustive)"])
	}
	if values["delay:1"] != "11" {
		t.Errorf("delay:1 elapsed = %s, want 11", values["delay:1"])
	}
}

// TestE2Numbers checks that the two-disk worked example's optimal stall is 3
// and that the LP algorithm matches it.
func TestE2Numbers(t *testing.T) {
	tab, err := E2IntroParallelExample(Config{})
	if err != nil {
		t.Fatalf("E2: %v", err)
	}
	stall := map[string]string{}
	for _, row := range tab.Rows {
		stall[row[0]] = row[1]
	}
	if stall["optimal (exhaustive)"] != "3" {
		t.Errorf("optimal stall = %s, want 3", stall["optimal (exhaustive)"])
	}
	if stall["aggressive"] != "3" {
		t.Errorf("parallel aggressive stall = %s, want 3", stall["aggressive"])
	}
	if v, err := strconv.Atoi(stall["lp-optimal"]); err != nil || v > 3 {
		t.Errorf("lp-optimal stall = %s, want at most 3", stall["lp-optimal"])
	}
}

// TestE3RespectsBounds checks that every measured Aggressive ratio stays
// below the Theorem 1 bound reported in the same row.
func TestE3RespectsBounds(t *testing.T) {
	tab, err := E3AggressiveRatio(Config{})
	if err != nil {
		t.Fatalf("E3: %v", err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("empty table")
	}
	for _, row := range tab.Rows {
		max, err1 := strconv.ParseFloat(row[4], 64)
		bound, err2 := strconv.ParseFloat(row[5], 64)
		cao, err3 := strconv.ParseFloat(row[6], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("bad row %v", row)
		}
		if max > bound+1e-9 {
			t.Errorf("row %v: measured ratio exceeds Theorem 1 bound", row)
		}
		if bound > cao+1e-9 {
			t.Errorf("row %v: refined bound worse than Cao bound", row)
		}
		if bound > 2+1e-9 {
			t.Errorf("row %v: bound exceeds 2", row)
		}
	}
}

// TestE4RatioGrowsWithPhases checks the Theorem 2 construction: for each
// (k, F) the measured ratio is non-decreasing in the number of phases and
// stays between 1 and the Theorem 1 bound.
func TestE4RatioGrowsWithPhases(t *testing.T) {
	tab, err := E4AggressiveLowerBound(Config{})
	if err != nil {
		t.Fatalf("E4: %v", err)
	}
	prevKey := ""
	prevRatio := 0.0
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		ratio, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad ratio in %v", row)
		}
		upper, _ := strconv.ParseFloat(row[7], 64)
		if ratio < 1-1e-9 || ratio > upper+1e-9 {
			t.Errorf("row %v: ratio %f outside [1, %f]", row, ratio, upper)
		}
		if key == prevKey && ratio+1e-9 < prevRatio {
			t.Errorf("row %v: ratio decreased with more phases (%f -> %f)", row, prevRatio, ratio)
		}
		prevKey, prevRatio = key, ratio
	}
}

// TestE5ShapeAndBounds checks the Delay sweep: within each instance-size
// group the analytic bound has an interior minimum near d0 with value below
// 1.8, and measured ratios never exceed the analytic bound.
func TestE5ShapeAndBounds(t *testing.T) {
	tab, err := E5DelaySweep(Config{})
	if err != nil {
		t.Fatalf("E5: %v", err)
	}
	groups := map[string][][]string{}
	var order []string
	for _, row := range tab.Rows {
		n := row[0]
		if _, ok := groups[n]; !ok {
			order = append(order, n)
		}
		groups[n] = append(groups[n], row)
		d, _ := strconv.Atoi(row[1])
		bound, _ := strconv.ParseFloat(row[2], 64)
		max, _ := strconv.ParseFloat(row[4], 64)
		if max > bound+1e-9 {
			t.Errorf("n=%s d=%d: measured ratio %f exceeds Theorem 3 bound %f", n, d, max, bound)
		}
	}
	if len(order) < 2 {
		t.Fatalf("expected at least two instance-size groups, got %v", order)
	}
	for _, n := range order {
		rows := groups[n]
		minBound := 10.0
		minD := -1
		for _, row := range rows {
			d, _ := strconv.Atoi(row[1])
			bound, _ := strconv.ParseFloat(row[2], 64)
			if bound < minBound {
				minBound, minD = bound, d
			}
		}
		if minBound > 1.8 {
			t.Errorf("n=%s: minimum Theorem 3 bound %f is not near sqrt(3)", n, minBound)
		}
		first, _ := strconv.ParseFloat(rows[0][2], 64)
		last, _ := strconv.ParseFloat(rows[len(rows)-1][2], 64)
		if !(minBound < first && minBound < last) {
			t.Errorf("n=%s: bound minimum (d=%d) is not interior: ends %f %f min %f", n, minD, first, last, minBound)
		}
	}
}

// TestE6CombinationNeverWorst checks Corollary 2's shape: Combination's mean
// ratio never exceeds the worse of Aggressive and Conservative, and the
// demand baseline is the worst column.
func TestE6CombinationNeverWorst(t *testing.T) {
	tab, err := E6Combination(Config{})
	if err != nil {
		t.Fatalf("E6: %v", err)
	}
	for _, row := range tab.Rows {
		ag, _ := strconv.ParseFloat(row[3], 64)
		cons, _ := strconv.ParseFloat(row[4], 64)
		comb, _ := strconv.ParseFloat(row[6], 64)
		demand, _ := strconv.ParseFloat(row[7], 64)
		worse := ag
		if cons > worse {
			worse = cons
		}
		if comb > worse+1e-9 {
			t.Errorf("row %v: combination %f worse than both classical algorithms", row, comb)
		}
		if demand+1e-9 < ag || demand+1e-9 < cons {
			t.Errorf("row %v: demand baseline unexpectedly beats a prefetching algorithm", row)
		}
	}
}

// TestE7Theorem4 checks the headline result: the LP schedule's stall never
// exceeds the optimum (ratio at most 1.0) and the extra cache stays within
// 2(D-1).  It also checks the bound-layer attribution the table carries: on
// every row that every layer completes, expansions must shrink (weakly) with
// each added layer and the full engine must expand strictly fewer states than
// the blind Dijkstra reference.
func TestE7Theorem4(t *testing.T) {
	tab, err := E7ParallelLPOptimal(Config{})
	if err != nil {
		t.Fatalf("E7: %v", err)
	}
	for _, row := range tab.Rows {
		maxRatio, _ := strconv.ParseFloat(row[4], 64)
		extra, _ := strconv.Atoi(row[5])
		budget, _ := strconv.Atoi(row[6])
		astar, _ := strconv.Atoi(row[8])
		lm, _ := strconv.Atoi(row[9])
		dom, _ := strconv.Atoi(row[10])
		dijkstra, _ := strconv.Atoi(row[11])
		if maxRatio > 1+1e-9 {
			t.Errorf("row %v: LP stall ratio %f exceeds 1", row, maxRatio)
		}
		if extra > budget {
			t.Errorf("row %v: extra cache %d exceeds budget %d", row, extra, budget)
		}
		if astar < 0 || lm < 0 || dom < 0 || dijkstra < 0 {
			continue // a layer exhausted its budget; nothing to compare
		}
		if dom > lm || lm > astar {
			t.Errorf("row %v: expansions grew with a bound layer (astar %d, +lm %d, +dom %d)", row, astar, lm, dom)
		}
		if dom >= dijkstra {
			t.Errorf("row %v: full engine expanded %d states, not fewer than dijkstra's %d", row, dom, dijkstra)
		}
	}
}

// TestE8Shape checks that the LP algorithm's normalised stall never exceeds
// the other algorithms' and that demand paging is the worst strategy.
func TestE8Shape(t *testing.T) {
	tab, err := E8ParallelHeuristics(Config{})
	if err != nil {
		t.Fatalf("E8: %v", err)
	}
	for _, row := range tab.Rows {
		lpv, _ := strconv.ParseFloat(row[1], 64)
		ag, _ := strconv.ParseFloat(row[2], 64)
		cons, _ := strconv.ParseFloat(row[3], 64)
		demand, _ := strconv.ParseFloat(row[4], 64)
		if lpv > ag+1e-9 || lpv > cons+1e-9 || lpv > demand+1e-9 {
			t.Errorf("row %v: lp-optimal is not the best strategy", row)
		}
		if demand+1e-9 < ag {
			t.Errorf("row %v: demand beats aggressive", row)
		}
	}
}

// TestA1Shape checks the ablation invariants: extra cache never hurts and the
// synchronized LP bound never exceeds OPT(k).
func TestA1Shape(t *testing.T) {
	tab, err := A1SynchronizationAblation(Config{})
	if err != nil {
		t.Fatalf("A1: %v", err)
	}
	for _, row := range tab.Rows {
		base, _ := strconv.Atoi(row[2])
		extra, _ := strconv.Atoi(row[3])
		lb, _ := strconv.ParseFloat(row[4], 64)
		if extra > base {
			t.Errorf("row %v: extra cache increased the optimal stall", row)
		}
		if lb > float64(base)+1e-6 {
			t.Errorf("row %v: LP bound %f exceeds OPT(k) %d", row, lb, base)
		}
	}
}

// TestA2Shape checks the prefetching/eviction ablation ordering.
func TestA2Shape(t *testing.T) {
	tab, err := A2EvictionAblation(Config{})
	if err != nil {
		t.Fatalf("A2: %v", err)
	}
	for _, row := range tab.Rows {
		ag, _ := strconv.ParseFloat(row[1], 64)
		min, _ := strconv.ParseFloat(row[2], 64)
		lru, _ := strconv.ParseFloat(row[3], 64)
		if ag > min+1e-9 {
			t.Errorf("row %v: aggressive worse than demand-min", row)
		}
		if min > lru+1e-9 {
			t.Errorf("row %v: demand-min worse than demand-lru", row)
		}
	}
}

// TestTableRendering exercises the table renderers on a real experiment.
func TestTableRendering(t *testing.T) {
	tab, err := E1IntroExample(Config{})
	if err != nil {
		t.Fatalf("E1: %v", err)
	}
	text := tab.String()
	if !strings.Contains(text, "aggressive") || !strings.Contains(text, "E1") {
		t.Errorf("text rendering missing content:\n%s", text)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "algorithm,stall,elapsed") {
		t.Errorf("csv rendering missing header:\n%s", csv)
	}
}

// TestConcurrentDriverDeterministic runs an experiment with the sequential
// and the concurrent driver and requires byte-identical tables, the
// guarantee the worker pool makes for every experiment.
func TestConcurrentDriverDeterministic(t *testing.T) {
	seq, err := E5DelaySweep(Config{Workers: 1})
	if err != nil {
		t.Fatalf("sequential E5: %v", err)
	}
	par, err := E5DelaySweep(Config{Workers: 4})
	if err != nil {
		t.Fatalf("concurrent E5: %v", err)
	}
	if seq.String() != par.String() {
		t.Fatalf("concurrent table differs from sequential:\n--- sequential ---\n%s--- concurrent ---\n%s", seq, par)
	}
}

// TestRunAllPreservesOrder checks that RunAll returns results in input
// order with the right tables attached, regardless of worker scheduling.
func TestRunAllPreservesOrder(t *testing.T) {
	e1, err := ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(Config{Workers: 4}, []Experiment{e2, e1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Experiment.ID != "E2" || results[1].Experiment.ID != "E1" {
		t.Fatalf("unexpected result order: %+v", results)
	}
	for _, r := range results {
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Fatalf("%s: empty table", r.Experiment.ID)
		}
		if r.Elapsed <= 0 {
			t.Fatalf("%s: non-positive elapsed time", r.Experiment.ID)
		}
	}
}

// TestConfigWorkersClamps exercises the driver's worker-count resolution: a
// non-positive Config.Workers means one worker per CPU.
func TestConfigWorkersClamps(t *testing.T) {
	if w := (Config{Workers: -3}).workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers() = %d for Workers -3, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := (Config{}).workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers() = %d for the zero Config, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := (Config{Workers: 2}).workers(); w != 2 {
		t.Fatalf("workers() = %d, want 2", w)
	}
}
