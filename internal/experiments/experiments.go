// Package experiments regenerates the results of the paper.
//
// The paper is a theory paper without measured tables or figures, so each
// experiment is the executable counterpart of one of its claims: the worked
// examples of the introduction (E1, E2), the approximation bounds for the
// single-disk algorithms (E3-E6, reproducing Theorems 1-3 and Corollaries
// 1-2), the Theorem 4 guarantee for parallel disks (E7), the degradation of
// the greedy strategies with the number of disks that motivates Theorem 4
// (E8), and two ablations (A1, A2).  EXPERIMENTS.md maps every experiment to
// its paper section and describes the expected shape of the table.
//
// Experiments run on a bounded worker pool (see pool.go): RunAll executes
// whole experiments concurrently, and the row loops inside each experiment
// fan independent points out over the same pool.  Results land in
// index-addressed slots, so tables are byte-identical to sequential runs.
package experiments

import (
	"fmt"
	"sort"

	"pfcache/internal/report"
)

// Experiment is a named, runnable experiment producing one result table.
type Experiment struct {
	// ID is the experiment identifier used in EXPERIMENTS.md, e.g. "E3" or
	// "A1".
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment under cfg.
	Run func(cfg Config) (*report.Table, error)
}

// All returns every experiment in the suite, in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Introduction example, single disk (k=4, F=4)", Run: E1IntroExample},
		{ID: "E2", Title: "Introduction example, two disks (k=4, F=4)", Run: E2IntroParallelExample},
		{ID: "E3", Title: "Aggressive elapsed-time ratio vs Theorem 1 bound", Run: E3AggressiveRatio},
		{ID: "E4", Title: "Theorem 2 lower-bound construction for Aggressive", Run: E4AggressiveLowerBound},
		{ID: "E5", Title: "Delay(d) sweep and the sqrt(3) minimum (Theorem 3)", Run: E5DelaySweep},
		{ID: "E6", Title: "Head-to-head: Aggressive vs Conservative vs Delay vs Combination", Run: E6Combination},
		{ID: "E7", Title: "Theorem 4: LP schedule vs optimal stall on parallel disks", Run: E7ParallelLPOptimal},
		{ID: "E8", Title: "Parallel heuristics vs number of disks", Run: E8ParallelHeuristics},
		{ID: "A1", Title: "Ablation: synchronization and extra cache locations", Run: A1SynchronizationAblation},
		{ID: "A2", Title: "Ablation: removing prefetching / the eviction rule", Run: A2EvictionAblation},
		{ID: "R1", Title: "Trace replay: incremental re-solves vs per-step cold rebuilds", Run: R1TraceReplay},
	}
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs returns the identifiers of every experiment, sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
