package parallel

import (
	"fmt"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
)

// LPOptimal runs the Theorem 4 algorithm of the paper: it builds the
// synchronized-schedule linear program, solves its relaxation and extracts an
// integral schedule.  The returned result carries the schedule, its measured
// stall time and extra cache usage, and the fractional lower bound on
// sOPT(sigma, k) that the schedule is measured against.
func LPOptimal(in *core.Instance) (*lpmodel.PlanResult, error) {
	return lpmodel.Plan(in, lp.Options{})
}

// Func is a parallel-disk prefetching/caching algorithm.
type Func func(*core.Instance) (*core.Schedule, error)

// Algorithm pairs a parallel-disk algorithm with its display name.
type Algorithm struct {
	Name string
	Run  Func
}

// Algorithms returns the parallel-disk algorithm suite used by the experiment
// harness: the Theorem 4 LP algorithm, parallel Aggressive, parallel
// Conservative, and the demand-paging baseline.
func Algorithms() []Algorithm {
	return []Algorithm{
		{Name: "lp-optimal", Run: func(in *core.Instance) (*core.Schedule, error) {
			res, err := LPOptimal(in)
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		}},
		{Name: "aggressive", Run: Aggressive},
		{Name: "conservative", Run: Conservative},
		{Name: "demand", Run: Demand},
	}
}

// ByName resolves a parallel-disk algorithm by name ("lp-optimal",
// "aggressive", "conservative" or "demand").
func ByName(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("parallel: unknown algorithm %q", name)
}
