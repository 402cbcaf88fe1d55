package single

import (
	"fmt"
	"strconv"
	"strings"

	"pfcache/internal/core"
	"pfcache/internal/paging"
)

// Func is a single-disk prefetching/caching algorithm: it maps an instance to
// a schedule.
type Func func(*core.Instance) (*core.Schedule, error)

// Algorithm pairs an algorithm with its display name, for use by the
// experiment harness and the command-line tools.
type Algorithm struct {
	// Name is the canonical name, e.g. "aggressive" or "delay:3".
	Name string
	// Run computes the algorithm's schedule.
	Run Func
}

// Algorithms returns the standard single-disk algorithm suite: Aggressive,
// Conservative, Delay(d0) for the instance-dependent best delay, Combination,
// and the demand-paging baselines.
func Algorithms() []Algorithm {
	return []Algorithm{
		{Name: "aggressive", Run: Aggressive},
		{Name: "conservative", Run: Conservative},
		{Name: "delay:auto", Run: func(in *core.Instance) (*core.Schedule, error) {
			return Delay(in, BestDelay(in.F))
		}},
		{Name: "combination", Run: Combination},
		{Name: "demand-min", Run: func(in *core.Instance) (*core.Schedule, error) {
			return Demand(in, paging.PolicyMIN)
		}},
		{Name: "demand-lru", Run: func(in *core.Instance) (*core.Schedule, error) {
			return Demand(in, paging.PolicyLRU)
		}},
	}
}

// ByName resolves an algorithm by name.  Recognised names are "aggressive",
// "conservative", "combination", "delay:auto", "delay:<d>" for a non-negative
// integer d, "online:<w>" (Aggressive with a lookahead window of w requests),
// "demand-min", "demand-lru" and "demand-fifo".
func ByName(name string) (Algorithm, error) {
	switch name {
	case "aggressive":
		return Algorithm{Name: name, Run: Aggressive}, nil
	case "conservative":
		return Algorithm{Name: name, Run: Conservative}, nil
	case "combination":
		return Algorithm{Name: name, Run: Combination}, nil
	case "delay:auto":
		return Algorithm{Name: name, Run: func(in *core.Instance) (*core.Schedule, error) {
			return Delay(in, BestDelay(in.F))
		}}, nil
	case "demand-min":
		return Algorithm{Name: name, Run: func(in *core.Instance) (*core.Schedule, error) {
			return Demand(in, paging.PolicyMIN)
		}}, nil
	case "demand-lru":
		return Algorithm{Name: name, Run: func(in *core.Instance) (*core.Schedule, error) {
			return Demand(in, paging.PolicyLRU)
		}}, nil
	case "demand-fifo":
		return Algorithm{Name: name, Run: func(in *core.Instance) (*core.Schedule, error) {
			return Demand(in, paging.PolicyFIFO)
		}}, nil
	}
	if rest, ok := strings.CutPrefix(name, "delay:"); ok {
		d, err := strconv.Atoi(rest)
		if err != nil || d < 0 {
			return Algorithm{}, fmt.Errorf("single: bad delay parameter in %q", name)
		}
		return Algorithm{Name: name, Run: func(in *core.Instance) (*core.Schedule, error) {
			return Delay(in, d)
		}}, nil
	}
	if rest, ok := strings.CutPrefix(name, "online:"); ok {
		w, err := strconv.Atoi(rest)
		if err != nil || w < 1 {
			return Algorithm{}, fmt.Errorf("single: bad lookahead parameter in %q", name)
		}
		return Algorithm{Name: name, Run: func(in *core.Instance) (*core.Schedule, error) {
			return OnlineAggressive(in, w)
		}}, nil
	}
	return Algorithm{}, fmt.Errorf("single: unknown algorithm %q", name)
}
