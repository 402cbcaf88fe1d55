package experiments

import (
	"runtime"

	"pfcache/internal/lp"
	"pfcache/internal/opt"
)

// Config is the configuration of one run of the suite: the simplex
// implementation its LPs are solved with, how many workers the driver uses,
// and the sinks its solver work is counted in.  RunAll and every
// Experiment.Run take it as a value, so runs with different configurations
// can proceed side by side in one process.
//
// The zero value is the reproduction setup.  The suite's tables do not
// depend on the LP engine: every program whose schedule it extracts is
// tie-broken (Model.TieBreakObjective, see tieLP), so any correct solve lands
// on the same optimal vertex, and the committed BENCH_*.json schedule values
// come out the same on the revised and the flat path.
type Config struct {
	// Method is the simplex implementation the LPs are solved with (zero
	// value: lp.MethodRevised).  pcbench exposes it as -solver, so perf
	// comparisons between implementations run the identical experiment code.
	Method lp.Method
	// Workers is the driver's concurrency: RunAll and the row loops inside
	// the experiments run on at most this many goroutines (<= 0: one per
	// CPU; 1: fully sequential).
	Workers int
	// LPStats and OptStats are the sinks the run's LP solves and exact
	// searches are counted in (nil: not counted).
	LPStats  *lp.Stats
	OptStats *opt.Stats

	// batches is the run's ModelBatch pool, created by RunAll.
	batches *batchPool
}

// lpOptions are the solver options every experiment passes to LP solves.
func (c Config) lpOptions() lp.Options {
	return lp.Options{Method: c.Method, Stats: c.LPStats}
}

// optOptions applies the run's exact-search sink to an experiment's option
// block.
func (c Config) optOptions(o opt.Options) opt.Options {
	o.Stats = c.OptStats
	return o
}

// workers returns the effective driver concurrency.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
