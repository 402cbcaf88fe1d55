package experiments

import (
	"runtime"

	"pfcache/internal/lp"
	"pfcache/internal/opt"
)

// Config is the configuration of one run of the suite: the engines its LPs
// are solved with, how many workers the driver uses, and the sinks its
// solver work is counted in.  RunAll and every Experiment.Run take it as a
// value, so runs with different configurations can proceed side by side in
// one process.
//
// The zero value is the reproduction setup the committed BENCH_*.json
// trajectory files were recorded with.  Those files record schedule values
// produced by Dantzig pricing over the eta-file basis, and on the degenerate
// alternative optima of the synchronized-schedule LPs both the
// entering-column rule and the refactorization's row reassignment decide
// which optimal vertex the solve lands on, so the suite keeps both pinned to
// the historical engines unless Pricing or Basis overrides them.  The
// library defaults (steepest edge, LU) serve every non-reproduction caller.
type Config struct {
	// Method is the simplex implementation the LPs are solved with (zero
	// value: lp.MethodRevised).  pcbench exposes it as -solver, so perf
	// comparisons between implementations run the identical experiment code.
	Method lp.Method
	// Pricing overrides the pinned entering-column rule, Dantzig's (nil keeps
	// it).
	Pricing *lp.Pricing
	// Basis overrides the pinned basis representation, the eta file (nil
	// keeps it).
	Basis *lp.BasisMethod
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

// SolverPricing returns the effective pricing rule: lp.PricingDantzig unless
// overridden.
func (c Config) SolverPricing() lp.Pricing {
	if c.Pricing != nil {
		return *c.Pricing
	}
	return lp.PricingDantzig
}

// SolverBasis returns the effective basis representation: lp.BasisEta unless
// overridden.
func (c Config) SolverBasis() lp.BasisMethod {
	if c.Basis != nil {
		return *c.Basis
	}
	return lp.BasisEta
}

// lpOptions are the solver options every experiment passes to LP solves.
func (c Config) lpOptions() lp.Options {
	return lp.Options{Method: c.Method, Pricing: c.SolverPricing(), Basis: c.SolverBasis(), Stats: c.LPStats}
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
