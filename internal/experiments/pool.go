package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pfcache/internal/report"
)

// extraWorkers counts the extra goroutines currently running across every
// forEach call in the process, so the worker bound is a CPU limit rather
// than a per-run allowance: nested fan-out (RunAll over experiments, each
// experiment fanning out its rows) shares one budget of Config.Workers-1
// extras plus the calling goroutine instead of multiplying worker counts per
// nesting level, and runs proceeding side by side draw on the same budget
// instead of oversubscribing the CPUs.
var extraWorkers atomic.Int64

// acquireExtra reserves one slot of the global extra-worker budget, or
// reports that the budget is exhausted.
func acquireExtra(budget int64) bool {
	for {
		cur := extraWorkers.Load()
		if cur >= budget {
			return false
		}
		if extraWorkers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// forEach runs f(i) for every i in [0, n).  The calling goroutine always
// processes items itself (guaranteeing progress without holding budget) and
// is joined by extra goroutines while the global budget allows.  Each index
// is processed exactly once; on failure every failing index's error is
// returned (joined in index order), so the outcome is deterministic
// regardless of scheduling.  Every experiment point writes its result into
// an index-addressed slot, which keeps result tables byte-identical to the
// sequential driver's output.
func (c Config) forEach(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = f(i)
		}
	}
	budget := int64(c.workers() - 1)
	var wg sync.WaitGroup
	for g := 0; g < n-1 && acquireExtra(budget); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer extraWorkers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
	return errors.Join(errs...)
}

// Result is the outcome of one experiment run by RunAll.
type Result struct {
	// Experiment identifies what ran.
	Experiment Experiment
	// Table is the produced result table.
	Table *report.Table
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// RunAll executes the given experiments under cfg, concurrently (bounded by
// cfg.Workers), and returns their results in the same order, so output is
// deterministic regardless of which experiment finishes first.  The run gets
// its own ModelBatch pool (see batch.go).  On failure the error is tagged
// with the failing experiment's ID and the completed results are still
// returned (failed entries have a nil Table).
func RunAll(cfg Config, exps []Experiment) ([]Result, error) {
	cfg.batches = &batchPool{}
	out := make([]Result, len(exps))
	err := cfg.forEach(len(exps), func(i int) error {
		start := time.Now()
		tab, err := exps[i].Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		out[i] = Result{Experiment: exps[i], Table: tab, Elapsed: time.Since(start)}
		return nil
	})
	return out, err
}
