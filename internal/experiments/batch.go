package experiments

import (
	"sync"

	"pfcache/internal/lpmodel"
)

// The LP-heavy experiment rows (E7's lp-optimal points, E8's lower-bound and
// planning solves) route through pooled lpmodel.ModelBatch values: each
// worker goroutine checks a batch out of its run's free stack for the
// duration of a point, so solver arenas, symbolic factorizations and
// per-pattern warm bases amortise across the rows a worker processes.  Cold
// solves through a batch are bit-identical to non-batched solves (the
// lp.Batch contract), so the tables — and the committed BENCH_*.json
// trajectories — do not depend on the pool state or the worker count.
//
// Every RunAll call starts its own empty pool, so runs are hermetic: no
// built model, warm basis or recorded symbolic factorization carries over
// from earlier work, and the batch counters of a run are its own.  The pool
// is an explicit mutex-guarded stack rather than a sync.Pool on purpose:
// sync.Pool may drop members at any GC, which would make the
// symbolic_reuses/numeric_refactors counters nondeterministic run to run.
// With the stack, a single-worker run reuses batches in a deterministic
// order, so the counter blocks in recorded benchmarks reproduce exactly.

// batchPool is one run's stack of idle ModelBatch values.
type batchPool struct {
	mu   sync.Mutex
	free []*lpmodel.ModelBatch
}

// acquireBatch checks a ModelBatch out of the run's pool, creating one when
// the stack is empty (or when the experiment runs outside RunAll, without a
// pool).  The caller owns it until releaseBatch.
func (c Config) acquireBatch() *lpmodel.ModelBatch {
	if p := c.batches; p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if n := len(p.free); n > 0 {
			b := p.free[n-1]
			p.free = p.free[:n-1]
			return b
		}
	}
	return lpmodel.NewModelBatch()
}

// releaseBatch returns a ModelBatch to the run's pool.
func (c Config) releaseBatch(b *lpmodel.ModelBatch) {
	if p := c.batches; p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.free = append(p.free, b)
	}
}
