package experiments

import (
	"sync"

	"pfcache/internal/lpmodel"
)

// The LP-heavy experiment rows (E7's lp-optimal points, E8's lower-bound
// solve) route through pooled lpmodel.ModelBatch values: each worker
// goroutine checks a batch out of its run's free stack for the duration of
// a point, so built models and solver arenas amortise across the rows a
// worker processes.  Solves through a batch start cold and are
// bit-identical to non-batched solves (the lp.Batch contract), so the
// tables — and the committed BENCH_*.json trajectories — do not depend on
// the pool state or the worker count.
//
// Every RunAll call starts its own empty pool, which lives on the run's
// Config and dies with it: concurrent sweeps never share a batch, and a
// finished run leaves no models or buffers behind.  A mutex-guarded stack is
// all that takes; since no answer depends on which batch a point draws, the
// pool needs no ordering guarantees.

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
