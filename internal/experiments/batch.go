package experiments

import (
	"sync"

	"pfcache/internal/core"
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

// tieEps is the suite's tie-break magnitude (Model.TieBreakObjective): large
// enough that the solver's optimality tolerance still separates the
// perturbed vertices, small enough that the extracted vertex is optimal for
// the unperturbed program too.
const tieEps = 1e-5

// tieLP builds the instance's program in a ModelBatch drawn from the run's
// pool, tie-breaks it at tieEps and solves it cold, then hands the model and
// its optimum to use before the batch returns to the pool.  The tie-break
// makes the optimal x unique, so the schedule extracted from it, and every
// table cell built on it, is the same whatever engine solves it; the
// optimum's Objective is still the unperturbed LP bound.
func (c Config) tieLP(in *core.Instance, use func(*lpmodel.Model, *lpmodel.Fractional) error) error {
	mb := c.acquireBatch()
	defer c.releaseBatch(mb)
	m, err := mb.Model(in)
	if err != nil {
		return err
	}
	m.TieBreakObjective(tieEps)
	frac, err := m.SolveBatch(mb.LP(), c.lpOptions())
	if err != nil {
		return err
	}
	return use(m, frac)
}

// planLP is the Theorem 4 pipeline on the instance's tie-broken program.
func (c Config) planLP(in *core.Instance) (*lpmodel.PlanResult, error) {
	var res *lpmodel.PlanResult
	err := c.tieLP(in, func(m *lpmodel.Model, frac *lpmodel.Fractional) error {
		var err error
		res, err = lpmodel.Extract(m, frac)
		return err
	})
	return res, err
}
