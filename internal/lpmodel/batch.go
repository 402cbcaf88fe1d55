package lpmodel

import (
	"pfcache/internal/core"
	"pfcache/internal/lp"
)

// ModelBatch amortises model building and LP solving across the rows of a
// sweep.  It holds one Model, which Model rebuilds for every instance with
// BuildInto, reusing its interval tables, variable maps and Problem arena,
// and it owns the lp.Batch whose solver buffers and duals arena the solves
// share.  Neither changes what is computed: every solve through the batch
// starts cold on a freshly built program.
//
// A ModelBatch is single-goroutine, like the lp.Batch it wraps; the service
// gives each shard worker its own, and the experiments package pools them
// per sweep.
type ModelBatch struct {
	lpb   *lp.Batch
	model Model
}

// NewModelBatch returns an empty ModelBatch owning a fresh lp.Batch.
func NewModelBatch() *ModelBatch {
	return &ModelBatch{lpb: lp.NewBatch()}
}

// LP exposes the underlying lp.Batch, for callers that also solve raw
// problems on the same arenas.
func (b *ModelBatch) LP() *lp.Batch { return b.lpb }

// Model rebuilds the batch's one Model for the instance with BuildInto and
// returns it.  The Model is owned by the batch and valid until the next
// call — callers solve it (SolveBatch) before requesting the next model.
func (b *ModelBatch) Model(in *core.Instance) (*Model, error) {
	if err := BuildInto(&b.model, in); err != nil {
		return nil, err
	}
	return &b.model, nil
}

// SolveBatch solves the model's LP relaxation cold through the batch's
// lp.Batch.  It is SolveWith's batched twin: the same Fractional assembly
// and the same bits, with the solver buffers and the duals arena shared
// across the batch's solves.  It keeps no basis for SolveIncremental.
func (m *Model) SolveBatch(b *lp.Batch, opts lp.Options) (*Fractional, error) {
	sol, err := b.Solve(m.Problem, opts)
	if err != nil {
		return nil, err
	}
	return m.fractional(sol)
}
