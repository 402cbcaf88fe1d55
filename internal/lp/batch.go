package lp

// Batch amortises a sweep of solves.  It owns one reusable Solver — whose
// buffers (tableau scratch, eta/LU storage, candidate lists) are sized by
// the first instance and reused allocation-free for the rest — plus one
// arena for the solutions' dual certificates.  That is the batch path's
// whole saving: the buffers and the duals copy, never a warm start.
//
// Correctness contract: a batched solve is bit-identical to the same solve
// on a fresh Solver.  Every batched solve starts cold, whatever the batch
// solved before, so a sweep's tables and a server's response bytes do not
// depend on batching or on the order requests arrive in.
//
// A Batch is not safe for concurrent use; use one per goroutine (the service
// gives each shard its own).
type Batch struct {
	s     *Solver
	duals []float64
}

// NewBatch returns an empty Batch owning a fresh Solver.
func NewBatch() *Batch {
	return &Batch{s: NewSolver()}
}

// Solve solves p through the batch, with Solver.Solve's contract (options,
// cascade, statuses, errors).  The returned Solution's dual certificate
// shares the batch's arena: it stays valid until the next solve through this
// batch, so callers that Verify solutions should do so before solving the
// next problem.
func (b *Batch) Solve(p *Problem, opts Options) (*Solution, error) {
	r := &b.s.rev
	r.dualsReuse = b.duals
	sol, err := b.s.solve(p, opts, nil)
	r.dualsReuse = nil
	if err == nil && sol.duals != nil {
		b.duals = sol.duals
	}
	return sol, err
}
