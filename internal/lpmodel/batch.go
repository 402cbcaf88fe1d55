package lpmodel

import (
	"pfcache/internal/core"
	"pfcache/internal/lp"
)

// ModelBatch amortises model building and LP solving across the rows of a
// sweep.  It keeps a small LRU set of Models keyed by instance fingerprint —
// a repeated instance (a service shard re-solving an instance its response
// cache evicted) is a zero-rebuild hit that hands back the already-built
// Model, and a new instance is built with BuildInto into the
// least-recently-used slot, reusing its interval tables, variable maps and
// Problem arena — and it owns the lp.Batch whose solver buffers and duals
// arena the solves share.  Neither changes what is computed: every solve
// through the batch starts cold.
//
// A ModelBatch is single-goroutine, like the lp.Batch it wraps; the service
// gives each shard worker its own, and the experiments package pools them
// per sweep.
type ModelBatch struct {
	lpb   *lp.Batch
	slots []*modelSlot
}

type modelSlot struct {
	fp    uint64
	model *Model
	used  uint64 // LRU tick of the last hit
}

// maxModelSlots bounds the per-batch model set.  Sweeps alternate over a
// handful of instance shapes at a time; eight slots covers the experiment
// row loops with room to spare while keeping eviction scans trivial.
const maxModelSlots = 8

// NewModelBatch returns an empty ModelBatch owning a fresh lp.Batch.
func NewModelBatch() *ModelBatch {
	return &ModelBatch{lpb: lp.NewBatch()}
}

// LP exposes the underlying lp.Batch, for callers that also solve raw
// problems on the same arenas.
func (b *ModelBatch) LP() *lp.Batch { return b.lpb }

// tick returns the next LRU timestamp.
func (b *ModelBatch) tick() uint64 {
	var max uint64
	for _, s := range b.slots {
		if s.used > max {
			max = s.used
		}
	}
	return max + 1
}

// Model returns a built Model for the instance: the cached one when the
// instance's fingerprint matches a slot (no rebuild at all), otherwise a
// BuildInto over the least-recently-used slot's storage.  The returned Model
// is owned by the batch and valid until the slot is recycled — callers
// solve it (SolveBatch) before requesting the next model.
func (b *ModelBatch) Model(in *core.Instance) (*Model, error) {
	fp := in.Fingerprint()
	for _, s := range b.slots {
		if s.fp == fp {
			s.used = b.tick()
			return s.model, nil
		}
	}
	var victim *modelSlot
	if len(b.slots) < maxModelSlots {
		victim = &modelSlot{model: &Model{}}
		b.slots = append(b.slots, victim)
	} else {
		victim = b.slots[0]
		for _, s := range b.slots[1:] {
			if s.used < victim.used {
				victim = s
			}
		}
	}
	if err := BuildInto(victim.model, in); err != nil {
		// A failed build leaves the slot's storage valid but its contents
		// unspecified: drop the fingerprint so nothing matches it.
		victim.fp = 0
		victim.used = 0
		return nil, err
	}
	victim.fp = fp
	victim.used = b.tick()
	return victim.model, nil
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
