package lpmodel

import (
	"fmt"
	"math"
	"sort"

	"pfcache/internal/core"
	"pfcache/internal/sim"
)

// PlanResult is the outcome of the LP-based parallel-disk algorithm of
// Theorem 4: an integral schedule together with the fractional lower bound it
// is measured against.
type PlanResult struct {
	// Schedule is the extracted prefetching/caching schedule.
	Schedule *core.Schedule
	// Stall is the schedule's total stall time (measured by the executor).
	Stall int
	// ExtraCache is the number of cache locations the schedule uses beyond k.
	// Theorem 4 guarantees a schedule with at most 2(D-1) extra locations.
	ExtraCache int
	// LowerBound is the optimal value of the LP relaxation, a lower bound on
	// the optimal stall time sOPT(sigma, k).
	LowerBound float64
	// Integral reports whether the fractional optimum was already integral.
	Integral bool
	// Offset is the timeline offset t in [0,1) whose sampled schedule was
	// selected.
	Offset float64
	// LPVariables and LPConstraints describe the size of the program.
	LPVariables   int
	LPConstraints int
	// LPIterations is the number of simplex pivots used.
	LPIterations int
	// CandidatesTried is the number of timeline offsets that were evaluated.
	CandidatesTried int
}

// NoFeasibleOffsetError reports that no candidate offset of a fractional
// optimum rounds to a feasible schedule, at the k+(D-1) planning budget or at
// Theorem 4's k+2(D-1).  The rounding treats each sampled interval as one
// synchronized batch with one fetch slot per disk; in each batch a disk
// fetches its earliest-needed missing block, and a full plan evicts the
// resident block referenced furthest in the future, on whichever disk it
// lives.  That rule does not count fetch slots per disk.  When it evicts a
// block whose disk has fewer slots left in the remaining batches, before the
// block's next request, than that disk has other blocks to fetch first, the
// block is never fetched back and the replay fails at that request.  A wider
// budget does not help once the remaining batches are that short: the wider
// plan fills up and evicts the same way.  Another optimal vertex of the
// same program, with batches placed elsewhere, may round without trouble.
type NoFeasibleOffsetError struct {
	// Last is the replay failure of the last candidate tried.
	Last error
}

func (e *NoFeasibleOffsetError) Error() string {
	return fmt.Sprintf("lpmodel: no candidate offset produced a feasible schedule (last error: %v)", e.Last)
}

func (e *NoFeasibleOffsetError) Unwrap() error { return e.Last }

// sampledInterval is one occurrence of an interval on the fractional
// timeline.
type sampledInterval struct {
	iv   Interval
	time float64
}

// support returns the indices of intervals with positive x, ordered by
// (start, end), together with their timeline offsets dist(I).
func support(m *Model, frac *Fractional) ([]int, []float64, float64) {
	var idxs []int
	for idx := range m.Intervals {
		if frac.X[idx] > 1e-9 {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(a, b int) bool {
		ia, ib := m.Intervals[idxs[a]], m.Intervals[idxs[b]]
		if ia.Start != ib.Start {
			return ia.Start < ib.Start
		}
		if ia.End != ib.End {
			return ia.End < ib.End
		}
		return idxs[a] < idxs[b]
	})
	dist := make([]float64, len(idxs))
	total := 0.0
	for i, idx := range idxs {
		dist[i] = total
		total += frac.X[idx]
	}
	return idxs, dist, total
}

// sample collects the interval occurrences hit by the integer-offset samples
// t, t+1, t+2, ... on the fractional timeline.
func sample(m *Model, frac *Fractional, idxs []int, dist []float64, total, t float64) []sampledInterval {
	var out []sampledInterval
	for s := t; s < total-1e-12; s++ {
		// Find the interval whose span [dist, dist+x) contains s.
		pos := sort.Search(len(idxs), func(i int) bool { return dist[i] > s+1e-12 }) - 1
		if pos < 0 {
			pos = 0
		}
		idx := idxs[pos]
		if s < dist[pos]-1e-9 || s >= dist[pos]+frac.X[idx]+1e-9 {
			continue
		}
		out = append(out, sampledInterval{iv: m.Intervals[idx], time: s})
	}
	return out
}

// extractSchedule turns a sampled interval multiset into a concrete schedule:
// every sampled interval performs, on each disk, a fetch of the missing block
// with the earliest next reference (property (1) of the paper), evicting a
// resident block whose next reference is furthest in the future (property
// (2)) only when the planning cache budget is full.  A fetch is skipped when
// even the furthest-referenced resident block is requested before the block
// to be fetched - evicting it would only create an earlier miss; a later
// sampled interval handles the block instead.
func extractSchedule(in *core.Instance, samples []sampledInterval, budget int) *core.Schedule {
	ix := core.NewIndex(in.Seq)
	planned := make(map[core.BlockID]bool, in.K)
	for _, b := range in.InitialCache {
		planned[b] = true
	}
	sched := &core.Schedule{}
	for _, s := range samples {
		pos := s.iv.Start // 0-based position of the first request after the interval opens
		// Collect the per-disk fetch candidates and handle the most urgent
		// one first, so that blocks needed soon claim free cache locations
		// and safe victims before blocks that could wait for a later
		// interval.
		type cand struct {
			disk  int
			block core.BlockID
			ref   int
		}
		var cands []cand
		for d := 0; d < in.Disks; d++ {
			b := earliestMissingOnDisk(in, ix, planned, d, pos)
			if b == core.NoBlock {
				continue
			}
			cands = append(cands, cand{disk: d, block: b, ref: ix.NextAt(b, pos)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].ref != cands[b].ref {
				return cands[a].ref < cands[b].ref
			}
			return cands[a].disk < cands[b].disk
		})
		// Blocks fetched within this sample are still in flight while the
		// synchronized batch executes, so they must not be chosen as
		// eviction victims for the batch's other fetches.
		justFetched := make(map[core.BlockID]bool, len(cands))
		for _, c := range cands {
			evict := core.NoBlock
			if len(planned) >= budget {
				victim, victimRef := furthestResidentRef(ix, planned, justFetched, pos)
				if victim == core.NoBlock {
					continue
				}
				if victimRef < c.ref {
					// Every evictable resident block is requested again
					// before the block we would fetch: fetching now cannot
					// help; a later interval handles this block.
					continue
				}
				evict = victim
				delete(planned, evict)
			}
			planned[c.block] = true
			justFetched[c.block] = true
			sched.Append(core.NewFetch(c.disk, s.iv.Start, c.block, evict))
		}
	}
	return sched
}

// earliestMissingOnDisk returns the block on disk d, not yet planned to be
// resident, whose next reference at or after pos is earliest; NoBlock if
// every future request on disk d is covered.
func earliestMissingOnDisk(in *core.Instance, ix *core.Index, planned map[core.BlockID]bool, d, pos int) core.BlockID {
	for p := pos; p < in.N(); p++ {
		b := in.Seq[p]
		if in.Disk(b) != d || planned[b] {
			continue
		}
		return b
	}
	return core.NoBlock
}

// furthestResidentRef returns the planned-resident block, not in the excluded
// set, whose next reference at or after pos is furthest in the future,
// together with that reference.
func furthestResidentRef(ix *core.Index, planned, excluded map[core.BlockID]bool, pos int) (core.BlockID, int) {
	cands := make([]core.BlockID, 0, len(planned))
	for b := range planned {
		if excluded[b] {
			continue
		}
		cands = append(cands, b)
	}
	return ix.FurthestNext(cands, pos)
}

// evaluate runs the schedule on the real instance.  The evictions planned
// against the k+(D-1) budget may name blocks that are not resident on the
// real cache timeline (e.g. a block still in flight); such schedules are
// rejected here and the caller tries another timeline offset.
func evaluate(in *core.Instance, sched *core.Schedule) (*sim.Result, *core.Schedule, error) {
	clean, _, err := sim.Sanitize(in, sched)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(in, clean, sim.Options{})
	if err != nil {
		return nil, nil, err
	}
	return res, clean, nil
}

// candidateOffsets returns Extract's timeline offsets: the distinct
// fractional parts of every support interval's start (and of 0), and the
// fractional part of the timeline's total length when it is not already
// listed, each nudged inside its interval.  Those are every interval's
// start and end: support builds dist as a running sum, so every interval
// but the last ends exactly, bit for bit, where the next one starts, and
// the last ends at total.
func candidateOffsets(idxs []int, dist []float64, total float64) (starts, ends []float64) {
	seen := make(map[int64]bool)
	add := func(list []float64, t float64) []float64 {
		t = t - math.Floor(t)
		keyVal := int64(math.Round(t * 1e9))
		if !seen[keyVal] {
			seen[keyVal] = true
			list = append(list, t)
		}
		return list
	}
	starts = add(starts, 1e-7)
	for i := range idxs {
		starts = add(starts, dist[i]+1e-7)
	}
	ends = add(ends, total+1e-7)
	return starts, ends
}

// Extract converts a fractional solution into an integral schedule by trying
// every candidate timeline offset and keeping the best feasible one.
func Extract(m *Model, frac *Fractional) (*PlanResult, error) {
	in := m.In
	idxs, dist, total := support(m, frac)
	result := &PlanResult{
		LowerBound:    frac.Objective,
		Integral:      frac.Integral,
		LPIterations:  frac.Iterations,
		LPVariables:   m.Problem.NumVars(),
		LPConstraints: m.Problem.NumConstraints(),
	}
	if total < 1e-9 {
		// No fetches needed at all.
		result.Schedule = &core.Schedule{}
		res, err := sim.Run(in, result.Schedule, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("lpmodel: empty schedule infeasible: %w", err)
		}
		result.Stall = res.Stall
		result.ExtraCache = res.ExtraCache
		return result, nil
	}

	// Candidate offsets and planning budgets, in three tiers, every one of
	// them consulted.  Tier 1 is the paper's rounding: the fractional part
	// of every interval's start on the timeline (nudged inside the
	// interval), plus 0 for the integral case, planned against k + (D-1)
	// locations.  Tier 2 adds the one remaining distinct offset of the
	// solution, the timeline's end.  Tier 3 re-tries both with the full
	// k + 2(D-1) planning budget Theorem 4 allows: the narrow budget forces
	// evictions that can defer a block to a later sampled interval that
	// never comes, or to one that comes too late, while the full allowance
	// keeps such blocks resident (the resulting schedules still respect the
	// theorem's extra-cache bound).  A narrower tier's feasible schedule can
	// stall longer than OPT(k) where a wider tier's does not, so the best
	// schedule is kept over all of them: the lowest stall, then the least
	// extra cache, then the first found in this order.
	starts, ends := candidateOffsets(idxs, dist, total)

	var best *sim.Result
	var bestSched *core.Schedule
	var bestT float64
	var lastErr error
	try := func(candidates []float64, budget int) {
		for _, t := range candidates {
			samples := sample(m, frac, idxs, dist, total, t)
			sched := extractSchedule(in, samples, budget)
			res, clean, err := evaluate(in, sched)
			if err != nil {
				lastErr = err
				continue
			}
			result.CandidatesTried++
			if best == nil || res.Stall < best.Stall ||
				(res.Stall == best.Stall && res.ExtraCache < best.ExtraCache) {
				best, bestSched, bestT = res, clean, t
			}
		}
	}
	narrow := in.K + in.Disks - 1
	wide := in.K + 2*(in.Disks-1)
	try(starts, narrow)
	try(ends, narrow)
	if wide > narrow {
		try(starts, wide)
		try(ends, wide)
	}
	if best == nil {
		return nil, &NoFeasibleOffsetError{Last: lastErr}
	}
	result.Schedule = bestSched
	result.Stall = best.Stall
	result.ExtraCache = best.ExtraCache
	result.Offset = bestT
	return result, nil
}
