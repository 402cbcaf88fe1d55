package lpmodel

import (
	"fmt"
	"math"
	"slices"
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
// optimum rounds to a feasible schedule, under either rounding, at the
// k+(D-1) planning budget or at Theorem 4's k+2(D-1).  The rounding treats
// each sampled interval as one synchronized batch with one fetch slot per
// disk; in each batch a disk fetches its earliest-needed missing block (the
// second rounding skips those requested inside the interval), and a full
// plan evicts the resident block referenced furthest in the future, on
// whichever disk it lives.  That rule does not count fetch slots per disk.
// When it evicts a block whose disk has fewer slots left in the remaining
// batches, before the block's next request, than that disk has other blocks
// to fetch first, the block is never fetched back and the replay fails at
// that request.  A wider budget does not help once the remaining batches
// are that short: the wider plan fills up and evicts the same way.  Another
// optimal vertex of the same program, with batches placed elsewhere, may
// round without trouble.
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

// rounding is the working state extractSchedule reuses across every
// candidate of one Extract: the instance, and tables indexed by a block's
// position in blocks (the model's Blocks, ascending) or by request position,
// built once so that no candidate looks a disk or a next request up in a
// map.
type rounding struct {
	in      *core.Instance
	blocks  []core.BlockID
	disk    []int  // disk of each block position
	first   []int  // first request of each block position (core.NoRef: none)
	seqPos  []int  // position in blocks of each request's block
	after   []int  // next request of each request's block after it (core.NoRef: none)
	next    []int  // next request of each block position at or after request at
	at      int    // the request position next describes (see seek)
	planned []bool // planned to be resident
	fetched []bool // fetched by the batch being planned
	cands   []fetchCand
}

// fetchCand is one disk's fetch candidate in a sampled batch: the block's
// position and its next request.
type fetchCand struct {
	disk int
	bp   int
	ref  int
}

// newRounding returns the rounding state of m's instance.
func newRounding(m *Model) *rounding {
	in := m.In
	nb, n := len(m.Blocks), len(in.Seq)
	r := &rounding{
		in:      in,
		blocks:  m.Blocks,
		disk:    make([]int, nb),
		first:   make([]int, nb),
		seqPos:  make([]int, n),
		after:   make([]int, n),
		next:    make([]int, nb),
		planned: make([]bool, nb),
		fetched: make([]bool, nb),
	}
	for bp, b := range m.Blocks {
		r.disk[bp] = m.blockDisk(b)
		r.first[bp] = core.NoRef
	}
	for p := n - 1; p >= 0; p-- {
		bp := r.pos(in.Seq[p])
		r.seqPos[p] = bp
		r.after[p] = r.first[bp]
		r.first[bp] = p
	}
	copy(r.next, r.first)
	return r
}

// pos returns the position of block b in r.blocks.
func (r *rounding) pos(b core.BlockID) int {
	i, _ := slices.BinarySearch(r.blocks, b)
	return i
}

// seek moves the next-request cursor to request position pos: afterwards
// next[bp] is the first request of block position bp at or after pos.  A
// rounding's sampled intervals come in timeline order, whose starts never
// fall, so it moves the cursor over each request once.
func (r *rounding) seek(pos int) {
	if pos < r.at {
		copy(r.next, r.first)
		r.at = 0
	}
	for ; r.at < pos; r.at++ {
		r.next[r.seqPos[r.at]] = r.after[r.at]
	}
}

// extractSchedule turns a sampled interval multiset into a concrete schedule:
// every sampled interval performs, on each disk, a fetch of the missing block
// with the earliest next reference (property (1) of the paper), evicting a
// resident block whose next reference is furthest in the future (property
// (2)) only when the planning cache budget is full.  A fetch is skipped when
// even the furthest-referenced resident block is requested before the block
// to be fetched - evicting it would only create an earlier miss; a later
// sampled interval handles the block instead.  With skipInside, the second
// rounding, a disk passes over the blocks requested strictly inside the
// sampled interval, as the program does: it has no fetch variable for such
// a pair (see earliestMissingOnDisk).  passed reports whether it ever did;
// when it did not, the schedule is the first rounding's.
func (r *rounding) extractSchedule(samples []sampledInterval, budget int, skipInside bool) (sched *core.Schedule, passed bool) {
	in := r.in
	clear(r.planned)
	for _, b := range in.InitialCache {
		r.planned[r.pos(b)] = true
	}
	r.seek(0)
	resident := len(in.InitialCache)
	sched = &core.Schedule{}
	for _, s := range samples {
		r.seek(s.iv.Start) // the first request after the interval opens
		// Collect the per-disk fetch candidates and handle the most urgent
		// one first, so that blocks needed soon claim free cache locations
		// and safe victims before blocks that could wait for a later
		// interval.
		cands := r.cands[:0]
		for d := 0; d < in.Disks; d++ {
			bp, skipped := r.earliestMissingOnDisk(d, s.iv, skipInside)
			passed = passed || skipped
			if bp < 0 {
				continue
			}
			cands = append(cands, fetchCand{disk: d, bp: bp, ref: r.next[bp]})
		}
		r.cands = cands
		slices.SortFunc(cands, func(a, b fetchCand) int {
			if a.ref != b.ref {
				return a.ref - b.ref
			}
			return a.disk - b.disk
		})
		// Blocks fetched within this sample are still in flight while the
		// synchronized batch executes, so they must not be chosen as
		// eviction victims for the batch's other fetches.
		for _, c := range cands {
			evict := core.NoBlock
			if resident >= budget {
				victim, victimRef := r.furthestResident()
				if victim < 0 {
					continue
				}
				if victimRef < c.ref {
					// Every evictable resident block is requested again
					// before the block we would fetch: fetching now cannot
					// help; a later interval handles this block.
					continue
				}
				evict = r.blocks[victim]
				r.planned[victim] = false
				resident--
			}
			r.planned[c.bp] = true
			r.fetched[c.bp] = true
			resident++
			sched.Append(core.NewFetch(c.disk, s.iv.Start, r.blocks[c.bp], evict))
		}
		for _, c := range cands {
			r.fetched[c.bp] = false
		}
	}
	return sched, passed
}

// earliestMissingOnDisk returns the position of the block on disk d, not yet
// planned to be resident, whose next reference after the sampled interval iv
// opens is earliest; -1 if every future request on disk d is covered.  The
// cursor must stand at iv's start (seek).  With skipInside it passes over
// every block requested strictly inside iv, and skipped reports whether it
// passed over any.  A fetch of such a block in iv completes only after that
// request, which stalls for it; the program has no fetch variable for the
// pair, and an interval nested inside iv (one the LP may also use, say when
// iv is a pure scratch fetch) may be where the block belongs.
func (r *rounding) earliestMissingOnDisk(d int, iv Interval, skipInside bool) (int, bool) {
	skipped := false
	for p := iv.Start; p < len(r.seqPos); p++ {
		bp := r.seqPos[p]
		if r.disk[bp] != d || r.planned[bp] {
			continue
		}
		if skipInside && iv.ContainsRequest(r.next[bp]+1) {
			skipped = true
			continue
		}
		return bp, skipped
	}
	return -1, skipped
}

// furthestResident returns the position of the planned-resident block, not
// fetched by the batch being planned, whose next reference at or after the
// cursor is furthest in the future (core.NoRef, never requested again, is
// furthest; the lowest block wins a tie), together with that reference; -1
// when there is none.
func (r *rounding) furthestResident() (int, int) {
	best, bestRef := -1, -1
	for bp, ref := range r.next {
		if r.planned[bp] && !r.fetched[bp] && ref > bestRef {
			best, bestRef = bp, ref
		}
	}
	return best, bestRef
}

// evaluate runs the schedule on the real instance, dropping its redundant
// fetches (sim.Sanitize), and returns the run's result with the cleaned
// schedule, whose cost it is.  The evictions planned against the k+(D-1)
// budget may name blocks that are not resident on the real cache timeline
// (e.g. a block still in flight); such schedules are rejected here and the
// caller tries another timeline offset.
func evaluate(in *core.Instance, sched *core.Schedule) (*sim.Result, *core.Schedule, error) {
	clean, res, err := sim.Sanitize(in, sched)
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
	// stall longer than OPT(k) where a wider tier's does not.
	//
	// Every tier then runs again under the second rounding, which passes
	// over the blocks requested inside a sampled interval (skipInside).
	// Neither rounding is enough alone: the first fills a scratch-fetch
	// interval with a block that a nested interval fetches in time, and
	// stalls above OPT(k); the second, used alone, breaks the theorem on
	// other vertices.  The best schedule is kept over both roundings and
	// all tiers: the lowest stall, then the least extra cache, then the
	// first found in this order, so the first rounding keeps its ties.  A
	// second-rounding candidate that passed over no block is the first
	// rounding's schedule again and is not run.
	starts, ends := candidateOffsets(idxs, dist, total)
	r := newRounding(m)

	var best *sim.Result
	var bestSched *core.Schedule
	var bestT float64
	var lastErr error
	try := func(candidates []float64, budget int, skipInside bool) {
		for _, t := range candidates {
			samples := sample(m, frac, idxs, dist, total, t)
			sched, passed := r.extractSchedule(samples, budget, skipInside)
			if skipInside && !passed {
				continue
			}
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
	for _, skipInside := range []bool{false, true} {
		try(starts, narrow, skipInside)
		try(ends, narrow, skipInside)
		if wide > narrow {
			try(starts, wide, skipInside)
			try(ends, wide, skipInside)
		}
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
