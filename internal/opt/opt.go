package opt

import (
	"fmt"
	"math/bits"

	"pfcache/internal/core"
)

// maxDisks is the largest number of disks supported by the state encoding.
const maxDisks = 8

// maxBlocks is the largest number of distinct blocks supported (the resident
// set is encoded as a 64-bit mask).
const maxBlocks = 64

// DefaultMaxStates is the default cap on the number of distinct states the
// search may create before giving up.
const DefaultMaxStates = 4_000_000

// Options configures the exact search.
type Options struct {
	// ExtraCache is the number of cache locations available beyond the
	// instance's k.  The paper's sOPT(sigma, k) corresponds to ExtraCache = 0.
	ExtraCache int
	// Full enables full branching over every missing block and every eviction
	// victim.  The default (pruned) branching fetches the earliest-referenced
	// missing block per disk and evicts a furthest-referenced block, which is
	// optimal by standard exchange arguments; Full exists to validate the
	// pruning on small instances.
	Full bool
	// MaxStates caps the number of states (0 means DefaultMaxStates).
	MaxStates int
	// NoHeuristic disables the admissible lower bound h, reducing A* to
	// uniform-cost (Dijkstra) order: the blind reference search the property
	// tests pin the informed search against.
	NoHeuristic bool
	// Stats is the sink the search's work is counted in (see Counters); nil
	// leaves the search uncounted.
	Stats *Stats
}

// Result is the outcome of an exact search.
type Result struct {
	// Stall is the minimum total stall time.
	Stall int
	// Elapsed is the minimum elapsed time (n + Stall).
	Elapsed int
	// Schedule is an optimal schedule realising Stall.
	Schedule *core.Schedule
	// StatesExpanded counts the states popped from the priority queue and
	// expanded.
	StatesExpanded int
	// StatesGenerated counts the states produced for relaxation: the root
	// plus every successor produced by an expansion (including duplicates),
	// so it is always at least DuplicateHits.
	StatesGenerated int
	// DuplicateHits counts successors that already had a node in the table.
	DuplicateHits int
	// PeakTableSize is the number of distinct states materialised.
	PeakTableSize int

	// PrunedByBound, PrunedByDominance, LandmarkHits, SeedAlgorithm,
	// SeedStall and SeedOptimal are never set, so each reads its zero value:
	// the incumbent, dominance and landmark layers they reported on are
	// gone.  The fields stay because the serving benchmark reads them.
	PrunedByBound     int
	PrunedByDominance int
	LandmarkHits      int
	SeedAlgorithm     string
	SeedStall         int
	SeedOptimal       bool
}

// TooLargeError reports that the search exceeded its state budget.
type TooLargeError struct {
	States int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("opt: exhaustive search exceeded %d states; the instance is too large", e.States)
}

// EncodingLimitError reports an instance parameter exceeding what the packed
// state encoding can represent.
type EncodingLimitError struct {
	// What names the offending parameter ("fetch time F" or "block index").
	What string
	// Value is the offending value and Limit the largest supported one.
	Value, Limit int
}

func (e *EncodingLimitError) Error() string {
	return fmt.Sprintf("opt: %s %d exceeds the packed state encoding limit %d", e.What, e.Value, e.Limit)
}

// Optimal computes a minimum-stall schedule for the instance by A* search
// over system states, ordered by the admissible per-disk matching bound (see
// doc.go).  It is exact but exponential in the worst case, so it is intended
// for the instances used to validate the approximation algorithms and the
// linear-programming approach.
func Optimal(in *core.Instance, opts Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Disks > maxDisks {
		return nil, fmt.Errorf("opt: at most %d disks supported, got %d", maxDisks, in.Disks)
	}
	blocks := in.Blocks()
	if len(blocks) > maxBlocks {
		return nil, fmt.Errorf("opt: at most %d distinct blocks supported, got %d", maxBlocks, len(blocks))
	}
	if in.F > maxFlightRemaining {
		return nil, &EncodingLimitError{What: "fetch time F", Value: in.F, Limit: maxFlightRemaining}
	}
	if len(blocks)-1 > maxFlightBlock {
		return nil, &EncodingLimitError{What: "block index", Value: len(blocks) - 1, Limit: maxFlightBlock}
	}
	s := newSearcher(in, opts, blocks)
	return s.run()
}

// OptimalStall returns only the minimum stall time.
func OptimalStall(in *core.Instance, opts Options) (int, error) {
	r, err := Optimal(in, opts)
	if err != nil {
		return 0, err
	}
	return r.Stall, nil
}

// fetchAction records one fetch initiation on a transition, for schedule
// reconstruction.
type fetchAction struct {
	disk   int
	block  int // block index
	victim int // block index, or freeLocation for a free cache location
}

// freeLocation is the victim sentinel meaning "use a free cache location".
const freeLocation = -1

type searcher struct {
	in     *core.Instance
	opts   Options
	blocks []core.BlockID
	idxOf  map[core.BlockID]int
	seqIdx []int32 // per request position, the block index requested
	diskOf []int   // per block index
	cap    int     // cache capacity including extra locations
	n      int

	// Heuristic tables (see heuristic.go), read-only after construction.
	futureMask []uint64
	nextRef    []int32

	// Heuristic scratch: per disk, the ascending first-reference positions
	// of the missing blocks.
	hrefs [maxDisks][]int32

	// Memory layer (see table.go; run draws the arena and table from
	// searchMemPool) and queue (see bucket.go).
	nodes   nodeArena
	table   nodeTable
	fetches []fetchAction // shared arena of transition fetch records
	queue   bucketQueue
	succ    succBuf // per-expansion successor staging buffer

	expanded  int
	generated int
	dupHits   int
}

// succRec is one staged successor of an expansion: the resulting state, the
// transition's stall cost and anchor position, and its fetch actions inside
// the staging buffer.  Staging decouples successor generation (reads only
// the searcher's tables) from relaxation (mutates the node table and queue).
type succRec struct {
	key      stateKey
	cost     int32
	anchor   int32
	fetchOff int32
	fetchCnt uint16
}

type succBuf struct {
	recs    []succRec
	fetches []fetchAction
}

func (b *succBuf) reset() {
	b.recs = b.recs[:0]
	b.fetches = b.fetches[:0]
}

func (b *succBuf) add(key stateKey, cost, anchor int, fetches []fetchAction) {
	off := int32(len(b.fetches))
	b.fetches = append(b.fetches, fetches...)
	b.recs = append(b.recs, succRec{
		key: key, cost: int32(cost), anchor: int32(anchor),
		fetchOff: off, fetchCnt: uint16(len(fetches)),
	})
}

func (b *succBuf) fetchesOf(r *succRec) []fetchAction {
	return b.fetches[r.fetchOff : r.fetchOff+int32(r.fetchCnt)]
}

func newSearcher(in *core.Instance, opts Options, blocks []core.BlockID) *searcher {
	s := &searcher{
		in:     in,
		opts:   opts,
		blocks: blocks,
		idxOf:  make(map[core.BlockID]int, len(blocks)),
		seqIdx: make([]int32, in.N()),
		diskOf: make([]int, len(blocks)),
		cap:    in.K + opts.ExtraCache,
		n:      in.N(),
	}
	for i, b := range blocks {
		s.idxOf[b] = i
		s.diskOf[i] = in.Disk(b)
	}
	for p, b := range in.Seq {
		s.seqIdx[p] = int32(s.idxOf[b])
	}
	for d := range s.hrefs {
		s.hrefs[d] = make([]int32, 0, s.n)
	}
	s.initHeuristic()
	return s
}

func (s *searcher) maxStates() int {
	if s.opts.MaxStates > 0 {
		return s.opts.MaxStates
	}
	return DefaultMaxStates
}

func (s *searcher) initialKey() stateKey {
	var key stateKey
	for _, b := range s.in.InitialCache {
		key.cache |= 1 << uint(s.idxOf[b])
	}
	return key
}

// result assembles a Result carrying the search counters.
func (s *searcher) result(stall int, sched *core.Schedule) *Result {
	return &Result{
		Stall:           stall,
		Elapsed:         s.n + stall,
		Schedule:        sched,
		StatesExpanded:  s.expanded,
		StatesGenerated: s.generated,
		DuplicateHits:   s.dupHits,
		PeakTableSize:   s.table.count,
	}
}

func (s *searcher) run() (*Result, error) {
	// The arena and table go back to the pool only after the deferred stats
	// record below has read the table's size.
	mem := searchMemPool.Get().(*searchMem)
	s.nodes, s.table = mem.nodes, mem.table
	defer func() {
		mem.nodes, mem.table = s.nodes, s.table
		mem.release()
	}()
	defer s.recordStats()
	start := s.initialKey()
	h0 := s.heuristic(&start)
	s.generated++
	rootIdx := s.nodes.alloc()
	root := &s.nodes.recs[rootIdx]
	root.key = start
	root.h = h0
	s.table.put(&start, rootIdx)
	s.queue.push(int(h0), rootIdx)
	for {
		idx, f, ok := s.queue.pop()
		if !ok {
			break
		}
		rec := &s.nodes.recs[idx]
		if rec.closed || int(rec.g)+int(rec.h) != f {
			continue // stale queue entry (node expanded or reopened at lower cost)
		}
		rec.closed = true
		s.expanded++
		key := rec.key
		if int(key.served) == s.n {
			return s.result(int(rec.g), s.reconstruct(idx)), nil
		}
		s.expand(idx, &key)
		if s.table.count > s.maxStates() {
			return nil, &TooLargeError{States: s.maxStates()}
		}
	}
	return nil, fmt.Errorf("opt: search exhausted without serving every request (internal error)")
}

// expand generates the successors of a state into the staging buffer and
// relaxes each: every combination of fetch initiations over idle disks,
// followed by the serve-or-stall step.
func (s *searcher) expand(idx int32, key *stateKey) {
	s.succ.reset()
	var acc [maxDisks]fetchAction
	s.enumerate(key, 0, 0, key.cache, s.inFlightMask(key), &acc, &s.succ)
	for i := range s.succ.recs {
		sr := &s.succ.recs[i]
		s.relax(idx, &sr.key, int(sr.cost), int(sr.anchor), s.succ.fetchesOf(sr))
	}
}

// inFlightMask returns the mask of blocks currently being fetched.
func (s *searcher) inFlightMask(key *stateKey) uint64 {
	var m uint64
	for d := 0; d < s.in.Disks; d++ {
		if key.flights[d] != 0 {
			m |= 1 << uint(flightBlock(key.flights[d]))
		}
	}
	return m
}

// enumerate recursively chooses, for each idle disk, whether and what to
// fetch, and applies the serve-or-stall step for every combination.  cache
// and inflight are the working copies reflecting the choices made for disks
// < d; the chosen fetches live in acc[:nacc].
func (s *searcher) enumerate(key *stateKey, d, nacc int, cache, inflight uint64, acc *[maxDisks]fetchAction, buf *succBuf) {
	if d == s.in.Disks {
		flights := key.flights
		for i := 0; i < nacc; i++ {
			flights[acc[i].disk] = flightOf(acc[i].block, s.in.F)
		}
		s.advance(key, acc[:nacc], cache, flights, buf)
		return
	}
	// Option 1: no new fetch on disk d.
	s.enumerate(key, d+1, nacc, cache, inflight, acc, buf)
	if key.flights[d] != 0 {
		return // disk busy: no other option
	}
	served := int(key.served)
	free := s.cap - bits.OnesCount64(cache) - bits.OnesCount64(inflight)
	if !s.opts.Full {
		// Pruned mode: fetch the earliest-referenced missing block on disk d
		// (if any) and evict a furthest-referenced cached block.
		bi := s.earliestMissingOnDisk(d, served, cache|inflight)
		if bi < 0 {
			return
		}
		victim, ok := s.prunedVictim(served, cache, free)
		if !ok {
			return
		}
		newCache := cache
		if victim >= 0 {
			newCache &^= 1 << uint(victim)
		}
		acc[nacc] = fetchAction{disk: d, block: bi, victim: victim}
		s.enumerate(key, d+1, nacc+1, newCache, inflight|1<<uint(bi), acc, buf)
		return
	}
	for _, bi := range s.fullFetchCandidates(d, served, cache|inflight) {
		for _, victim := range s.fullVictimCandidates(cache, free) {
			newCache := cache
			if victim >= 0 {
				newCache &^= 1 << uint(victim)
			}
			acc[nacc] = fetchAction{disk: d, block: bi, victim: victim}
			s.enumerate(key, d+1, nacc+1, newCache, inflight|1<<uint(bi), acc, buf)
		}
	}
}

// earliestMissingOnDisk returns the block index of the missing block on disk
// d with the earliest next reference at or after served, or -1 if there is
// none.  resident is the union of the cached and in-flight masks.
func (s *searcher) earliestMissingOnDisk(d, served int, resident uint64) int {
	for p := served; p < s.n; p++ {
		bi := int(s.seqIdx[p])
		if s.diskOf[bi] != d || resident&(1<<uint(bi)) != 0 {
			continue
		}
		return bi
	}
	return -1
}

// prunedVictim returns the eviction choice of the pruned branching:
// freeLocation when a free location is available (always preferred; using a
// free location never hurts), and otherwise a cached block whose next
// reference is furthest in the future.  ok is false when no choice exists.
func (s *searcher) prunedVictim(served int, cache uint64, free int) (int, bool) {
	if free > 0 {
		return freeLocation, true
	}
	if cache == 0 {
		return 0, false
	}
	best := -1
	bestRef := -1
	for m := cache; m != 0; m &= m - 1 {
		bi := bits.TrailingZeros64(m)
		ref := s.nextRefAt(bi, served)
		if ref > bestRef {
			best, bestRef = bi, ref
		}
	}
	return best, true
}

// fullFetchCandidates returns every missing, still-referenced block on disk d
// in order of next reference (full branching mode only).
func (s *searcher) fullFetchCandidates(d, served int, resident uint64) []int {
	var seen uint64
	var out []int
	for p := served; p < s.n; p++ {
		bi := int(s.seqIdx[p])
		if s.diskOf[bi] != d || seen&(1<<uint(bi)) != 0 {
			continue
		}
		seen |= 1 << uint(bi)
		if resident&(1<<uint(bi)) != 0 {
			continue
		}
		out = append(out, bi)
	}
	return out
}

// fullVictimCandidates returns every eviction choice of the full branching
// mode: a free location when available, otherwise every cached block.
func (s *searcher) fullVictimCandidates(cache uint64, free int) []int {
	if free > 0 {
		return []int{freeLocation}
	}
	var out []int
	for m := cache; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}

// advance applies the serve-or-stall step to the state obtained after the
// fetch initiations and stages the successor.
func (s *searcher) advance(key *stateKey, fetches []fetchAction, cache uint64, flights [maxDisks]uint16, buf *succBuf) {
	served := int(key.served)
	bi := int(s.seqIdx[served])
	if cache&(1<<uint(bi)) != 0 {
		// Serve the request: one time unit passes.
		nc, nf := tick(cache, flights, 1, s.in.Disks)
		buf.add(stateKey{served: key.served + 1, cache: nc, flights: nf}, 0, served, fetches)
		return
	}
	// The requested block is missing: stall until the earliest completion.
	minRem := 0
	for d := 0; d < s.in.Disks; d++ {
		if flights[d] == 0 {
			continue
		}
		r := flightRemaining(flights[d])
		if minRem == 0 || r < minRem {
			minRem = r
		}
	}
	if minRem == 0 {
		return // nothing in flight: this branch can never serve the request
	}
	nc, nf := tick(cache, flights, minRem, s.in.Disks)
	buf.add(stateKey{served: key.served, cache: nc, flights: nf}, minRem, served, fetches)
}

// saveFetches copies the transition's fetch actions into the shared arena.
func (s *searcher) saveFetches(fetches []fetchAction) (int32, uint16) {
	if len(fetches) == 0 {
		return 0, 0
	}
	off := int32(len(s.fetches))
	s.fetches = append(s.fetches, fetches...)
	return off, uint16(len(fetches))
}

// relax performs the A* relaxation for the edge parent -> next with the given
// stall cost, reopening closed nodes whose cost improves (the heuristic is
// admissible but not consistent).
func (s *searcher) relax(parent int32, next *stateKey, cost, anchor int, fetches []fetchAction) {
	s.generated++
	newG := s.nodes.recs[parent].g + int32(cost)
	if idx := s.table.get(next); idx != 0 {
		s.dupHits++
		rec := &s.nodes.recs[idx]
		if rec.g <= newG {
			return
		}
		rec.g = newG
		rec.parent = parent
		rec.anchor = int32(anchor)
		rec.fetchOff, rec.fetchCnt = s.saveFetches(fetches)
		rec.closed = false
		s.queue.push(int(newG)+int(rec.h), idx)
		return
	}
	h := s.heuristic(next)
	fetchOff, fetchCnt := s.saveFetches(fetches)
	idx := s.nodes.alloc()
	rec := &s.nodes.recs[idx]
	rec.key = *next
	rec.g = newG
	rec.h = h
	rec.parent = parent
	rec.anchor = int32(anchor)
	rec.fetchOff, rec.fetchCnt = fetchOff, fetchCnt
	s.table.put(next, idx)
	s.queue.push(int(newG)+int(h), idx)
}

// reconstruct rebuilds an optimal schedule by walking parent links from the
// goal node and emitting each transition's fetches in root-to-goal order.
func (s *searcher) reconstruct(goal int32) *core.Schedule {
	var chain []int32
	for idx := goal; idx != 0; idx = s.nodes.recs[idx].parent {
		chain = append(chain, idx)
	}
	sched := &core.Schedule{}
	for i := len(chain) - 2; i >= 0; i-- {
		rec := &s.nodes.recs[chain[i]]
		parent := &s.nodes.recs[chain[i+1]]
		// The wall-clock time at which this transition's fetches were
		// initiated is the parent's cursor position plus the stall paid so
		// far; recording it as MinTime pins cross-disk dependencies (a fetch
		// started right after another disk's completion must not start
		// earlier when the schedule is replayed).
		minTime := int(parent.key.served) + int(parent.g)
		for _, fa := range s.fetches[rec.fetchOff : rec.fetchOff+int32(rec.fetchCnt)] {
			evict := core.NoBlock
			if fa.victim >= 0 {
				evict = s.blocks[fa.victim]
			}
			f := core.NewFetch(fa.disk, int(rec.anchor), s.blocks[fa.block], evict)
			f.MinTime = minTime
			sched.Append(f)
		}
	}
	return sched
}
