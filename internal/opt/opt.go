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

// BoundMode selects how the branch-and-bound incumbent is seeded.
type BoundMode int

const (
	// BoundGreedy (the default) seeds the incumbent with the cheapest of the
	// greedy schedules (package single's registry for one disk, package
	// parallel's strategies otherwise) before the search starts.
	BoundGreedy BoundMode = iota
	// BoundNone disables incumbent pruning.
	BoundNone
)

// String names the bound mode as accepted by ParseBound.
func (m BoundMode) String() string {
	switch m {
	case BoundGreedy:
		return "greedy"
	case BoundNone:
		return "none"
	default:
		return fmt.Sprintf("bound(%d)", int(m))
	}
}

// ParseBound parses a bound mode name ("greedy" or "none").
func ParseBound(s string) (BoundMode, error) {
	switch s {
	case "greedy":
		return BoundGreedy, nil
	case "none":
		return BoundNone, nil
	default:
		return 0, fmt.Errorf("opt: unknown bound mode %q (want greedy or none)", s)
	}
}

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
	// Bound selects the branch-and-bound incumbent seeding; the zero value
	// BoundGreedy prunes against the cheapest greedy schedule.
	Bound BoundMode
	// NoHeuristic disables the admissible lower bound h, reducing A* to
	// uniform-cost (Dijkstra) order.  Together with Bound: BoundNone this is
	// exactly the historical blind search, kept as the reference the property
	// tests pin the informed search against (landmarks and dominance are
	// auto-disabled in that configuration, see useDominance).
	NoHeuristic bool
	// NoLandmarks disables the precomputed landmark lower bounds
	// (landmark.go), leaving only the per-state fetch-work bounds.
	NoLandmarks bool
	// NoDominance disables canonicalized dominance merging of states that
	// differ only in never-again-referenced cache or in-flight content.
	NoDominance bool
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
	// plus every successor produced by an expansion (including duplicates
	// and bound-pruned ones), so it is always at least DuplicateHits +
	// PrunedByBound.
	StatesGenerated int
	// PrunedByBound counts successors discarded because g + h reached the
	// branch-and-bound incumbent.
	PrunedByBound int
	// DuplicateHits counts successors that already had a node in the table
	// under the same raw state key.
	DuplicateHits int
	// PrunedByDominance counts successors merged into an existing node whose
	// raw key differed but whose canonicalized key (dead cache and in-flight
	// content removed) matched: the two states are equivalent, so only the
	// cheaper path survives.
	PrunedByDominance int
	// LandmarkHits counts heuristic evaluations where the precomputed
	// landmark bound strictly exceeded every per-state fetch-work bound.
	LandmarkHits int
	// PeakTableSize is the number of distinct states materialised.
	PeakTableSize int
	// SeedAlgorithm names the greedy schedule seeding the incumbent ("" when
	// no incumbent was available).
	SeedAlgorithm string
	// SeedStall is the incumbent's stall time, or -1 when no incumbent was
	// available.
	SeedStall int
	// SeedOptimal reports that the search proved the incumbent optimal (every
	// strictly better path was pruned away) and Schedule is the seed schedule
	// itself.
	SeedOptimal bool
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
// with branch-and-bound pruning over system states: an admissible heuristic
// orders the queue and an incumbent seeded from the greedy schedules prunes
// provably non-improving states (see doc.go).  It is exact but exponential in
// the worst case, so it is intended for the instances used to validate the
// approximation algorithms and the linear-programming approach.
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

	// Heuristic tables (see heuristic.go / landmark.go), read-only after
	// construction.
	futureMask []uint64
	diskMask   [maxDisks]uint64
	nextRef    []int32
	landmark   []int32
	dominance  bool // canonicalized dominance merging active (useDominance)

	// Heuristic scratch: per disk, the ascending first-reference positions
	// of the missing blocks, and the count of evaluations where the landmark
	// bound strictly exceeded the per-state fetch-work bounds.
	hrefs        [maxDisks][]int32
	landmarkHits int

	// Branch-and-bound incumbent (see seed.go); incumbent < 0 means none.
	incumbent int
	seedName  string
	seedStall int
	seedSched *core.Schedule

	// Memory layer (see table.go; run draws the arena and table from
	// searchMemPool) and queue (see bucket.go).
	nodes   nodeArena
	table   nodeTable
	fetches []fetchAction // shared arena of transition fetch records
	queue   bucketQueue
	succ    succBuf // per-expansion successor staging buffer

	expanded  int
	generated int
	pruned    int
	dupHits   int
	prunedDom int
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
		in:        in,
		opts:      opts,
		blocks:    blocks,
		idxOf:     make(map[core.BlockID]int, len(blocks)),
		seqIdx:    make([]int32, in.N()),
		diskOf:    make([]int, len(blocks)),
		cap:       in.K + opts.ExtraCache,
		n:         in.N(),
		incumbent: -1,
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
	s.dominance = s.useDominance()
	s.initHeuristic()
	return s
}

// deadBlock is the sentinel block index canonicalize substitutes for a
// never-again-referenced in-flight block.  It is outside the valid range
// [0, maxBlocks) but still fits the flight encoding (maxFlightBlock).
const deadBlock = maxBlocks

// canonicalize maps a state key to its dominance-class representative: cache
// blocks that are never referenced again are dropped from the resident mask,
// and a dead in-flight block is renamed to the deadBlock sentinel (its
// remaining fetch time is kept — the disk stays busy that long either way).
// Two states with equal canonical keys are exactly bisimilar (doc.go), so the
// node table keys on the canonical form while nodeRec.key keeps the raw state
// of the best path, which reconstruction repairs against (buildSchedule).
func (s *searcher) canonicalize(key *stateKey) stateKey {
	c := *key
	future := s.futureMask[key.served]
	c.cache &= future
	for d := 0; d < s.in.Disks; d++ {
		if f := c.flights[d]; f != 0 {
			if bi := flightBlock(f); future&(1<<uint(bi)) == 0 {
				c.flights[d] = flightOf(deadBlock, flightRemaining(f))
			}
		}
	}
	return c
}

// tableKey returns the key the node table indexes a state under.
func (s *searcher) tableKey(key *stateKey) stateKey {
	if s.dominance {
		return s.canonicalize(key)
	}
	return *key
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
func (s *searcher) result(stall int, sched *core.Schedule, seedOptimal bool) *Result {
	seedStall := -1
	if s.seedSched != nil {
		seedStall = s.seedStall
	}
	return &Result{
		Stall:             stall,
		Elapsed:           s.n + stall,
		Schedule:          sched,
		StatesExpanded:    s.expanded,
		StatesGenerated:   s.generated,
		PrunedByBound:     s.pruned,
		DuplicateHits:     s.dupHits,
		PrunedByDominance: s.prunedDom,
		LandmarkHits:      s.landmarkHits,
		PeakTableSize:     s.table.count,
		SeedAlgorithm:     s.seedName,
		SeedStall:         seedStall,
		SeedOptimal:       seedOptimal,
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
	if s.opts.Bound == BoundGreedy {
		s.seedIncumbent()
	}
	start := s.initialKey()
	h0 := s.heuristic(&start)
	s.generated++
	if s.incumbent >= 0 && int(h0) >= s.incumbent {
		// Even the root's lower bound reaches the incumbent: the seed is
		// optimal without expanding a single state.
		s.pruned++
		return s.result(s.seedStall, s.seedSched.Clone(), true), nil
	}
	rootIdx := s.nodes.alloc()
	root := &s.nodes.recs[rootIdx]
	root.key = start
	root.h = h0
	tstart := s.tableKey(&start)
	s.table.put(&tstart, rootIdx)
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
			return s.result(int(rec.g), s.reconstruct(idx), false), nil
		}
		s.expand(idx, &key)
		if s.table.count > s.maxStates() {
			return nil, &TooLargeError{States: s.maxStates()}
		}
	}
	if s.seedSched != nil {
		// Every path was pruned against the incumbent, proving it optimal.
		return s.result(s.seedStall, s.seedSched.Clone(), true), nil
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
// stall cost, pruning against the incumbent and reopening closed nodes whose
// cost improves (the heuristic is admissible but not consistent).  With
// dominance active the table lookup keys on the canonicalized state, so a
// path reaching any bisimilar state merges into one node; the node's raw key
// and transition record always describe the best path's actual state.
func (s *searcher) relax(parent int32, next *stateKey, cost, anchor int, fetches []fetchAction) {
	s.generated++
	newG := s.nodes.recs[parent].g + int32(cost)
	tkey := s.tableKey(next)
	if idx := s.table.get(&tkey); idx != 0 {
		rec := &s.nodes.recs[idx]
		if s.dominance && rec.key != *next {
			s.prunedDom++
		} else {
			s.dupHits++
		}
		if rec.g <= newG {
			return
		}
		// No incumbent check here: the node passed g + h < incumbent when it
		// was inserted, and newG is smaller still.  h is invariant across the
		// dominance class (doc.go), so it is not recomputed on a merge.
		rec.key = *next
		rec.g = newG
		rec.cost = uint16(cost)
		rec.parent = parent
		rec.anchor = int32(anchor)
		rec.fetchOff, rec.fetchCnt = s.saveFetches(fetches)
		rec.closed = false
		s.queue.push(int(newG)+int(rec.h), idx)
		return
	}
	h := s.heuristic(next)
	if s.incumbent >= 0 && int(newG)+int(h) >= s.incumbent {
		s.pruned++
		return
	}
	fetchOff, fetchCnt := s.saveFetches(fetches)
	idx := s.nodes.alloc()
	rec := &s.nodes.recs[idx]
	rec.key = *next
	rec.g = newG
	rec.h = h
	rec.cost = uint16(cost)
	rec.parent = parent
	rec.anchor = int32(anchor)
	rec.fetchOff, rec.fetchCnt = fetchOff, fetchCnt
	s.table.put(&tkey, idx)
	s.queue.push(int(newG)+int(h), idx)
}

// chainStep is one transition of a reconstructed optimal path, in forward
// (root-to-goal) order.
type chainStep struct {
	serve   bool // the step served a request (otherwise it stalled)
	cost    int  // stall units of the step (0 for a serve step)
	anchor  int  // requests served when the fetches were initiated
	minTime int  // wall-clock initiation time of the fetches
	fetches []fetchAction
}

// reconstruct rebuilds an optimal schedule by walking parent links from the
// goal node and replaying the transitions (buildSchedule).
func (s *searcher) reconstruct(goal int32) *core.Schedule {
	var chain []int32
	for idx := goal; idx != 0; idx = s.nodes.recs[idx].parent {
		chain = append(chain, idx)
	}
	steps := make([]chainStep, 0, len(chain)-1)
	for i := len(chain) - 2; i >= 0; i-- {
		rec := &s.nodes.recs[chain[i]]
		parent := &s.nodes.recs[chain[i+1]]
		steps = append(steps, chainStep{
			serve: rec.key.served == parent.key.served+1,
			cost:  int(rec.cost),
			// The wall-clock time at which this transition's fetches were
			// initiated is the parent's cursor position plus the stall paid
			// so far; recording it as MinTime pins cross-disk dependencies
			// (a fetch started right after another disk's completion must
			// not start earlier when the schedule is replayed).
			anchor:  int(rec.anchor),
			minTime: int(parent.key.served) + int(parent.g),
			fetches: s.fetches[rec.fetchOff : rec.fetchOff+int32(rec.fetchCnt)],
		})
	}
	return s.buildSchedule(steps)
}

// buildSchedule replays a transition chain from the true initial state and
// emits the schedule.  With dominance merging, a node's recorded transition
// was generated from SOME member of its parent's dominance class, which can
// differ from the replayed state in dead (never-again-referenced) cache and
// in-flight content; the fetched blocks, disks, and timings are identical
// across the class, but an eviction victim may be absent.  The repair is
// total: a recorded dead victim that is missing here is replaced by a free
// location or by one of this state's own dead residents (one of the two must
// exist, because the class members' live content and in-flight slot counts
// agree — see doc.go).  Without dominance the chain is self-consistent and
// the replay reproduces the historical schedules byte for byte.
func (s *searcher) buildSchedule(steps []chainStep) *core.Schedule {
	var cache uint64
	for _, b := range s.in.InitialCache {
		cache |= 1 << uint(s.idxOf[b])
	}
	var flights [maxDisks]uint16
	served := 0
	sched := &core.Schedule{}
	for _, st := range steps {
		var inflight uint64
		for d := 0; d < s.in.Disks; d++ {
			if flights[d] != 0 {
				inflight |= 1 << uint(flightBlock(flights[d]))
			}
		}
		free := s.cap - bits.OnesCount64(cache) - bits.OnesCount64(inflight)
		for _, fa := range st.fetches {
			victim := fa.victim
			if victim == freeLocation {
				if free <= 0 {
					victim = s.deadResident(cache, served)
				}
			} else if cache&(1<<uint(victim)) == 0 {
				if free > 0 {
					victim = freeLocation
				} else {
					victim = s.deadResident(cache, served)
				}
			}
			if victim >= 0 {
				cache &^= 1 << uint(victim)
			} else {
				free--
			}
			flights[fa.disk] = flightOf(fa.block, s.in.F)
			evict := core.NoBlock
			if victim >= 0 {
				evict = s.blocks[victim]
			}
			f := core.NewFetch(fa.disk, st.anchor, s.blocks[fa.block], evict)
			f.MinTime = st.minTime
			sched.Append(f)
		}
		delta := 1
		if !st.serve {
			delta = st.cost
		}
		cache, flights = tick(cache, flights, delta, s.in.Disks)
		if st.serve {
			served++
		}
	}
	return sched
}

// deadResident returns a cached block that is never referenced at or after
// served.  buildSchedule calls it only when the dominance-class argument
// guarantees one exists.
func (s *searcher) deadResident(cache uint64, served int) int {
	dead := cache &^ s.futureMask[served]
	if dead == 0 {
		panic("opt: reconstruction found no dead resident to evict (internal error)")
	}
	return bits.TrailingZeros64(dead)
}
