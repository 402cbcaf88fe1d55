package opt

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"pfcache/internal/core"
)

// The parallel branch-and-bound driver (Options.Workers > 1).  The open list
// is sharded across workers — each worker owns a mutex-guarded bucket queue
// and a stable chunked node arena — with work stealing on exhaustion, a
// shared atomic incumbent, and a shared mutex-sharded closed table keyed on
// canonicalized states.  Invariants (argued in doc.go):
//
//   - Node records are immutable once published: an improved path to a state
//     allocates a NEW record and atomically redirects the table entry's ref,
//     so readers (thieves popping stolen refs, reconstruction) never observe
//     a half-written record.  Publication happens-before consumption via the
//     queue and shard mutexes; arena chunks are published with atomic
//     pointers so a thief can dereference a victim's record while the victim
//     keeps allocating.
//   - The search is run to exhaustion under incumbent pruning (f >= incumbent
//     is discarded; goals update the incumbent by CAS-min), so the returned
//     stall is the exact optimum regardless of interleaving: a strictly
//     improving path always has f below every incumbent value that existed
//     before its goal was recorded, hence is never pruned.  Stall/elapsed are
//     therefore deterministic; effort counters are not.
//   - Termination: a pending counter is incremented before every queue push
//     and decremented after the popped item is fully processed (its children
//     pushed).  pending == 0 means no queued work and no in-flight
//     expansions.  An abort flag (MaxStates exhaustion, worker panic) breaks
//     the idle-spin so exhaustion failures cannot deadlock the join.
const (
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// maxWorkers caps Options.Workers (the global ref encoding and any sane
	// machine allow far more than this).
	maxWorkers = 64
)

// testWorkerFault, when non-nil, is invoked by each worker as it starts; the
// parallel failure-edge tests use it to inject a panic into a live worker.
var testWorkerFault func(worker int)

// workerArena is a chunked node store whose records never move: chunk
// pointers are published atomically into a fixed-length slot slice, so
// records can be dereferenced by other goroutines that learned the index
// through a queue or table (both mutex-guarded, providing happens-before for
// the record contents written prior to publication).
type workerArena struct {
	chunks []atomic.Pointer[[chunkSize]nodeRec]
	n      int32
}

func newWorkerArena(maxRecs int) *workerArena {
	return &workerArena{chunks: make([]atomic.Pointer[[chunkSize]nodeRec], maxRecs>>chunkShift+1)}
}

// alloc reserves the next record index, or -1 when the arena is full (the
// caller aborts the search with a state-budget error).
func (a *workerArena) alloc() int32 {
	idx := a.n
	ci := int(idx >> chunkShift)
	if ci >= len(a.chunks) {
		return -1
	}
	if a.chunks[ci].Load() == nil {
		a.chunks[ci].Store(new([chunkSize]nodeRec))
	}
	a.n++
	return idx
}

func (a *workerArena) rec(idx int32) *nodeRec {
	c := a.chunks[idx>>chunkShift].Load()
	return &c[idx&chunkMask]
}

// A global node reference packs the owning worker (plus one, so 0 stays the
// nil sentinel) and the index within its arena.
func globalRef(worker int, idx int32) int64 { return int64(worker+1)<<32 | int64(uint32(idx)) }
func refWorker(ref int64) int               { return int(ref>>32) - 1 }
func refIndex(ref int64) int32              { return int32(uint32(ref)) }

// pEntry is one closed-table entry: the canonical key, the ref of the best
// known record for the class, and its g (path cost) and h.  ref == 0 marks
// an empty slot.
type pEntry struct {
	key  stateKey
	ref  int64
	g, h int32
}

// pShard is one mutex-guarded slice of the closed table (linear probing,
// power-of-two slots, grown at 3/4 load).
type pShard struct {
	mu    sync.Mutex
	slots []pEntry
	count int
}

const numShards = 64 // power of two

func (sh *pShard) lookup(key *stateKey, hash uint64) *pEntry {
	mask := uint64(len(sh.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		e := &sh.slots[i]
		if e.ref == 0 {
			return nil
		}
		if e.key == *key {
			return e
		}
	}
}

// insert adds a new entry; the shard lock must be held and the key absent.
func (sh *pShard) insert(e pEntry) {
	if (sh.count+1)*4 >= len(sh.slots)*3 {
		old := sh.slots
		sh.slots = make([]pEntry, 2*len(old))
		for i := range old {
			if old[i].ref != 0 {
				sh.place(&old[i])
			}
		}
	}
	sh.place(&e)
	sh.count++
}

func (sh *pShard) place(e *pEntry) {
	mask := uint64(len(sh.slots) - 1)
	i := e.key.hash() & mask
	for sh.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	sh.slots[i] = *e
}

// pQueue is a worker's mutex-guarded bucket queue of global refs, keyed by f.
type pQueue struct {
	mu      sync.Mutex
	buckets [][]int64
	cur     int
	count   int
}

func (q *pQueue) push(f int, ref int64) {
	q.mu.Lock()
	for f >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
	q.buckets[f] = append(q.buckets[f], ref)
	if f < q.cur {
		q.cur = f
	}
	q.count++
	q.mu.Unlock()
}

func (q *pQueue) pop() (ref int64, f int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return 0, 0, false
	}
	for len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	b := q.buckets[q.cur]
	ref = b[len(b)-1]
	q.buckets[q.cur] = b[:len(b)-1]
	q.count--
	return ref, q.cur, true
}

// stealHalf removes up to half (at least one) of the OLDEST entries of the
// victim's lowest non-empty bucket.  Taking from the front leaves the
// victim's LIFO end untouched, which keeps its depth-first momentum.
func (q *pQueue) stealHalf() (f int, items []int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return 0, nil
	}
	for len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	b := q.buckets[q.cur]
	k := (len(b) + 1) / 2
	items = append([]int64(nil), b[:k]...)
	q.buckets[q.cur] = b[k:]
	q.count -= k
	return q.cur, items
}

func (q *pQueue) pushMany(f int, items []int64) {
	q.mu.Lock()
	for f >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
	q.buckets[f] = append(q.buckets[f], items...)
	if f < q.cur {
		q.cur = f
	}
	q.count += len(items)
	q.mu.Unlock()
}

// pWorker is one search worker's private state.
type pWorker struct {
	arena   *workerArena
	queue   pQueue
	fetches []fetchAction
	buf     succBuf
	hs      *hscratch

	expanded  int
	generated int
	pruned    int
	dupHits   int
	prunedDom int
}

// pGoal records the best goal transition found so far, under its own mutex.
type pGoal struct {
	mu      sync.Mutex
	found   bool
	g       int32
	cost    int32
	anchor  int32
	parent  int64
	fetches []fetchAction
}

// pSearch is the shared state of one parallel run.
type pSearch struct {
	s       *searcher
	workers []*pWorker
	shards  [numShards]pShard

	incumbent atomic.Int64 // best known total stall (math.MaxInt32 when none)
	tableSize atomic.Int64
	pending   atomic.Int64
	abort     atomic.Bool
	tooLarge  atomic.Bool

	panicMu  sync.Mutex
	panicVal any

	goal pGoal
}

func (p *pSearch) deref(ref int64) *nodeRec {
	return p.workers[refWorker(ref)].arena.rec(refIndex(ref))
}

func (p *pSearch) shardFor(hash uint64) *pShard {
	return &p.shards[hash&(numShards-1)]
}

// runParallel is the Workers > 1 entry point, called from searcher.run.
func (s *searcher) runParallel() (*Result, error) {
	w := s.opts.Workers
	if w > maxWorkers {
		w = maxWorkers
	}
	if s.opts.Bound == BoundGreedy {
		s.seedIncumbent()
	}
	start := s.initialKey()
	h0 := s.heuristic(&start, s.hs)
	s.generated++
	if s.incumbent >= 0 && int(h0) >= s.incumbent {
		// Same early exit as the sequential engine: the root's lower bound
		// already reaches the incumbent, so the seed is proven optimal.
		s.pruned++
		s.recordStats()
		res := s.result(s.seedStall, s.seedSched.Clone(), true)
		res.Workers = w
		res.WorkerExpanded = make([]int, w)
		return res, nil
	}
	p := &pSearch{s: s, workers: make([]*pWorker, w)}
	maxRecs := s.maxStates()
	for i := range p.workers {
		p.workers[i] = &pWorker{arena: newWorkerArena(maxRecs), hs: newHScratch(s.n)}
	}
	for i := range p.shards {
		p.shards[i].slots = make([]pEntry, minTableSlots/numShards)
	}
	if s.incumbent >= 0 {
		p.incumbent.Store(int64(s.incumbent))
	} else {
		p.incumbent.Store(math.MaxInt32)
	}

	// Root: worker 0 owns the start record.
	rootIdx := p.workers[0].arena.alloc()
	root := p.workers[0].arena.rec(rootIdx)
	root.key = start
	root.h = h0
	rootRef := globalRef(0, rootIdx)
	tstart := s.tableKey(&start)
	sh := p.shardFor(tstart.hash())
	sh.insert(pEntry{key: tstart, ref: rootRef, g: 0, h: h0})
	p.tableSize.Store(1)
	p.pending.Store(1)
	p.workers[0].generated = 1 // the root, mirroring the sequential engine
	p.workers[0].queue.push(int(h0), rootRef)

	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					p.panicMu.Lock()
					if p.panicVal == nil {
						p.panicVal = r
					}
					p.panicMu.Unlock()
					p.abort.Store(true)
				}
			}()
			if testWorkerFault != nil {
				testWorkerFault(worker)
			}
			p.workerLoop(worker)
		}(i)
	}
	wg.Wait()

	res := p.finish(w)
	if p.panicVal != nil {
		return nil, fmt.Errorf("opt: parallel worker panicked: %v", p.panicVal)
	}
	if p.tooLarge.Load() {
		return nil, &TooLargeError{States: s.maxStates()}
	}
	if p.goal.found && (s.incumbent < 0 || int(p.goal.g) < s.seedStall) {
		res.Stall = int(p.goal.g)
		res.Elapsed = s.n + res.Stall
		res.Schedule = p.reconstruct()
		return res, nil
	}
	if s.seedSched != nil {
		res.Stall = s.seedStall
		res.Elapsed = s.n + res.Stall
		res.Schedule = s.seedSched.Clone()
		res.SeedOptimal = true
		return res, nil
	}
	return nil, fmt.Errorf("opt: search exhausted without serving every request (internal error)")
}

// workerLoop drains the worker's own queue, stealing from siblings when it
// runs dry, until the whole search is exhausted or aborted.
func (p *pSearch) workerLoop(worker int) {
	w := p.workers[worker]
	for {
		if p.abort.Load() {
			return
		}
		ref, f, ok := w.queue.pop()
		if !ok {
			if p.trySteal(worker) {
				continue
			}
			if p.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		p.process(worker, ref, f)
		p.pending.Add(-1)
	}
}

// trySteal moves half of some sibling's cheapest bucket into this worker's
// queue; it reports whether anything was stolen.
func (p *pSearch) trySteal(worker int) bool {
	for off := 1; off < len(p.workers); off++ {
		victim := p.workers[(worker+off)%len(p.workers)]
		if f, items := victim.queue.stealHalf(); len(items) > 0 {
			p.workers[worker].queue.pushMany(f, items)
			return true
		}
	}
	return false
}

// process expands one popped node unless it is stale (the table holds a
// better record for its class) or pruned by the incumbent.
func (p *pSearch) process(worker int, ref int64, f int) {
	w := p.workers[worker]
	if int64(f) >= p.incumbent.Load() {
		return
	}
	rec := p.deref(ref)
	tkey := p.s.tableKey(&rec.key)
	hash := tkey.hash()
	sh := p.shardFor(hash)
	sh.mu.Lock()
	e := sh.lookup(&tkey, hash)
	stale := e == nil || e.ref != ref
	sh.mu.Unlock()
	if stale {
		return
	}
	w.expanded++
	key := rec.key
	g := rec.g
	p.s.generate(&key, &w.buf)
	for i := range w.buf.recs {
		sr := &w.buf.recs[i]
		p.relaxParallel(worker, ref, g, sr)
	}
}

// relaxParallel merges one staged successor into the shared table, pushing
// improved records onto the worker's own queue and routing goal states to
// the incumbent.
func (p *pSearch) relaxParallel(worker int, parent int64, parentG int32, sr *succRec) {
	s := p.s
	w := p.workers[worker]
	w.generated++
	newG := parentG + sr.cost
	if int(sr.key.served) == s.n {
		p.recordGoal(worker, parent, newG, sr)
		return
	}
	tkey := s.tableKey(&sr.key)
	hash := tkey.hash()
	sh := p.shardFor(hash)

	var h int32
	haveH := false
	for {
		sh.mu.Lock()
		e := sh.lookup(&tkey, hash)
		if e != nil {
			if s.dominance && p.deref(e.ref).key != sr.key {
				w.prunedDom++
			} else {
				w.dupHits++
			}
			if e.g <= newG {
				sh.mu.Unlock()
				return
			}
			h = e.h
			if int64(newG)+int64(h) >= p.incumbent.Load() {
				sh.mu.Unlock()
				w.pruned++
				return
			}
			idx := w.arena.alloc()
			if idx < 0 {
				sh.mu.Unlock()
				p.tooLarge.Store(true)
				p.abort.Store(true)
				return
			}
			rec := w.arena.rec(idx)
			p.fillRec(rec, worker, parent, newG, h, sr)
			ref := globalRef(worker, idx)
			e.g = newG
			e.ref = ref
			sh.mu.Unlock()
			p.pending.Add(1)
			w.queue.push(int(newG)+int(h), ref)
			return
		}
		if haveH {
			// Insert a fresh entry (h computed while unlocked).
			idx := w.arena.alloc()
			if idx < 0 {
				sh.mu.Unlock()
				p.tooLarge.Store(true)
				p.abort.Store(true)
				return
			}
			rec := w.arena.rec(idx)
			p.fillRec(rec, worker, parent, newG, h, sr)
			ref := globalRef(worker, idx)
			count := int(p.tableSize.Add(1))
			sh.insert(pEntry{key: tkey, ref: ref, g: newG, h: h})
			sh.mu.Unlock()
			if count > s.maxStates() {
				p.tooLarge.Store(true)
				p.abort.Store(true)
				return
			}
			p.pending.Add(1)
			w.queue.push(int(newG)+int(h), ref)
			return
		}
		// Compute h outside the lock (it walks the request tail), then
		// re-check: another worker may have inserted the class meanwhile.
		sh.mu.Unlock()
		h = s.heuristic(&sr.key, w.hs)
		if int64(newG)+int64(h) >= p.incumbent.Load() {
			w.pruned++
			return
		}
		haveH = true
	}
}

// fillRec writes an immutable node record prior to publication.  The caller
// holds the shard lock of the record's class; the record becomes reachable
// only through e.ref (same lock) or the queue push (queue lock), both of
// which order these writes before any reader.
func (p *pSearch) fillRec(rec *nodeRec, worker int, parent int64, g, h int32, sr *succRec) {
	w := p.workers[worker]
	off := int32(len(w.fetches))
	w.fetches = append(w.fetches, w.buf.fetchesOf(sr)...)
	rec.key = sr.key
	rec.g = g
	rec.h = h
	rec.cost = uint16(sr.cost)
	rec.parent = 0
	rec.anchor = sr.anchor
	rec.fetchOff = off
	rec.fetchCnt = sr.fetchCnt
	rec.parentRef = parent
}

// recordGoal lowers the shared incumbent and keeps the best goal transition
// for reconstruction.
func (p *pSearch) recordGoal(worker int, parent int64, g int32, sr *succRec) {
	for {
		cur := p.incumbent.Load()
		if int64(g) >= cur {
			return
		}
		if p.incumbent.CompareAndSwap(cur, int64(g)) {
			break
		}
	}
	w := p.workers[worker]
	p.goal.mu.Lock()
	if !p.goal.found || g < p.goal.g {
		p.goal.found = true
		p.goal.g = g
		p.goal.cost = sr.cost
		p.goal.anchor = sr.anchor
		p.goal.parent = parent
		p.goal.fetches = append(p.goal.fetches[:0], w.buf.fetchesOf(sr)...)
	}
	p.goal.mu.Unlock()
}

// reconstruct rebuilds the optimal schedule from the recorded goal by walking
// parent refs across the worker arenas (all immutable once the workers have
// joined) and replaying the chain through the shared buildSchedule.
func (p *pSearch) reconstruct() *core.Schedule {
	s := p.s
	var refs []int64
	for ref := p.goal.parent; ref != 0; ref = p.deref(ref).parentRef {
		refs = append(refs, ref)
	}
	steps := make([]chainStep, 0, len(refs)+1)
	for i := len(refs) - 2; i >= 0; i-- {
		rec := p.deref(refs[i])
		parent := p.deref(refs[i+1])
		wk := p.workers[refWorker(refs[i])]
		steps = append(steps, chainStep{
			serve:   rec.key.served == parent.key.served+1,
			cost:    int(rec.cost),
			anchor:  int(rec.anchor),
			minTime: int(parent.key.served) + int(parent.g),
			fetches: wk.fetches[rec.fetchOff : rec.fetchOff+int32(rec.fetchCnt)],
		})
	}
	last := p.deref(refs[0])
	steps = append(steps, chainStep{
		serve:   true,
		cost:    int(p.goal.cost),
		anchor:  int(p.goal.anchor),
		minTime: int(last.key.served) + int(last.g),
		fetches: p.goal.fetches,
	})
	return s.buildSchedule(steps)
}

// finish sums the per-worker counters into a Result shell (stall, schedule
// and seed fields are filled by runParallel) and the caller's sink.
func (p *pSearch) finish(workers int) *Result {
	s := p.s
	res := &Result{
		Workers:        workers,
		WorkerExpanded: make([]int, workers),
		SeedAlgorithm:  s.seedName,
		SeedStall:      -1,
	}
	if s.seedSched != nil {
		res.SeedStall = s.seedStall
	}
	res.LandmarkHits = s.hs.landmarkHits // root evaluation
	var workerExpanded uint64
	for i, w := range p.workers {
		res.WorkerExpanded[i] = w.expanded
		res.StatesExpanded += w.expanded
		res.StatesGenerated += w.generated
		res.PrunedByBound += w.pruned
		res.DuplicateHits += w.dupHits
		res.PrunedByDominance += w.prunedDom
		res.LandmarkHits += w.hs.landmarkHits
		workerExpanded += uint64(w.expanded)
	}
	res.PeakTableSize = int(p.tableSize.Load())
	s.opts.Stats.Add(Counters{
		Searches:          1,
		Expanded:          uint64(res.StatesExpanded),
		Generated:         uint64(res.StatesGenerated),
		PrunedByBound:     uint64(res.PrunedByBound),
		DuplicateHits:     uint64(res.DuplicateHits),
		PrunedByDominance: uint64(res.PrunedByDominance),
		LandmarkHits:      uint64(res.LandmarkHits),
		PeakTable:         uint64(res.PeakTableSize),
		Workers:           uint64(workers),
		WorkerExpanded:    workerExpanded,
	})
	return res
}
