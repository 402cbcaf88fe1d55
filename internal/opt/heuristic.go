package opt

// The A* heuristic: an admissible per-state lower bound h on the remaining
// stall time, from the per-disk slot/reference matching bound.  Disk d's j-th
// remaining fetch completes no earlier than rem_d + j*F, and matching those
// completion slots (ascending) against the missing blocks' first future
// references (ascending) minimises, over the scheduler's choices, the latest
// "fetch completes, then the tail of requests is served" chain.  The largest
// such chain over all disks lower-bounds the remaining elapsed time T, and
// h = max(0, T - r) where r is the number of unserved requests (see doc.go
// for the admissibility argument).

// initHeuristic precomputes the per-position tables the bound is evaluated
// from: futureMask[p] is the set of block indices referenced at positions
// >= p, and nextRef a dense (n+1) x numBlocks table of
// first-reference-at-or-after positions (sentinel n when a block is never
// referenced again).
func (s *searcher) initHeuristic() {
	n := s.n
	nb := len(s.blocks)
	s.futureMask = make([]uint64, n+1)
	for p := n - 1; p >= 0; p-- {
		s.futureMask[p] = s.futureMask[p+1] | 1<<uint(s.seqIdx[p])
	}
	s.nextRef = make([]int32, (n+1)*nb)
	for bi := 0; bi < nb; bi++ {
		s.nextRef[n*nb+bi] = int32(n)
	}
	for p := n - 1; p >= 0; p-- {
		copy(s.nextRef[p*nb:(p+1)*nb], s.nextRef[(p+1)*nb:(p+2)*nb])
		s.nextRef[p*nb+int(s.seqIdx[p])] = int32(p)
	}
}

// nextRefAt returns the first position >= p at which block index bi is
// referenced, or n if there is none.
func (s *searcher) nextRefAt(bi, p int) int {
	return int(s.nextRef[p*len(s.blocks)+bi])
}

// heuristic computes h for a state.  With NoHeuristic set it returns 0, which
// reduces the search to uniform-cost (Dijkstra) order.
func (s *searcher) heuristic(key *stateKey) int32 {
	if s.opts.NoHeuristic {
		return 0
	}
	served := int(key.served)
	r := s.n - served
	future := s.futureMask[served]
	var inflight uint64
	for d := 0; d < s.in.Disks; d++ {
		if key.flights[d] != 0 {
			inflight |= 1 << uint(flightBlock(key.flights[d]))
		}
	}
	missing := future &^ (key.cache | inflight)

	// Collect, per disk, the ascending first-reference positions of the
	// missing future-referenced blocks: scanning the sequence forward visits
	// each block's first future reference in ascending position order.
	for d := 0; d < s.in.Disks; d++ {
		s.hrefs[d] = s.hrefs[d][:0]
	}
	if missing != 0 {
		seen := ^missing // positions of non-missing blocks are skipped as "seen"
		for p := served; p < s.n; p++ {
			bi := int(s.seqIdx[p])
			if seen&(1<<uint(bi)) != 0 {
				continue
			}
			seen |= 1 << uint(bi)
			d := s.diskOf[bi]
			s.hrefs[d] = append(s.hrefs[d], int32(p))
		}
	}

	best := 0
	f := s.in.F
	for d := 0; d < s.in.Disks; d++ {
		rem := 0
		fb := -1
		if key.flights[d] != 0 {
			rem = flightRemaining(key.flights[d])
			fb = flightBlock(key.flights[d])
		}
		// Per-disk slot/reference matching: ascending slots rem + j*F against
		// ascending refs.
		t := 0
		for j, ref := range s.hrefs[d] {
			if v := rem + (j+1)*f + (s.n - int(ref)); v > t {
				t = v
			}
		}
		if fb >= 0 && future&(1<<uint(fb)) != 0 {
			// The in-flight block itself is still needed: its first future
			// reference is served only after the fetch's remaining rem units.
			if t2 := rem + (s.n - s.nextRefAt(fb, served)); t2 > t {
				t = t2
			}
		}
		if t-r > best {
			best = t - r
		}
	}
	return int32(best)
}
