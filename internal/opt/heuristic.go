package opt

// The A* heuristic: an admissible per-state lower bound h on the remaining
// stall time.  Three families of bounds are combined by max (each is a valid
// lower bound on the remaining elapsed time E, and h = max(0, T - r) where r
// is the number of unserved requests; see doc.go for the admissibility
// arguments):
//
//   - the per-disk slot/reference matching bound: disk d's j-th remaining
//     fetch completes no earlier than rem_d + j*F, and matching those
//     completion slots (ascending) against the missing blocks' first future
//     references (ascending) minimises, over the scheduler's choices, the
//     latest "fetch completes, then the tail of requests is served" chain;
//   - the disk-pair merged-slot bound: the same matching over the merged
//     completion slots of a disk pair against the pair's merged references,
//     which relaxes block-to-disk binding but exposes joint saturation;
//   - the landmark bound (landmark.go): a state-independent window-density
//     bound precomputed once up front from per-disk counting relaxations.
//
// The old PR-3 bound (rem + m*F + (n - maxRef) per disk) is exactly the last
// term (j = m) of the per-disk matching bound, so the new bound dominates it.

// initHeuristic precomputes the per-position tables the bound is evaluated
// from: futureMask[p] is the set of block indices referenced at positions
// >= p, diskMask[d] the blocks residing on disk d, and nextRef a dense
// (n+1) x numBlocks table of first-reference-at-or-after positions (sentinel
// n when a block is never referenced again).  With landmarks enabled it also
// builds the window-density landmark table (landmark.go).
func (s *searcher) initHeuristic() {
	n := s.n
	nb := len(s.blocks)
	s.futureMask = make([]uint64, n+1)
	for p := n - 1; p >= 0; p-- {
		s.futureMask[p] = s.futureMask[p+1] | 1<<uint(s.seqIdx[p])
	}
	for bi := range s.blocks {
		s.diskMask[s.diskOf[bi]] |= 1 << uint(bi)
	}
	s.nextRef = make([]int32, (n+1)*nb)
	for bi := 0; bi < nb; bi++ {
		s.nextRef[n*nb+bi] = int32(n)
	}
	for p := n - 1; p >= 0; p-- {
		copy(s.nextRef[p*nb:(p+1)*nb], s.nextRef[(p+1)*nb:(p+2)*nb])
		s.nextRef[p*nb+int(s.seqIdx[p])] = int32(p)
	}
	if s.useLandmarks() {
		s.initLandmarks()
	}
}

// nextRefAt returns the first position >= p at which block index bi is
// referenced, or n if there is none.
func (s *searcher) nextRefAt(bi, p int) int {
	return int(s.nextRef[p*len(s.blocks)+bi])
}

// useLandmarks reports whether the landmark table participates in h.
func (s *searcher) useLandmarks() bool {
	return !s.opts.NoHeuristic && !s.opts.NoLandmarks
}

// useDominance reports whether canonicalized dominance merging is active.
// The blind reference configuration (NoHeuristic + BoundNone) keeps it off so
// that configuration remains exactly the historical Dijkstra engine.
func (s *searcher) useDominance() bool {
	if s.opts.NoDominance {
		return false
	}
	return !(s.opts.NoHeuristic && s.opts.Bound == BoundNone)
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
	// Disk-pair merged-slot bounds: joint saturation of a pair that the
	// per-disk bounds cannot see.  Skipped when either side has no missing
	// work (the merged matching would only borrow the idle disk's cheaper
	// slots and weaken below the per-disk bound).
	for d1 := 0; d1 < s.in.Disks; d1++ {
		if len(s.hrefs[d1]) == 0 {
			continue
		}
		rem1 := 0
		if key.flights[d1] != 0 {
			rem1 = flightRemaining(key.flights[d1])
		}
		for d2 := d1 + 1; d2 < s.in.Disks; d2++ {
			if len(s.hrefs[d2]) == 0 {
				continue
			}
			rem2 := 0
			if key.flights[d2] != 0 {
				rem2 = flightRemaining(key.flights[d2])
			}
			if t := pairBound(s.hrefs[d1], s.hrefs[d2], rem1, rem2, f, s.n); t-r > best {
				best = t - r
			}
		}
	}
	if s.useLandmarks() {
		if lm := int(s.landmark[served]); lm > best {
			best = lm
			s.landmarkHits++
		}
	}
	return int32(best)
}

// pairBound matches the merged ascending completion slots of two disks
// (rem1 + j*F and rem2 + j*F) against the pair's merged ascending first
// references: the j-th earliest completion across the pair happens no earlier
// than the j-th smallest merged slot, and sorted-to-sorted matching minimises
// the resulting max over the scheduler's choices, so the result lower-bounds
// the remaining elapsed time.
func pairBound(refs1, refs2 []int32, rem1, rem2, f, n int) int {
	i1, i2 := 0, 0
	j1, j2 := 0, 0
	t := 0
	for i1 < len(refs1) || i2 < len(refs2) {
		var ref int
		if i2 >= len(refs2) || (i1 < len(refs1) && refs1[i1] <= refs2[i2]) {
			ref = int(refs1[i1])
			i1++
		} else {
			ref = int(refs2[i2])
			i2++
		}
		s1 := rem1 + (j1+1)*f
		s2 := rem2 + (j2+1)*f
		var slot int
		if s1 <= s2 {
			slot = s1
			j1++
		} else {
			slot = s2
			j2++
		}
		if v := slot + n - ref; v > t {
			t = v
		}
	}
	return t
}
