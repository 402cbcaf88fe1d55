package opt

// Landmark lower bounds: a per-position table lm[p] of stall lower bounds
// precomputed once up front from counting relaxations, in the spirit of ALT
// landmarks (precompute on a relaxed problem, combine with the per-state
// bound by max at query time).  Unlike the per-state fetch-work bounds in
// heuristic.go, lm[p] holds for EVERY state with served = p, whatever its
// cache and in-flight content, so it can be attached to a state in O(1).
//
// Derivation (the admissibility proof lives in doc.go).  Fix a window [a, t]
// and let c_d be the number of distinct disk-d blocks whose first reference
// at or after a falls inside the window.  Any state at position a holds at
// most cap resident blocks in total and at most one partially fetched block
// per disk, so disk d must still complete at least (c_d - cap_d - 1)+ full
// fetches before position t can be served, where cap_d is the (adversarial)
// share of the cache holding disk-d blocks.  Serving through t therefore
// takes at least F * v elapsed units, with
//
//	v(a, t) = min over cap allocations (sum cap_d <= cap) of
//	          max_d (c_d - 1 - cap_d)+
//
// which a waterfill computes exactly: v is the smallest level such that the
// excess sum_d (c_d - 1 - v)+ fits in cap.  Serving the t - a + 1 requests
// of the window takes t - a + 1 units, so the stall incurred inside the
// window is at least
//
//	win(a, t) = max(0, F*v(a,t) - (t - a + 1))
//
// Because win(a, t) holds for ANY entering state, the bounds of DISJOINT
// windows add: stall is attributed to the request it precedes, and disjoint
// windows partition the requests they cover.  The table is therefore the
// best chain of disjoint windows,
//
//	lm[p] = max(lm[p+1], max over t in [p, n) of win(p, t) + lm[t+1])
//
// computed right to left.  This summation is what lets the landmark beat the
// per-state matching bounds of heuristic.go: those bound a single saturation
// chain, while a phased workload can force capacity overflows in several
// disjoint phases whose stalls accumulate.
//
// The table costs O(n^2 * D) once per search (v is carried monotonically
// across t for fixed p) and is read-only during the search.

// initLandmarks builds s.landmark; called from initHeuristic when landmarks
// are enabled.
func (s *searcher) initLandmarks() {
	n := s.n
	s.landmark = make([]int32, n+1)
	f := s.in.F
	for p := n - 1; p >= 0; p-- {
		var cnt [maxDisks]int // c_d - counts of distinct first refs in [p, t]
		v := 0
		best := int(s.landmark[p+1]) // skip p: a window may start later
		for t := p; t < n; t++ {
			bi := int(s.seqIdx[t])
			if s.nextRefAt(bi, p) == t {
				cnt[s.diskOf[bi]]++
				// Raise the waterfill level until the excess fits in cap.
				for {
					excess := 0
					for d := 0; d < s.in.Disks; d++ {
						if e := cnt[d] - 1 - v; e > 0 {
							excess += e
						}
					}
					if excess <= s.cap {
						break
					}
					v++
				}
			}
			if lb := f*v - (t - p + 1); lb > 0 {
				if cand := lb + int(s.landmark[t+1]); cand > best {
					best = cand
				}
			}
		}
		s.landmark[p] = int32(best)
	}
}
