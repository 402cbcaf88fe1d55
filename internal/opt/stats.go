package opt

import "sync/atomic"

// Search counters, mirroring internal/lp's Stats sink: every Optimal call run
// with Options.Stats set accumulates its work in that sink, so a whole
// experiment run can report how much exhaustive-search effort it spent
// (pcbench embeds the snapshot in its -json output for BENCH_*.json
// trajectory tracking).  The sums are order-independent, so they are
// byte-reproducible under the concurrent experiment driver.

// Counters aggregates search work across every Optimal call counted in one
// sink.
type Counters struct {
	// Searches counts completed Optimal calls (including failed ones).
	Searches uint64
	// Expanded counts states popped from the queue and expanded.
	Expanded uint64
	// Generated counts states produced for relaxation (each search's root
	// plus every successor produced by an expansion).
	Generated uint64
	// PrunedByBound counts successors discarded because g + h reached the
	// branch-and-bound incumbent.
	PrunedByBound uint64
	// DuplicateHits counts successors that were already present in the node
	// table under the same raw key.
	DuplicateHits uint64
	// PrunedByDominance counts successors merged into a bisimilar node under
	// canonicalized dominance (different raw key, equal canonical key).
	PrunedByDominance uint64
	// LandmarkHits counts heuristic evaluations where the precomputed
	// landmark bound strictly exceeded the per-state fetch-work bounds.
	LandmarkHits uint64
	// PeakTable is the largest node-table size seen in any single search.
	PeakTable uint64
}

// Stats is a counter sink for exact searches: atomic, so concurrent searches
// may share one.  PeakTable is a running maximum, every other field a sum.
// The zero value is an empty sink.
type Stats struct {
	searches, expanded, generated, pruned, dup, dom, landmark, peak atomic.Uint64
}

// Add folds c into the sink: the sums add, PeakTable raises the running
// maximum.  Searches record through it, and a caller that owns several
// sinks combines them into one with it.  A nil sink ignores the call.
func (s *Stats) Add(c Counters) {
	if s == nil {
		return
	}
	s.searches.Add(c.Searches)
	s.expanded.Add(c.Expanded)
	s.generated.Add(c.Generated)
	s.pruned.Add(c.PrunedByBound)
	s.dup.Add(c.DuplicateHits)
	s.dom.Add(c.PrunedByDominance)
	s.landmark.Add(c.LandmarkHits)
	casMax(&s.peak, c.PeakTable)
}

// Snapshot returns the sink's current totals.
func (s *Stats) Snapshot() Counters {
	return Counters{
		Searches:          s.searches.Load(),
		Expanded:          s.expanded.Load(),
		Generated:         s.generated.Load(),
		PrunedByBound:     s.pruned.Load(),
		DuplicateHits:     s.dup.Load(),
		PrunedByDominance: s.dom.Load(),
		LandmarkHits:      s.landmark.Load(),
		PeakTable:         s.peak.Load(),
	}
}

// casMax raises c to v if v is larger (a running maximum).
func casMax(c *atomic.Uint64, v uint64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// recordStats folds one search's counters into the caller's sink.
func (s *searcher) recordStats() {
	s.opts.Stats.Add(Counters{
		Searches:          1,
		Expanded:          uint64(s.expanded),
		Generated:         uint64(s.generated),
		PrunedByBound:     uint64(s.pruned),
		DuplicateHits:     uint64(s.dupHits),
		PrunedByDominance: uint64(s.prunedDom),
		LandmarkHits:      uint64(s.landmarkHits),
		PeakTable:         uint64(s.table.count),
	})
}
