//go:build !race

// sync.Pool drops a random share of its Puts under the race detector, so
// these tests of what the exact search's pool keeps only hold in normal
// builds.

package opt

import (
	"runtime"
	"runtime/debug"
	"testing"

	"pfcache/internal/workload"
)

// countPoolNews pins the search-memory pool for the test — one P, so every
// Put lands where the next Get looks, and no collections, so nothing is
// dropped in between — and counts the fresh arena/table pairs it creates.
func countPoolNews(t *testing.T) *int {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	newMem := searchMemPool.New
	news := new(int)
	searchMemPool.New = func() any {
		*news++
		return newMem()
	}
	t.Cleanup(func() {
		searchMemPool.New = newMem
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	return news
}

// drainPool empties the search-memory pool, so the next Get shows exactly
// what was put back after this call.
func drainPool(news *int) {
	for before := *news; *news == before; {
		searchMemPool.Get()
	}
}

// TestSearchMemReusedAcrossSearches: a search on a warmed pool allocates no
// node arena or table, and finds the one it reuses empty.
func TestSearchMemReusedAcrossSearches(t *testing.T) {
	news := countPoolNews(t)
	in := workload.Instance(workload.Uniform(16, 7, 12), 3, 3, 2, workload.AssignStripe, 0)
	first, err := Optimal(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.PeakTableSize < 2 {
		t.Fatalf("the search materialised %d states; the test needs one that fills its table", first.PeakTableSize)
	}
	*news = 0
	second, err := Optimal(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *news != 0 {
		t.Errorf("the second search allocated %d fresh arena/table pairs, want 0", *news)
	}
	if second.StatesExpanded != first.StatesExpanded || second.PeakTableSize != first.PeakTableSize ||
		second.Stall != first.Stall {
		t.Errorf("the search on reused memory differs: %+v, first %+v", second, first)
	}
}

// TestSearchMemReleaseBounds: a finished search's memory goes back to the
// pool emptied, unless its table or arena grew past the pooling bounds.
func TestSearchMemReleaseBounds(t *testing.T) {
	news := countPoolNews(t)

	bigTable := &searchMem{nodes: newNodeArena(), table: nodeTable{slots: make([]tableSlot, 2*maxPooledSlots)}}
	bigArena := &searchMem{nodes: nodeArena{recs: make([]nodeRec, 1, 2*maxPooledRecs)}, table: newNodeTable()}
	for _, m := range []*searchMem{bigTable, bigArena} {
		drainPool(news)
		m.release()
		if got := searchMemPool.Get().(*searchMem); got == m {
			t.Errorf("memory with %d table slots and %d arena records went back to the pool",
				len(m.table.slots), cap(m.nodes.recs))
		}
	}

	// Within the bounds the memory is pooled, emptied.
	m := &searchMem{nodes: newNodeArena(), table: newNodeTable()}
	for i := 0; i < 900; i++ {
		key := stateKey{served: int32(i), cache: uint64(i) * 0x9e3779b97f4a7c15}
		idx := m.nodes.alloc()
		m.nodes.recs[idx].key = key
		m.table.put(&key, idx)
	}
	m.nodes.recs[0].g = 7
	drainPool(news)
	m.release()
	got := searchMemPool.Get().(*searchMem)
	if got != m {
		t.Fatalf("memory within the pooling bounds (%d slots, %d records) was not pooled",
			len(m.table.slots), cap(m.nodes.recs))
	}
	if len(got.nodes.recs) != 1 || got.nodes.recs[0] != (nodeRec{}) || got.table.count != 0 {
		t.Errorf("pooled memory not emptied: %d records (dummy %+v), table count %d",
			len(got.nodes.recs), got.nodes.recs[0], got.table.count)
	}
	for i := range got.table.slots {
		if got.table.slots[i].node != 0 {
			t.Fatalf("pooled table slot %d still holds node %d", i, got.table.slots[i].node)
		}
	}
}
