package opt

import "sync"

// The memory layer of the search: node records live in a flat arena slice and
// are addressed by int32 indices, and an open-addressing hash table maps
// packed state keys to arena indices.  Compared with the former
// map[stateKey]*nodeInfo this removes the per-node heap allocation and the
// map's bucket overhead, which were the allocation hot spot of the search.

// nodeRec is the bookkeeping attached to each reached state.  Records link to
// their predecessors by arena index and are updated in place when a cheaper
// path reopens them.
type nodeRec struct {
	key      stateKey
	g        int32 // best known stall cost to reach the state
	h        int32 // admissible lower bound on the remaining stall (computed once)
	parent   int32 // arena index of the predecessor on the best known path (0 for the root)
	anchor   int32 // requests served when the transition's fetches were initiated
	fetchOff int32 // offset into the searcher's fetch arena
	fetchCnt uint16
	cost     uint16 // stall cost of the incoming transition (reconstruction replay)
	closed   bool   // expanded at its final cost (cleared again if the node is reopened)
}

// nodeArena is the flat node store.  Index 0 is a reserved dummy so that 0
// can serve as the "no node" sentinel in table slots and parent links.
type nodeArena struct {
	recs []nodeRec
}

func newNodeArena() nodeArena {
	return nodeArena{recs: make([]nodeRec, 1, 1024)}
}

// alloc appends a zeroed record and returns its index.  Appending may move
// the backing array, so callers must not hold *nodeRec pointers across calls.
func (a *nodeArena) alloc() int32 {
	a.recs = append(a.recs, nodeRec{})
	return int32(len(a.recs) - 1)
}

// tableSlot is one open-addressing slot; node == 0 means empty.
type tableSlot struct {
	key  stateKey
	node int32
}

// nodeTable is a linear-probing hash table from state keys to arena indices.
// The slot count is always a power of two; the table grows at 3/4 load.
type nodeTable struct {
	slots []tableSlot
	count int
}

const minTableSlots = 1 << 10

func newNodeTable() nodeTable {
	return nodeTable{slots: make([]tableSlot, minTableSlots)}
}

// get returns the arena index recorded for key, or 0 if the key is absent.
func (t *nodeTable) get(key *stateKey) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := key.hash() & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.node == 0 {
			return 0
		}
		if s.key == *key {
			return s.node
		}
	}
}

// put records key -> node.  The key must not already be present.
func (t *nodeTable) put(key *stateKey, node int32) {
	if (t.count+1)*4 >= len(t.slots)*3 {
		t.grow()
	}
	t.insert(key, node)
	t.count++
}

func (t *nodeTable) insert(key *stateKey, node int32) {
	mask := uint64(len(t.slots) - 1)
	i := key.hash() & mask
	for t.slots[i].node != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = tableSlot{key: *key, node: node}
}

func (t *nodeTable) grow() {
	old := t.slots
	t.slots = make([]tableSlot, 2*len(old))
	for i := range old {
		if old[i].node != 0 {
			t.insert(&old[i].key, old[i].node)
		}
	}
}

// searchMem is the memory layer of one search: its node arena and
// node table.  A sweep runs hundreds of searches, and fresh arenas and tables
// were nearly half of what it allocated, so searches draw them from
// searchMemPool and hand them back when they finish.
type searchMem struct {
	nodes nodeArena
	table nodeTable
}

var searchMemPool = sync.Pool{New: func() any {
	return &searchMem{nodes: newNodeArena(), table: newNodeTable()}
}}

// The largest arena and table a finished search hands back to the pool.  A
// bigger one is left to the collector, so one huge search does not pin its
// memory for every small search after it; every pooled table is cleared on
// release, which the slot bound also keeps cheap.
const (
	maxPooledSlots = 1 << 16
	maxPooledRecs  = maxPooledSlots
)

// release empties m and returns it to the pool, unless it grew past the
// bounds above.
func (m *searchMem) release() {
	if len(m.table.slots) > maxPooledSlots || cap(m.nodes.recs) > maxPooledRecs {
		return
	}
	m.nodes.recs = m.nodes.recs[:1]
	m.nodes.recs[0] = nodeRec{}
	clear(m.table.slots)
	m.table.count = 0
	searchMemPool.Put(m)
}
