// Package opt computes exactly optimal prefetching/caching schedules for
// small instances by informed search (A*) over system states.
//
// The paper compares its algorithms against an information-theoretic optimum
// OPT: the minimum stall time (equivalently elapsed time) over all feasible
// schedules.  For single disks [Albers, Garg, Leonardi, JACM 2000] show OPT
// is computable in polynomial time, and Section 3 of the paper extends this
// to parallel disks at the cost of a little extra cache; both run through a
// linear program (package lpmodel).  For the experiment harness we
// additionally want a completely independent ground truth, obtained here by
// exact state-space search.
//
// # State model
//
// A search state consists of the cursor position, the set of resident blocks,
// and, for every disk, the block currently being fetched together with its
// remaining fetch time.  Transitions either initiate fetches on idle disks,
// serve the next request (advancing every in-flight fetch by one time unit),
// or stall until the earliest fetch completion (paying the stall as cost).
// The minimum-cost path from the initial state to any state with every
// request served realises the minimum total stall time.
//
// # Search
//
// The engine is A* over the per-disk matching bound below.  Node records live
// in a flat arena addressed by int32 indices, reached states are looked up in
// an open-addressing hash table, and the frontier is a monotone bucket queue
// over f = g + h (stall costs are small non-negative integers), so the search
// performs no per-node heap allocations.  Two options switch the engine:
// NoHeuristic drops the bound, which yields the blind uniform-cost
// (Dijkstra) search, and Full branches over every choice (see Branching
// modes).  The property tests pin the informed engine to the blind one, and
// pruned branching to Full, on random instances.
//
// # The matching bound and its admissibility
//
// h lower-bounds the stall time still to be paid from a state s with r
// unserved requests.  Let n be the request count, t(s) the wall-clock time
// already spent and g(s) the stall already paid, so t(s) = (n - r) + g(s).
// Any completion of s serves r more requests, so its remaining elapsed time E
// satisfies remaining stall = E - r, and any lower bound T on E gives the
// admissible h = max(0, T - r).  T is the largest of the per-disk bounds
// below, each a lower bound on E for every feasible completion.
//
// Per-disk slot/reference matching.  Let disk d carry an in-flight fetch with
// rem_d time remaining (rem_d = 0 if idle) and let p_1 < p_2 < ... < p_m be
// the first future references of the m missing blocks on disk d (referenced
// at or after the cursor, neither resident nor in flight).  Fetches on one
// disk execute sequentially and cannot be aborted, so the j-th remaining
// fetch on disk d (any order) completes no earlier than slot_j = rem_d + j*F.
// Fix any completion and order the m fetches by the reference of the block
// they carry.  The fetch carrying the block referenced at p_j is, in that
// order, the j-th or later fetch, so it completes no earlier than slot_j; the
// requests p_j..n-1 can only be served after it, hence
//
//	E >= rem_d + j*F + (n - p_j)  for every j.
//
// This is the classic rearrangement (sorted-to-sorted matching) argument: the
// scheduler chooses the fetch order, but matching ascending completion slots
// to ascending references is the order that minimises the max of the chain
// bounds, so the max over j is a valid lower bound over all orders.  If the
// in-flight block itself is still referenced, at position q, its delivery
// completes rem_d from now and E >= rem_d + (n - q) joins the max.
//
// h is admissible but not consistent (a delivery can drop a bound by more
// than the transition's cost), so closed nodes are reopened when reached with
// a smaller g; A* with reopening pops the goal with an optimal g.  At a goal
// r = 0 and every bound is 0.
//
// # Branching modes
//
// Two branching modes are provided.  The default pruned mode applies two
// exchange arguments that are standard for this model (and are proved for
// fractional solutions as properties (1) and (2) in Section 3 of the paper):
// an optimal schedule may be assumed to fetch, on each disk, the missing
// block with the earliest next reference, and to evict a block whose next
// reference is furthest in the future.  The full mode branches over every
// missing block and every eviction victim; the tests verify on small random
// instances that both modes agree, supporting the pruning.
//
// # Schedule replay
//
// The reconstructed schedule carries wall-clock MinTime pins on its fetches:
// it encodes the exact execution plan the search costed, not just a fetch
// order.  The executor (internal/sim) honours this by advancing through
// intermediate completions and time gates while stalled on a pinned schedule,
// so mid-stall fetch initiations on other disks start exactly when the search
// assumed; MinTime-free schedules (the greedy and LP algorithms') keep the
// historical single-jump stall semantics.
package opt
