// Package opt computes exactly optimal prefetching/caching schedules for
// small instances by informed search (A* with branch-and-bound pruning) over
// system states.
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
// The engine is A* with branch-and-bound pruning.  Node records live in a
// flat arena addressed by int32 indices, reached states are looked up in an
// open-addressing hash table, and the frontier is a monotone bucket queue
// over f = g + h (stall costs are small non-negative integers), so the search
// performs no per-node heap allocations.  Options can disable every
// refinement (NoHeuristic, NoDominance, BoundNone); NoHeuristic
// plus BoundNone yields exactly the historical uniform-cost Dijkstra search
// (dominance auto-disables there), and the property tests pin the informed
// engine to the blind one on random instances.
//
// # The bound hierarchy and its admissibility
//
// h lower-bounds the stall time still to be paid from a state s with r
// unserved requests.  Let n be the request count, t(s) the wall-clock time
// already spent and g(s) the stall already paid, so t(s) = (n - r) + g(s).
// Any completion of s serves r more requests, so its remaining elapsed time E
// satisfies remaining stall = E - r, and any lower bound T on E gives the
// admissible h = max(0, T - r).  Two bound families are combined by max;
// each lower-bounds E for every feasible completion.
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
// completes rem_d from now and E >= rem_d + (n - q) joins the max.  The old
// PR-3 bound rem_d + m*F + (n - maxRef_d) is exactly the j = m term, so the
// matching bound dominates it.
//
// Disk-pair merged-slot relaxation.  For a pair of disks, merge their
// completion slots (the multiset {rem_1 + j*F} union {rem_2 + j*F}, sorted
// ascending) and their references (sorted ascending), and apply the same
// matching.  This relaxes the block-to-disk binding — it pretends either disk
// could fetch any of the pair's blocks — so it is weaker per block, but it
// sees the pair's joint saturation: the j-th earliest completion across both
// disks happens no earlier than the j-th smallest merged slot, which no
// per-disk bound can state.  Relaxations only remove constraints, so the
// bound remains admissible; it strictly wins when both disks are loaded and
// their references interleave.
//
// h is admissible but not consistent (a delivery can drop a bound by more
// than the transition's cost), so closed nodes are reopened when reached with
// a smaller g; A* with reopening pops the goal with an optimal g.  At a goal
// r = 0 and every bound is 0.
//
// # Branch-and-bound
//
// Before the search, the existing greedy algorithms (package single's
// registry for one disk, package parallel's strategies otherwise) produce
// feasible schedules; the cheapest executed stall time seeds the incumbent
// upper bound, and every generated state with g + h >= incumbent is pruned.
// On an optimal path g + h never exceeds the optimal stall, so pruning is
// lossless while the incumbent is an upper bound; if the incumbent is itself
// optimal the search prunes every path and returns the seed schedule, whose
// optimality is thereby proved.  Seeds run on the nominal cache size k, so
// their stall also upper-bounds searches granted ExtraCache locations (extra
// cache never increases the optimum).
//
// # Dominance merging
//
// Two states can differ syntactically yet admit exactly the same completions
// at the same costs.  canonicalize (opt.go) maps a state to its
// dominance-class representative: resident blocks that are never referenced
// again are dropped from the cache mask, and an in-flight block that is never
// referenced again is renamed to the deadBlock sentinel (its remaining time
// is kept — it still occupies the disk).  The canonical form is a
// bisimulation quotient: a dead resident block never satisfies a future
// request, and evicting it is always at least as good as evicting a live
// block (any schedule that evicts a live block while a dead one is resident
// can be repaired, move for move, to evict the dead one first — the repaired
// schedule serves every request no later); a dead in-flight block's identity
// is irrelevant once its delivery can never serve a request, only its
// remaining occupancy matters.  Hence two states with equal canonical keys
// have identical optimal remaining costs, and the node table keys on the
// canonical form.  A hit with equal raw key counts as DuplicateHits (the
// historical path); a hit whose raw keys differ counts as PrunedByDominance.
// The free-slot direction is covered by the same repair: a state with a dead
// block occupying a cache slot is bisimilar to the state with the slot free,
// because the dead occupant can be evicted by the next fetch at no cost.
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
