// Package lpmodel implements the linear-programming approach of Section 3 of
// the paper: computing prefetching/caching schedules for D parallel disks
// whose stall time is bounded by the optimal stall time sOPT(sigma, k), using
// a small number of extra cache locations.
//
// # The synchronized-schedule linear program
//
// Following the paper, a schedule is synchronized if fetch operations on the
// D disks are performed completely in parallel: no two fetch operations
// properly intersect and during a fetch interval every disk fetches.  Lemma 3
// shows that allowing D-1 extra cache locations there is always a
// synchronized schedule whose stall time is at most sOPT(sigma, k).  The
// program therefore optimises over synchronized schedules with k+D-1 cache
// locations:
//
//   - For every interval I = (i, j) of length |I| = j-i-1 <= F (a fetch
//     starting after request r_i and ending before r_j) a variable x(I) says
//     whether synchronized fetches are performed in I; the objective
//     minimises the total end-of-interval stall sum_I x(I) (F - |I|).
//   - Variables f_{I,a} and e_{I,a} say whether block a is fetched (evicted)
//     in interval I.  Constraints: at most one interval spans any request
//     boundary; every disk fetches exactly x(I) in I; fetches equal evictions
//     in I; every block is in cache when referenced (first-reference and
//     between-references flow constraints); blocks are not fetched or evicted
//     in intervals containing their own references; initially cached blocks
//     are evicted at most once before their next use.
//
// The paper fills the initial cache S_init up to k+D-1 locations with dummy
// blocks that are never requested, standing in for the initially irrelevant
// cache contents.  A never-requested block gets no fetch column (see the
// next section), so the d = k+D-1-|S_init| dummies are interchangeable:
// their evict columns differ only in which dummy's "evicted at most once"
// row they sit in.  Build therefore emits one dummy block on disk 0 (none
// when d = 0) with one evict column per interval, and its row reads
// sum_I e(I) <= d.  The optimum is unchanged.  Summing the d dummies'
// columns maps every solution of the paper's program to one of this
// program with the same objective, since the dummies cost nothing and meet
// the same balance rows.  Conversely, given e(I) >= 0 with
// sum_I e(I) <= d, lay the e(I) end to end on [0, d) and cut it at the
// integers: dummy c takes the part of each e(I) that falls in [c, c+1),
// which sums to at most 1.  Every balance row sees the same totals, so the
// split is a solution of the paper's program with the same objective.  On
// the serving benchmark's lp-cold instances, which start with an empty
// cache, this removed 37% of the program's columns.
//
// # Columns a schedule can use
//
// The paper gives every (interval I, block a) pair a fetch column f(I,a)
// and an evict column e(I,a), unless a is requested inside I.  Otherwise I
// lies in one gap between a's requests.  Build emits f(I,a) only when a later
// request of a closes that gap, so no block has a fetch column in its
// trailing gap, after its last request, and a never-requested block has
// none at all.  It emits e(I,a) except in the gap before the first request
// of a block that does not start in cache, where the paper's row
// sum_I e(I,a) = 0 pins them to 0; that row goes too.  Model.Extend keeps
// the rule: a request closes its block's trailing gap, whose intervals
// then gain the block's fetch columns.
//
// The feasible x-set, the projection of the feasible region onto x, stays
// the same, and with it the optimum and, under TieBreakObjective, the
// tie-broken vertex.  The forced-zero evictions carry nothing.  For the
// trailing fetches, read each f(I,a) as flow from a's gap into interval I
// and each e(I,a) as flow from I back into a's gap.  Every interval's
// fetch/evict row and every closed gap's balance row conserve flow, a
// non-initial block's first gap only emits flow, and a trailing gap is the
// only node where flow can both start and end.  So every unit of flow a
// trailing-gap fetch emits runs along a path through intervals and closed
// gaps that ends at a trailing-gap eviction.  Delete the flow on those
// paths and move each deleted fetch onto its interval's scratch column of
// the same disk: every disk row keeps its total, every fetch/evict and
// balance row loses as much on each side, every "evicted at most once" row
// only loses, and x is unchanged.  Conversely Build's program is the
// paper's with the omitted columns fixed at 0.  On the 126 lp-cold census
// instances this leaves 2,374.9 of 3,308.2 columns per program (28% fewer)
// and 621.5 of 630.3 rows.
//
// The relaxation is solved with the simplex solver of package lp; its
// optimal value is a lower bound on sOPT(sigma, k).  Build assembles the
// program in near-linear time in its size: intervals are enumerated
// start-major, so the per-start runs (contiguous, End-sorted index ranges)
// answer both the boundary-spanning and the gap-containment queries without
// scanning the interval list.
//
// # Column order
//
// Build lists the x(I) columns first, then each interval's fetch and
// eviction columns, interval by interval, then the scratch columns.  Within
// an interval I it follows the normal form of the paper's rounding
// (properties (1) and (2) below): first the fetch columns f(I,a) by
// ascending next request of block a at or after I's start, the block a disk
// fetches first, then the eviction columns e(I,a) by descending next
// request, the block a full cache evicts first.  A block never requested
// again, the dummy among them, counts as furthest; such blocks are the only
// ties, and they go in block order.  Model.Extend lists the columns of its
// new intervals by the same rule.  A fetch column it re-opens in an old
// interval comes after that interval's columns; its block's next request is
// the new one, later than every other block's.
//
// The order does not change the program.  Permuting columns keeps the
// feasible set and the optimum, and under TieBreakObjective, whose optimum
// is unique, the tie-broken vertex, so no table of the experiment suite can
// move.  It matters to the solver, which breaks ties by column index: the
// triangular crash gives each fetch/evict balance row of an interval the
// lowest-index eligible column with a ±1 in it, and the steepest-edge refill
// keeps the first of equally scored columns, so both now meet the paper's
// choice first.  On the 126 lp-cold census instances a solve takes 275.4
// pivots instead of 348.1 in block order (126.1 instead of 134.5 in phase
// one), with 3.389 refactorizations instead of 4.111; under
// TieBreakObjective, 470.9 instead of 546.0.  An untied program's optimal
// vertex depends on the pivot path, so a served stall can move: 4 of the
// 1,008 lp-cold instances of blocks 0-23 did (3 up, 1 down), all within
// Theorem 4.
//
// # Extracting an integral schedule
//
// The paper converts an optimal fractional solution into an integral one by
// ordering the intervals (after an untangling step that makes nested
// intervals share endpoints), associating each interval I with the time span
// [dist(I), dist(I)+x(I)) where dist(I) is the total x-mass of earlier
// intervals, sampling the timeline at integer offsets t, t+1, t+2, ... for a
// best offset t in [0,1), and normalising fetches and evictions so that every
// disk fetches the missing block with the earliest next reference (property
// (1)) and evicts a block whose next reference is furthest in the future
// (property (2)); the eviction bookkeeping (the set Q_t in Lemma 4) leaves at
// most D-1 fetches without an eviction, for a total of at most 2(D-1) extra
// cache locations.
//
// This package follows that recipe with one simplification that keeps the
// implementation verifiable: instead of normalising the fractional fetch and
// eviction variables by repeated exchange steps, the extractor takes only the
// sampled interval multiset I_t from the fractional solution and re-derives
// the fetched blocks and eviction victims greedily along the timeline using
// exactly the rules of properties (1) and (2), with a cache budget of
// k + (D-1) during planning (matching the fractional program), then again
// with the k + 2(D-1) Theorem 4 allows, and eviction only when the budget is
// exhausted.  The fetched blocks are derived by two roundings.  The first
// fetches, on each disk, the missing block whose next request is earliest.
// The second applies the program's own rule as well: it passes over the
// blocks requested strictly inside the sampled interval, for which the
// program has no fetch variable.  Neither is enough alone.  When a sampled
// interval is a pure scratch fetch and a shorter interval nested inside it
// fetches a block in time for its request, the first rounding fills the
// outer interval with that block, whose fetch then ends after the request,
// and stalls above OPT(k); the second rounding, alone, breaks Theorem 4 on
// other vertices.  Every candidate's schedule, for each offset, budget and
// rounding, is then executed on the real instance (cache size k, extra
// locations measured) and the best feasible one over all of them is
// returned: the lowest stall, then the least extra cache, then the first
// found, with every candidate of the first rounding tried before the
// second's (see Extract).  The result records the fractional
// lower bound so callers can check the Theorem 4 guarantee (stall equal to
// the lower bound, at most 2(D-1) extra locations), and the test suite
// asserts it against the exhaustive optimum of package opt on small
// instances.  When the fractional optimum happens to be integral - the common
// case on the instance sizes this solver targets - the sampled multiset is
// exactly the set of x(I)=1 intervals and the extraction is faithful to the
// paper without any simplification.
package lpmodel
