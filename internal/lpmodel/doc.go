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
//     (including k+D-1 dummy blocks that are never requested, standing in for
//     the initially irrelevant cache contents) are evicted at most once
//     before their next use.
//
// The relaxation is solved with the simplex solver of package lp; its
// optimal value is a lower bound on sOPT(sigma, k).  Build assembles the
// program in near-linear time in its size: intervals are enumerated
// start-major, so the per-start runs (contiguous, End-sorted index ranges)
// answer both the boundary-spanning and the gap-containment queries without
// scanning the interval list.
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
// exhausted.  Every candidate's schedule, for each offset and budget, is
// then executed on the real instance (cache size k, extra locations
// measured) and the best feasible one over all of them is returned (see
// Extract); the result records the fractional
// lower bound so callers can check the Theorem 4 guarantee (stall equal to
// the lower bound, at most 2(D-1) extra locations), and the test suite
// asserts it against the exhaustive optimum of package opt on small
// instances.  When the fractional optimum happens to be integral - the common
// case on the instance sizes this solver targets - the sampled multiset is
// exactly the set of x(I)=1 intervals and the extraction is faithful to the
// paper without any simplification.
package lpmodel
