package opt

import (
	"errors"
	"math/rand"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/sim"
	"pfcache/internal/workload"
)

// dijkstraOptions is the configuration of the blind reference search: no
// heuristic, i.e. uniform-cost (Dijkstra) order.
func dijkstraOptions(base Options) Options {
	base.NoHeuristic = true
	return base
}

// TestAStarMatchesDijkstraProperty is the central engine property test: on
// random single- and multi-disk instances — including extra cache locations
// and full branching — the informed A* search must report exactly the stall
// and elapsed time of the blind Dijkstra reference, and both schedules must
// execute to the reported stall.  Two fixed instances ride along: a warm
// single-disk scan and a two-disk striped scan, on which a greedy schedule
// is already optimal.
func TestAStarMatchesDijkstraProperty(t *testing.T) {
	type trialCase struct {
		in    *core.Instance
		extra int
		full  bool
	}
	cases := []trialCase{
		{in: core.SingleDisk(workload.SequentialScan(16, 8), 4, 2).WithInitialCache(0, 1, 2, 3)},
		{in: workload.Instance(workload.SequentialScan(12, 6), 4, 2, 2, workload.AssignStripe, 0)},
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		n := 6 + rng.Intn(12)
		blocks := 3 + rng.Intn(5)
		k := 2 + rng.Intn(3)
		f := 1 + rng.Intn(4)
		disks := 1 + rng.Intn(3)
		extra := rng.Intn(2)
		full := trial%5 == 0 && n <= 9 // full branching only on tiny instances
		seq := workload.Uniform(n, blocks, int64(4000+trial))
		in := workload.Instance(seq, k, f, disks, workload.AssignStripe, 0)
		cases = append(cases, trialCase{in: in, extra: extra, full: full})
	}
	for trial, c := range cases {
		in, extra := c.in, c.extra
		opts := Options{ExtraCache: extra, Full: c.full}
		astar, err := Optimal(in, opts)
		if err != nil {
			t.Fatalf("trial %d astar: %v", trial, err)
		}
		dijk, err := Optimal(in, dijkstraOptions(opts))
		if err != nil {
			t.Fatalf("trial %d dijkstra: %v", trial, err)
		}
		if astar.Stall != dijk.Stall || astar.Elapsed != dijk.Elapsed {
			t.Fatalf("trial %d: astar stall/elapsed %d/%d != dijkstra %d/%d (%v extra=%d full=%v)",
				trial, astar.Stall, astar.Elapsed, dijk.Stall, dijk.Elapsed, in, extra, c.full)
		}
		if astar.StatesExpanded > dijk.StatesExpanded {
			t.Fatalf("trial %d: astar expanded %d states, more than dijkstra's %d (%v)",
				trial, astar.StatesExpanded, dijk.StatesExpanded, in)
		}
		for name, res := range map[string]*Result{"astar": astar, "dijkstra": dijk} {
			simRes, err := sim.Run(in, res.Schedule, sim.Options{})
			if err != nil {
				t.Fatalf("trial %d: %s schedule infeasible: %v\n%v", trial, name, err, res.Schedule)
			}
			if simRes.Stall != res.Stall {
				t.Fatalf("trial %d: %s schedule executes to stall %d, reported %d", trial, name, simRes.Stall, res.Stall)
			}
			if simRes.ExtraCache > extra {
				t.Fatalf("trial %d: %s schedule used %d extra locations, budget %d", trial, name, simRes.ExtraCache, extra)
			}
		}
	}
}

// TestAStarExpandsFewerOnE7Size pins the acceptance criterion of the engine
// rewrite: on the E7-sized instances (the larger rows of experiment E7) the
// informed search expands strictly fewer states than the blind reference.
func TestAStarExpandsFewerOnE7Size(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seq := workload.Uniform(22, 10, 900+seed)
		in := workload.Instance(seq, 4, 4, 3, workload.AssignStripe, 0)
		astar, err := Optimal(in, Options{})
		if err != nil {
			t.Fatalf("seed %d astar: %v", seed, err)
		}
		dijk, err := Optimal(in, dijkstraOptions(Options{}))
		if err != nil {
			t.Fatalf("seed %d dijkstra: %v", seed, err)
		}
		if astar.Stall != dijk.Stall {
			t.Fatalf("seed %d: stall mismatch %d vs %d", seed, astar.Stall, dijk.Stall)
		}
		if astar.StatesExpanded >= dijk.StatesExpanded {
			t.Errorf("seed %d: astar expanded %d states, want strictly fewer than dijkstra's %d",
				seed, astar.StatesExpanded, dijk.StatesExpanded)
		}
		if astar.PeakTableSize >= dijk.PeakTableSize {
			t.Errorf("seed %d: astar peak table %d, want strictly smaller than dijkstra's %d",
				seed, astar.PeakTableSize, dijk.PeakTableSize)
		}
	}
}

// TestFetchTimeEncodingLimit checks the satellite fix for the silent flight
// packing overflow: an instance with F beyond the packed encoding's range is
// rejected with a typed error instead of corrupting states.
func TestFetchTimeEncodingLimit(t *testing.T) {
	in := core.SingleDisk(core.Sequence{0, 1, 0, 1}, 2, maxFlightRemaining+1)
	_, err := Optimal(in, Options{})
	var lim *EncodingLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("error = %v, want EncodingLimitError", err)
	}
	if lim.Value != maxFlightRemaining+1 || lim.Limit != maxFlightRemaining || lim.Error() == "" {
		t.Fatalf("unexpected error contents: %+v", lim)
	}
	// The largest representable F must still work.
	ok := core.SingleDisk(core.Sequence{0, 1, 0, 1}, 2, maxFlightRemaining)
	if _, err := Optimal(ok, Options{}); err != nil {
		t.Fatalf("F = %d rejected: %v", maxFlightRemaining, err)
	}
}

// TestParallelMaxStatesExhaustion runs a three-disk search into a tiny state
// budget mid-run and requires a TooLargeError that names the budget.
func TestParallelMaxStatesExhaustion(t *testing.T) {
	seq := workload.Uniform(24, 10, 55)
	in := workload.Instance(seq, 3, 4, 3, workload.AssignStripe, 0)
	_, err := Optimal(in, Options{MaxStates: 16})
	var tle *TooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("err = %v, want *TooLargeError", err)
	}
	if tle.States != 16 {
		t.Fatalf("TooLargeError.States = %d, want 16", tle.States)
	}
}

// TestCountersConsistency checks the counter relationships the Result
// reports: every expansion comes from the table, generated covers duplicates,
// and the caller's sink accumulates them.
func TestCountersConsistency(t *testing.T) {
	var sink Stats
	seq := workload.Uniform(16, 7, 12)
	in := workload.Instance(seq, 3, 3, 2, workload.AssignStripe, 0)
	res, err := Optimal(in, Options{Stats: &sink})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if res.StatesExpanded > res.PeakTableSize {
		t.Errorf("expanded %d states but only %d were materialised", res.StatesExpanded, res.PeakTableSize)
	}
	if res.StatesGenerated < res.DuplicateHits {
		t.Errorf("generated %d < duplicates %d", res.StatesGenerated, res.DuplicateHits)
	}
	snap := sink.Snapshot()
	if snap.Searches != 1 || snap.Expanded != uint64(res.StatesExpanded) ||
		snap.Generated != uint64(res.StatesGenerated) || snap.PeakTable != uint64(res.PeakTableSize) {
		t.Errorf("sink counters %+v do not reflect the search result %+v", snap, res)
	}
	// A second search sums into the sink; the maxima stay maxima.
	if _, err := Optimal(in, Options{Stats: &sink}); err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	twice := sink.Snapshot()
	if twice.Searches != 2 || twice.Expanded != 2*snap.Expanded || twice.Generated != 2*snap.Generated ||
		twice.PeakTable != snap.PeakTable {
		t.Errorf("after a repeated search the sink holds %+v, want sums doubled and maxima kept from %+v", twice, snap)
	}
	// A search without a sink is not counted anywhere.
	if _, err := Optimal(in, Options{}); err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if got := sink.Snapshot(); got != twice {
		t.Errorf("an uncounted search changed the sink: %+v, want %+v", got, twice)
	}
}

// TestBucketQueue unit-tests the monotone bucket queue, including pushes
// below the cursor (reopened nodes) and LIFO order within a bucket.
func TestBucketQueue(t *testing.T) {
	var q bucketQueue
	if _, _, ok := q.pop(); ok {
		t.Fatalf("pop on empty queue succeeded")
	}
	q.push(3, 30)
	q.push(1, 10)
	q.push(3, 31)
	if q.len() != 3 {
		t.Fatalf("len = %d, want 3", q.len())
	}
	node, f, ok := q.pop()
	if !ok || f != 1 || node != 10 {
		t.Fatalf("pop = %d@%d, want 10@1", node, f)
	}
	// Push below the cursor: the queue must serve it before bucket 3.
	q.push(0, 5)
	node, f, ok = q.pop()
	if !ok || f != 0 || node != 5 {
		t.Fatalf("pop after below-cursor push = %d@%d, want 5@0", node, f)
	}
	// Bucket 3 drains in LIFO order.
	node, f, _ = q.pop()
	if f != 3 || node != 31 {
		t.Fatalf("pop = %d@%d, want 31@3", node, f)
	}
	node, f, _ = q.pop()
	if f != 3 || node != 30 {
		t.Fatalf("pop = %d@%d, want 30@3", node, f)
	}
	if _, _, ok := q.pop(); ok {
		t.Fatalf("pop on drained queue succeeded")
	}
}

// TestNodeTable unit-tests the open-addressing table: get/put round trips,
// growth with rehashing, and collision survival.
func TestNodeTable(t *testing.T) {
	table := newNodeTable()
	rng := rand.New(rand.NewSource(7))
	keys := make([]stateKey, 0, 3000)
	for i := 0; i < 3000; i++ {
		var k stateKey
		k.served = int32(rng.Intn(1 << 12))
		k.cache = rng.Uint64()
		for d := 0; d < maxDisks; d++ {
			if rng.Intn(3) == 0 {
				k.flights[d] = flightOf(rng.Intn(60), 1+rng.Intn(200))
			}
		}
		if table.get(&k) != 0 {
			continue // duplicate random key
		}
		table.put(&k, int32(len(keys)+1))
		keys = append(keys, k)
	}
	if table.count != len(keys) {
		t.Fatalf("count = %d, want %d", table.count, len(keys))
	}
	if len(table.slots) <= minTableSlots {
		t.Fatalf("table never grew past %d slots despite %d keys", len(table.slots), len(keys))
	}
	for i, k := range keys {
		if got := table.get(&k); got != int32(i+1) {
			t.Fatalf("key %d: get = %d, want %d", i, got, i+1)
		}
	}
	var absent stateKey
	absent.served = -7
	if table.get(&absent) != 0 {
		t.Fatalf("absent key found")
	}
}

// TestHeuristicAdmissibleAtRoot spot-checks admissibility at the root state:
// h(start) must never exceed the true optimal stall time.
func TestHeuristicAdmissibleAtRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(10)
		blocks := 3 + rng.Intn(5)
		k := 2 + rng.Intn(3)
		f := 1 + rng.Intn(4)
		disks := 1 + rng.Intn(3)
		seq := workload.Uniform(n, blocks, int64(7000+trial))
		in := workload.Instance(seq, k, f, disks, workload.AssignStripe, 0)
		s := newSearcher(in, Options{}, in.Blocks())
		start := s.initialKey()
		h0 := int(s.heuristic(&start))
		res, err := Optimal(in, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if h0 > res.Stall {
			t.Fatalf("trial %d: h(start) = %d exceeds the optimal stall %d (seq=%v k=%d F=%d D=%d)",
				trial, h0, res.Stall, seq, k, f, disks)
		}
	}
}
