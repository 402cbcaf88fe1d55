package sim

import (
	"errors"
	"testing"

	"pfcache/internal/core"
)

// introSingleDiskInstance is the worked example from the introduction of the
// paper: sigma = b1 b2 b3 b4 b4 b5 b1 b4 b4 b2, k = 4, F = 4, with b1..b4
// initially in cache.  Blocks are renamed to 0-based IDs (b1 -> 0, ...).
func introSingleDiskInstance() *core.Instance {
	seq := core.Sequence{0, 1, 2, 3, 3, 4, 0, 3, 3, 1}
	return core.SingleDisk(seq, 4, 4).WithInitialCache(0, 1, 2, 3)
}

// TestIntroExampleEarlyFetch reproduces the first schedule discussed in the
// paper's introduction: fetching b5 at the request to b2 forces the eviction
// of b1 and leads to 3 units of stall (elapsed time 13).
func TestIntroExampleEarlyFetch(t *testing.T) {
	in := introSingleDiskInstance()
	sched := &core.Schedule{Fetches: []core.Fetch{
		core.NewFetch(0, 1, 4, 0), // fetch b5 at the request to b2, evict b1
		core.NewFetch(0, 5, 0, 2), // re-load b1, evict b3
	}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stall != 3 {
		t.Errorf("stall = %d, want 3", res.Stall)
	}
	if res.Elapsed != 13 {
		t.Errorf("elapsed = %d, want 13", res.Elapsed)
	}
	if res.ExtraCache != 0 {
		t.Errorf("extra cache = %d, want 0", res.ExtraCache)
	}
}

// TestIntroExampleBetterFetch reproduces the second schedule of the
// introduction: starting the fetch for b5 at the request to b3 evicts b2 and
// yields 1 unit of stall (elapsed time 11).
func TestIntroExampleBetterFetch(t *testing.T) {
	in := introSingleDiskInstance()
	sched := &core.Schedule{Fetches: []core.Fetch{
		core.NewFetch(0, 2, 4, 1), // fetch b5 at the request to b3, evict b2
		core.NewFetch(0, 5, 1, 2), // fetch b2 back, evict b3
	}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stall != 1 {
		t.Errorf("stall = %d, want 1", res.Stall)
	}
	if res.Elapsed != 11 {
		t.Errorf("elapsed = %d, want 11", res.Elapsed)
	}
}

// introParallelInstance is the two-disk example from the introduction:
// b1..b4 on disk 0, c1..c3 on disk 1, k = 4, F = 4,
// sigma = b1 b2 c1 c2 b3 c3 b4 with b1, b2, c1, c2 initially in cache.
// Block IDs: b1..b4 -> 0..3, c1..c3 -> 4..6.
func introParallelInstance() *core.Instance {
	seq := core.Sequence{0, 1, 4, 5, 2, 6, 3}
	diskOf := map[core.BlockID]int{0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
	in := core.MultiDisk(seq, 4, 4, 2, diskOf)
	return in.WithInitialCache(0, 1, 4, 5)
}

// TestIntroParallelExample reproduces the schedule described in the
// introduction for the two-disk example, with total stall time 3.
func TestIntroParallelExample(t *testing.T) {
	in := introParallelInstance()
	sched := &core.Schedule{Fetches: []core.Fetch{
		core.NewFetch(0, 1, 2, 0), // disk 1 fetches b3 at the request to b2, evicts b1
		core.NewFetch(1, 2, 6, 1), // disk 2 fetches c3 one request later, evicts b2
		core.NewFetch(0, 4, 3, 4), // disk 1 fetches b4 at the request to b3, evicts c1
	}}
	res, err := Run(in, sched, Options{Trace: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stall != 3 {
		t.Errorf("stall = %d, want 3", res.Stall)
	}
	if res.Elapsed != 10 {
		t.Errorf("elapsed = %d, want 10", res.Elapsed)
	}
	// One unit of stall before the request to b3 (position 4) and two units
	// before the request to b4 (position 6).
	if res.PerRequestStall[4] != 1 || res.PerRequestStall[6] != 2 {
		t.Errorf("per-request stall = %v, want 1 at position 4 and 2 at position 6", res.PerRequestStall)
	}
	if len(res.Events) == 0 {
		t.Errorf("trace requested but empty")
	}
	if res.FetchCount != 3 {
		t.Errorf("fetch count = %d, want 3", res.FetchCount)
	}
}

// TestNoFetchNeeded checks that a sequence fully covered by the initial cache
// incurs no stall.
func TestNoFetchNeeded(t *testing.T) {
	seq, _ := core.ParseSequence("a b a b a")
	in := core.SingleDisk(seq, 2, 3).WithInitialCache(0, 1)
	res, err := Run(in, &core.Schedule{}, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stall != 0 || res.Elapsed != 5 {
		t.Errorf("stall=%d elapsed=%d, want 0 and 5", res.Stall, res.Elapsed)
	}
}

// TestDemandFetchIntoFreeSlot checks that fetching into an initially free
// cache location needs no eviction and that a fetch anchored at the request
// itself pays the full fetch time as stall.
func TestDemandFetchIntoFreeSlot(t *testing.T) {
	seq, _ := core.ParseSequence("a")
	in := core.SingleDisk(seq, 2, 5)
	sched := &core.Schedule{Fetches: []core.Fetch{core.NewFetch(0, 0, 0, core.NoBlock)}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stall != 5 {
		t.Errorf("stall = %d, want 5", res.Stall)
	}
	if res.Elapsed != 6 {
		t.Errorf("elapsed = %d, want 6", res.Elapsed)
	}
	if res.ExtraCache != 0 {
		t.Errorf("extra cache = %d, want 0", res.ExtraCache)
	}
}

// TestPrefetchOverlapsService checks that a fetch started F requests before
// its reference incurs no stall.
func TestPrefetchOverlapsService(t *testing.T) {
	seq, _ := core.ParseSequence("a b c d e")
	// e (block 4) is missing; a..d are cached and the fifth cache location is
	// free; F = 4 and the fetch starts at the beginning, so it completes
	// exactly when e is requested.
	in := core.SingleDisk(seq, 5, 4).WithInitialCache(0, 1, 2, 3)
	sched := &core.Schedule{Fetches: []core.Fetch{core.NewFetch(0, 0, 4, core.NoBlock)}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stall != 0 {
		t.Errorf("stall = %d, want 0", res.Stall)
	}
}

// TestMissingBlockError checks that a schedule that never fetches a requested
// block is rejected.
func TestMissingBlockError(t *testing.T) {
	seq, _ := core.ParseSequence("a b")
	in := core.SingleDisk(seq, 2, 2).WithInitialCache(0)
	_, err := Run(in, &core.Schedule{}, Options{})
	var miss *MissingBlockError
	if !errors.As(err, &miss) {
		t.Fatalf("error = %v, want MissingBlockError", err)
	}
	if miss.Request != 1 || miss.Block != 1 {
		t.Errorf("error detail = %+v", miss)
	}
}

// TestDeadlockedAnchorError checks that a fetch anchored after a request that
// can never be served (because it depends on that very fetch) is detected.
func TestDeadlockedAnchorError(t *testing.T) {
	seq, _ := core.ParseSequence("a b")
	in := core.SingleDisk(seq, 2, 2).WithInitialCache(0)
	// The fetch for b may only start after both requests are served, but the
	// second request needs b: deadlock.
	sched := &core.Schedule{Fetches: []core.Fetch{core.NewFetch(0, 2, 1, core.NoBlock)}}
	_, err := Run(in, sched, Options{})
	var miss *MissingBlockError
	if !errors.As(err, &miss) {
		t.Fatalf("error = %v, want MissingBlockError", err)
	}
}

// TestEvictAbsentError checks that evicting a block that is not resident is
// rejected.
func TestEvictAbsentError(t *testing.T) {
	seq, _ := core.ParseSequence("a b")
	in := core.SingleDisk(seq, 2, 2).WithInitialCache(0)
	sched := &core.Schedule{Fetches: []core.Fetch{core.NewFetch(0, 0, 1, 5)}}
	_, err := Run(in, sched, Options{})
	var ev *EvictAbsentError
	if !errors.As(err, &ev) {
		t.Fatalf("error = %v, want EvictAbsentError", err)
	}
}

// TestRedundantFetchError checks that fetching an already-resident block is
// rejected by default and dropped under DropRedundantFetches.
func TestRedundantFetchError(t *testing.T) {
	seq, _ := core.ParseSequence("a b")
	in := core.SingleDisk(seq, 2, 2).WithInitialCache(0, 1)
	sched := &core.Schedule{Fetches: []core.Fetch{core.NewFetch(0, 0, 0, core.NoBlock)}}
	_, err := Run(in, sched, Options{})
	var red *RedundantFetchError
	if !errors.As(err, &red) {
		t.Fatalf("error = %v, want RedundantFetchError", err)
	}
	res, err := Run(in, sched, Options{DropRedundantFetches: true})
	if err != nil {
		t.Fatalf("Run with drop: %v", err)
	}
	if res.DroppedFetches != 1 || res.FetchCount != 0 {
		t.Errorf("dropped=%d fetched=%d, want 1 and 0", res.DroppedFetches, res.FetchCount)
	}
}

// TestSanitize checks that Sanitize removes redundant fetches, keeps the
// schedule cost unchanged, and reports the clean copy's cost in its Result.
func TestSanitize(t *testing.T) {
	in := introSingleDiskInstance()
	sched := &core.Schedule{Fetches: []core.Fetch{
		core.NewFetch(0, 0, 3, core.NoBlock), // b4 is already cached: redundant
		core.NewFetch(0, 2, 4, 1),
		core.NewFetch(0, 5, 1, 2),
	}}
	clean, dropRun, err := Sanitize(in, sched)
	if err != nil {
		t.Fatalf("Sanitize: %v", err)
	}
	if dropRun.DroppedFetches != 1 || clean.Len() != 2 {
		t.Fatalf("dropped=%d len=%d, want 1 and 2", dropRun.DroppedFetches, clean.Len())
	}
	res, err := Run(in, clean, Options{})
	if err != nil {
		t.Fatalf("Run(clean): %v", err)
	}
	if res.Stall != 1 {
		t.Errorf("stall = %d, want 1", res.Stall)
	}
	if dropRun.Stall != res.Stall || dropRun.Elapsed != res.Elapsed || dropRun.FetchCount != res.FetchCount ||
		dropRun.MaxResident != res.MaxResident || dropRun.ExtraCache != res.ExtraCache {
		t.Errorf("Sanitize's run %+v, Run of the clean copy %+v", dropRun, res)
	}
}

// TestExtraCacheAccounting checks that fetches without evictions beyond the
// cache size are counted as extra locations.
func TestExtraCacheAccounting(t *testing.T) {
	seq, _ := core.ParseSequence("a b c")
	in := core.SingleDisk(seq, 1, 2)
	sched := &core.Schedule{Fetches: []core.Fetch{
		core.NewFetch(0, 0, 0, core.NoBlock),
		core.NewFetch(0, 0, 1, core.NoBlock),
		core.NewFetch(0, 0, 2, core.NoBlock),
	}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExtraCache != 2 {
		t.Errorf("extra cache = %d, want 2", res.ExtraCache)
	}
}

// TestEvictAtEnd checks the Lemma 3 style "fetch into an extra location and
// drop it at the end of the interval" operation.
func TestEvictAtEnd(t *testing.T) {
	seq, _ := core.ParseSequence("a b a b")
	in := core.SingleDisk(seq, 2, 2).WithInitialCache(0, 1)
	f := core.NewFetch(0, 0, 2, core.NoBlock) // block c is never requested
	f.EvictAtEnd = 2
	sched := &core.Schedule{Fetches: []core.Fetch{f}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stall != 0 {
		t.Errorf("stall = %d, want 0", res.Stall)
	}
	if res.ExtraCache != 1 {
		t.Errorf("extra cache = %d, want 1 (transient extra location)", res.ExtraCache)
	}
	if res.MaxResident != 3 {
		t.Errorf("max resident = %d, want 3", res.MaxResident)
	}
}

// TestEvictAtEndAbsent checks that an end-of-fetch eviction of an absent
// block is rejected.
func TestEvictAtEndAbsent(t *testing.T) {
	seq, _ := core.ParseSequence("a a a")
	in := core.SingleDisk(seq, 2, 2).WithInitialCache(0)
	f := core.NewFetch(0, 0, 1, core.NoBlock)
	f.EvictAtEnd = 7
	sched := &core.Schedule{Fetches: []core.Fetch{f}}
	_, err := Run(in, sched, Options{})
	var ev *EvictAbsentError
	if !errors.As(err, &ev) {
		t.Fatalf("error = %v, want EvictAbsentError", err)
	}
}

// TestFetchStartsDuringStall checks that an eligible fetch on a second disk
// is initiated while the processor stalls for the first disk.
func TestFetchStartsDuringStall(t *testing.T) {
	// Request a (disk 0, missing) then b (disk 1, missing).  Both fetches are
	// anchored at 0.  The stall for a lets b's fetch run in parallel, so the
	// second request stalls less.
	seq := core.Sequence{0, 1}
	diskOf := map[core.BlockID]int{0: 0, 1: 1}
	in := core.MultiDisk(seq, 2, 4, 2, diskOf)
	sched := &core.Schedule{Fetches: []core.Fetch{
		core.NewFetch(0, 0, 0, core.NoBlock),
		core.NewFetch(1, 0, 1, core.NoBlock),
	}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Both fetches start at time 0; a arrives at 4 (stall 4), is served by 5;
	// b arrived at 4 already, so no further stall.
	if res.Stall != 4 {
		t.Errorf("stall = %d, want 4", res.Stall)
	}
	if res.Elapsed != 6 {
		t.Errorf("elapsed = %d, want 6", res.Elapsed)
	}
}

// TestSerialFetchesOnOneDisk checks that two fetches on the same disk cannot
// overlap even if both are eligible.
func TestSerialFetchesOnOneDisk(t *testing.T) {
	seq := core.Sequence{0, 1}
	in := core.SingleDisk(seq, 2, 4)
	sched := &core.Schedule{Fetches: []core.Fetch{
		core.NewFetch(0, 0, 0, core.NoBlock),
		core.NewFetch(0, 0, 1, core.NoBlock),
	}}
	res, err := Run(in, sched, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Fetch a: 0-4 (stall 4, serve at 5).  Fetch b starts at 4, done at 8:
	// request b starts at 5, stalls 3, served by 9.  Total stall 7.
	if res.Stall != 7 {
		t.Errorf("stall = %d, want 7", res.Stall)
	}
}

// TestInvalidInputsRejected checks that Run and Sanitize validate instance
// and schedule: a fetch naming a disk the instance lacks is an error, not an
// index out of range in the executor.
func TestInvalidInputsRejected(t *testing.T) {
	seq, _ := core.ParseSequence("a")
	bad := core.SingleDisk(seq, 0, 1)
	if _, err := Run(bad, &core.Schedule{}, Options{}); err == nil {
		t.Errorf("invalid instance accepted")
	}
	if _, _, err := Sanitize(bad, &core.Schedule{}); err == nil {
		t.Errorf("Sanitize accepted an invalid instance")
	}
	good := core.SingleDisk(seq, 1, 1)
	badSched := &core.Schedule{Fetches: []core.Fetch{core.NewFetch(3, 0, 0, core.NoBlock)}}
	if _, err := Run(good, badSched, Options{}); err == nil {
		t.Errorf("invalid schedule accepted")
	}
	if _, _, err := Sanitize(good, badSched); err == nil {
		t.Errorf("Sanitize accepted a fetch on disk 3 of 1")
	}
}

// TestEventStrings exercises the trace event formatting.
func TestEventStrings(t *testing.T) {
	events := []Event{
		{Kind: EventServe, Request: 0, Block: 1},
		{Kind: EventStall, Request: 1, Duration: 3},
		{Kind: EventFetchStart, Block: 2, Evict: 1, Disk: 0},
		{Kind: EventFetchStart, Block: 2, Evict: core.NoBlock, Disk: 0},
		{Kind: EventFetchEnd, Block: 2, Disk: 1},
		{Kind: EventKind(99)},
	}
	for _, e := range events {
		if e.String() == "" {
			t.Errorf("empty String for %+v", e)
		}
	}
	kinds := []EventKind{EventServe, EventStall, EventFetchStart, EventFetchEnd, EventKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty String for kind %d", int(k))
		}
	}
}

// TestErrorStrings exercises the error formatting paths.
func TestErrorStrings(t *testing.T) {
	errs := []error{
		&MissingBlockError{Request: 1, Block: 2},
		&EvictAbsentError{FetchIndex: 0, Block: 3},
		&RedundantFetchError{FetchIndex: 2, Block: 4},
	}
	for _, err := range errs {
		if err.Error() == "" {
			t.Errorf("empty error string for %T", err)
		}
	}
}
