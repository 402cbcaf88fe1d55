package lpmodel

import (
	"math/rand/v2"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/sim"
	"pfcache/internal/workload"
)

// lpColdBlock returns the instances of block b of the serving benchmark's
// lp-cold workload, in shape order.  It copies servebench's lpColdShapes and
// lpColdList generators (a module of their own): D in {1, 2, 3} by n in 22,
// 24, ..., 48, with block count, k and F drawn once from the fixed seed 7919,
// each traced from a Zipf(1.1) stream seeded by its ref b·42 + i.
func lpColdBlock(b int) []*core.Instance {
	const seed = 7919
	rng := rand.New(rand.NewPCG(seed, 3))
	var out []*core.Instance
	shape := 0
	for d := 1; d <= 3; d++ {
		for n := 22; n <= 48; n += 2 {
			blocks, k, f := 8+rng.IntN(7), 4+rng.IntN(4), 3+rng.IntN(3)
			ref := b*42 + shape
			shape++
			seq := workload.Zipf(n, blocks, 1.1, seed*1_000_003+int64(ref))
			in := &core.Instance{Seq: seq, K: k, F: f, Disks: d}
			if d > 1 {
				in.DiskOf = workload.AssignDisks(seq, d, workload.AssignStripe, 0)
			}
			out = append(out, in)
		}
	}
	return out
}

// replays runs sched on in and requires exactly the stall and extra cache it
// was costed at, then pins every fetch (MinTime) to the time it started and
// requires the pinned schedule to replay to the same figures.  It reports
// whether the pinned copy carried a pin.
func replays(t *testing.T, what string, in *core.Instance, sched *core.Schedule, stall, extra int) bool {
	t.Helper()
	res, err := sim.Run(in, sched, sim.Options{Trace: true})
	if err != nil {
		t.Fatalf("%s: replay: %v", what, err)
	}
	if res.Stall != stall || res.ExtraCache != extra {
		t.Fatalf("%s: replays to stall %d, extra cache %d; costed at %d, %d", what, res.Stall, res.ExtraCache, stall, extra)
	}
	// A disk starts its fetches in schedule order, so the k-th fetch start
	// on disk d is the k-th fetch of the schedule on d.
	starts := make([][]sim.Event, in.Disks)
	for _, ev := range res.Events {
		if ev.Kind == sim.EventFetchStart {
			starts[ev.Disk] = append(starts[ev.Disk], ev)
		}
	}
	pinned := sched.Clone()
	next := make([]int, in.Disks)
	anyPin := false
	for i := range pinned.Fetches {
		f := &pinned.Fetches[i]
		if next[f.Disk] >= len(starts[f.Disk]) {
			t.Fatalf("%s: fetch %d on disk %d never started", what, i, f.Disk)
		}
		ev := starts[f.Disk][next[f.Disk]]
		next[f.Disk]++
		if ev.Block != f.Block {
			t.Fatalf("%s: fetch %d on disk %d is %v, the disk started %v", what, i, f.Disk, f.Block, ev.Block)
		}
		f.MinTime = ev.Time
		anyPin = anyPin || ev.Time > 0
	}
	pres, err := sim.Run(in, pinned, sim.Options{})
	if err != nil {
		t.Fatalf("%s: pinned replay: %v", what, err)
	}
	if pres.Stall != stall || pres.ExtraCache != extra {
		t.Fatalf("%s: pinned replay gives stall %d, extra cache %d; costed at %d, %d",
			what, pres.Stall, pres.ExtraCache, stall, extra)
	}
	return anyPin
}

// TestExtractedSchedulesReplay is the replay property of the Theorem 4
// pipeline over lp-cold's first block (D = 1, 2 and 3) and E7's n=22
// instances (seeds 900-903, D = 2 and 3, and seeds 1005 and 1499, D = 3),
// solved on the served engine: the schedule Extract returns, and every
// feasible candidate of every extraction tier (start and end offsets, at the
// k+(D-1) and k+2(D-1) planning budgets) under both roundings, replays
// through sim.Run to exactly the stall and extra cache it was costed at,
// unpinned and with every fetch pinned to its start, and each candidate's
// cost, read off sim.Sanitize's run with its redundant fetches dropped, is
// the cleaned schedule's own: the same stall, elapsed time, fetch count and
// residency as a sim.Run of it.  The end offsets add at
// most one candidate, the fractional part of the timeline's length, since
// every other interval ends where the next one starts.  No lp-cold instance
// has one, nor does any vertex of seeds 900-903.  Seed 1499's vertex at
// D = 3 gives a feasible end-offset candidate in all four end tiers.  Seed
// 1005's did too under the block-ordered columns of an earlier program; it
// stays as one more D = 3 instance.
func TestExtractedSchedulesReplay(t *testing.T) {
	instances := lpColdBlock(1)
	for seed := int64(900); seed <= 903; seed++ {
		for _, d := range []int{2, 3} {
			instances = append(instances, workload.Instance(workload.Uniform(22, 10, seed), 4, 4, d, workload.AssignStripe, 0))
		}
	}
	for _, seed := range []int64{1005, 1499} {
		instances = append(instances, workload.Instance(workload.Uniform(22, 10, seed), 4, 4, 3, workload.AssignStripe, 0))
	}
	disks := map[int]int{}
	tiers := make([]int, 8) // the four tiers under the first rounding, then the second
	pinned := 0
	for i, in := range instances {
		m, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		frac, err := m.SolveWith(nil, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Extract(m, frac)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if replays(t, "extracted", in, res.Schedule, res.Stall, res.ExtraCache) {
			pinned++
		}
		disks[in.Disks]++
		idxs, dist, total := support(m, frac)
		if total < 1e-9 {
			continue
		}
		starts, ends := candidateOffsets(idxs, dist, total)
		rnd := newRounding(m)
		narrow, wide := in.K+in.Disks-1, in.K+2*(in.Disks-1)
		for ri, skipInside := range []bool{false, true} {
			for ti, tier := range []struct {
				offsets []float64
				budget  int
			}{{starts, narrow}, {ends, narrow}, {starts, wide}, {ends, wide}} {
				for _, off := range tier.offsets {
					sched, _ := rnd.extractSchedule(sample(m, frac, idxs, dist, total, off), tier.budget, skipInside)
					r, clean, err := evaluate(in, sched)
					if err != nil {
						continue // Extract rejects infeasible candidates too
					}
					tiers[4*ri+ti]++
					// The cost evaluate reports is the drop run's (sim.Sanitize):
					// it must be the clean schedule's own.
					run, err := sim.Run(in, clean, sim.Options{})
					if err != nil || run.Stall != r.Stall || run.Elapsed != r.Elapsed || run.FetchCount != r.FetchCount ||
						run.MaxResident != r.MaxResident || run.ExtraCache != r.ExtraCache {
						t.Fatalf("instance %d: Sanitize's run %+v, Run of the clean schedule %+v (%v)", i, r, run, err)
					}
					if replays(t, "candidate", in, clean, r.Stall, r.ExtraCache) {
						pinned++
					}
				}
			}
		}
	}
	for _, d := range []int{1, 2, 3} {
		if disks[d] == 0 {
			t.Fatalf("no D=%d instance", d)
		}
	}
	for ti, n := range tiers {
		if n == 0 {
			t.Fatalf("tier %d produced no feasible candidate: %v", ti, tiers)
		}
	}
	if pinned == 0 {
		t.Fatal("no pinned replay carried a pin")
	}
	t.Logf("instances per D %v; feasible candidates per tier (starts/narrow, ends/narrow, starts/wide, ends/wide, under each rounding) %v; %d pinned replays",
		disks, tiers, pinned)
}
