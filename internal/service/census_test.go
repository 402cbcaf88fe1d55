package service

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
)

// censusSeed is the serving benchmark's fixed seed (servebench's
// fixedSeed): the lp-cold shapes and every lp-cold trace derive from it.
const censusSeed = 7919

// lpColdCensus builds the lp-optimal instances of the serving benchmark's
// lp-cold blocks first..last, each block in shape order, through the served
// request path.  It copies servebench's lpColdShapes and lpColdList
// generators, which live in a module of their own: one block is every shape
// once (D in {1, 2, 3} by n in 22, 24, ..., 48, block count, k and F drawn
// once), and request i of block b is traced from a Zipf(1.1) stream seeded
// by its ref b·42 + i.  Block 0 is the benchmark's warm-up; its timed
// requests start at block 1.
func lpColdCensus(tb testing.TB, first, last int) []*core.Instance {
	tb.Helper()
	type shape struct{ disks, n, blocks, k, f int }
	rng := rand.New(rand.NewPCG(censusSeed, 3))
	var shapes []shape
	for d := 1; d <= 3; d++ {
		for n := 22; n <= 48; n += 2 {
			shapes = append(shapes, shape{disks: d, n: n, blocks: 8 + rng.IntN(7), k: 4 + rng.IntN(4), f: 3 + rng.IntN(3)})
		}
	}
	var out []*core.Instance
	for block := first; block <= last; block++ {
		for i, sh := range shapes {
			ref := block*len(shapes) + i
			req := &ScheduleRequest{
				Strategy: "lp-optimal",
				Workload: &WorkloadSpec{Kind: "zipf", N: sh.n, Blocks: sh.blocks, S: 1.1,
					Seed: censusSeed*1_000_003 + int64(ref)},
				K: sh.k, F: sh.f, Disks: sh.disks,
			}
			in, err := req.BuildInstance()
			if err != nil {
				tb.Fatalf("census ref %d: %v", ref, err)
			}
			out = append(out, in)
		}
	}
	return out
}

// TestCensusTheorem4 checks Theorem 4 on every lp-optimal answer of the
// census (lp-cold's blocks 1-3, served like a shard): the answer stalls at
// most OPT(k), the exact search's stall without extra locations, and uses
// at most 2(D-1) extra cache locations.  The exact searches are cheap on
// these shapes (about 0.1 s for all 126); the LP solves take the time.
func TestCensusTheorem4(t *testing.T) {
	mb := lpmodel.NewModelBatch()
	for i, in := range lpColdCensus(t, 1, 3) {
		resp, err := ComputeSchedule(context.Background(), in, "lp-optimal", false, mb, lp.Options{}, opt.Options{})
		if err != nil {
			t.Fatalf("census %d: %v", i, err)
		}
		want, err := opt.OptimalStall(in, opt.Options{})
		if err != nil {
			t.Fatalf("census %d: exact search: %v", i, err)
		}
		if resp.Stall > want || resp.ExtraCache > 2*(in.Disks-1) {
			t.Errorf("census %d (D=%d, n=%d, k=%d, F=%d): stall %d (OPT %d, LP bound %v), extra cache %d (budget %d)",
				i, in.Disks, in.N(), in.K, in.F, resp.Stall, want, resp.LP.LowerBound, resp.ExtraCache, 2*(in.Disks-1))
		}
	}
}

// BenchmarkLPColdCensus solves the 126 instances of lp-cold's blocks 1-3 the
// way a pcserve shard does: one ModelBatch, the served engine (steepest
// edge over LU) under the verification cascade, then extraction and
// simulation.  Per solve it reports the program's size (columns, rows and
// nonzeros of m.Problem, so a model change shows the way a pivot change
// does), pivots, phase-one pivots, Bland pivots, refactorizations and LU
// fill; over the census the solve time at p50, p90 and max, the solve time
// per pivot (us/pivot: total solve time over total pivots, so a per-pivot
// change reads apart from the pivot count) and the total served stall.
// The counters and the stall are deterministic, so a change that moves
// pivots or a served stall shows it here before a serving-benchmark run
// does.
func BenchmarkLPColdCensus(b *testing.B) { benchCensus(b, false) }

// BenchmarkLPColdCensusTied is the census solved under
// TieBreakObjective(1e-5), the program whose vertex is unique, with the same
// metrics: what serving would pay to tie-break every request.
func BenchmarkLPColdCensusTied(b *testing.B) { benchCensus(b, true) }

func benchCensus(b *testing.B, tied bool) {
	ins := lpColdCensus(b, 1, 3)
	mb := lpmodel.NewModelBatch()
	var sink lp.Stats
	opts := lp.Options{Stats: &sink}
	times := make([]time.Duration, 0, len(ins))
	var total time.Duration
	stall := 0
	var cols, rows, nnz int
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		stall = 0
		times = times[:0]
		for i, in := range ins {
			m, err := mb.Model(in)
			if err != nil {
				b.Fatalf("instance %d: %v", i, err)
			}
			if tied {
				m.TieBreakObjective(1e-5)
			}
			cols += m.Problem.NumVars()
			rows += m.Problem.NumConstraints()
			nnz += m.Problem.NumNonzeros()
			start := time.Now()
			frac, err := m.SolveBatch(mb.LP(), opts)
			d := time.Since(start)
			times = append(times, d)
			total += d
			if err != nil {
				b.Fatalf("instance %d: %v", i, err)
			}
			resp := responseHeader(in, "lp-optimal")
			sched, err := lpSchedule(resp, m, frac)
			if err != nil {
				b.Fatalf("instance %d: %v", i, err)
			}
			if err := finishSchedule(resp, in, "lp-optimal", sched, false); err != nil {
				b.Fatalf("instance %d: %v", i, err)
			}
			stall += resp.Stall
		}
	}
	b.StopTimer()
	c := sink.Snapshot()
	solves := float64(c.Solves)
	b.ReportMetric(float64(cols)/solves, "cols/solve")
	b.ReportMetric(float64(rows)/solves, "rows/solve")
	b.ReportMetric(float64(nnz)/solves, "nnz/solve")
	b.ReportMetric(float64(c.Iterations)/solves, "pivots/solve")
	b.ReportMetric(float64(c.Phase1Pivots)/solves, "phase1-pivots/solve")
	b.ReportMetric(float64(c.BlandPivots)/solves, "bland-pivots/solve")
	b.ReportMetric(float64(c.Refactorizations)/solves, "refactors/solve")
	b.ReportMetric(float64(c.LUFills)/solves, "lu-fills/solve")
	slices.Sort(times)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(times[len(times)/2]), "solve-ms-p50")
	b.ReportMetric(ms(times[len(times)*9/10]), "solve-ms-p90")
	b.ReportMetric(ms(times[len(times)-1]), "solve-ms-max")
	b.ReportMetric(float64(total)/float64(time.Microsecond)/float64(c.Iterations), "us/pivot")
	b.ReportMetric(float64(stall), "stall-total")
}
