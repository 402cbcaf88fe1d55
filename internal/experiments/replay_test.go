package experiments

import (
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
)

// TestReplayChainsAgree runs every R1 scenario through both replay paths and
// requires cost-identical plans at every step; on the pinned suite engines
// the extracted schedules must also be byte-identical, since that is the
// property the committed R1 rows record.
func TestReplayChainsAgree(t *testing.T) {
	for i, sc := range r1Scenarios() {
		if testing.Short() && sc.baseN > 30 {
			continue
		}
		base, steps := sc.build()
		opts := Config{}.lpOptions()
		warm, err := ReplayIncremental(base, steps, opts)
		if err != nil {
			t.Fatalf("scenario %d incremental: %v", i, err)
		}
		cold, err := ReplayCold(base, steps, opts)
		if err != nil {
			t.Fatalf("scenario %d cold: %v", i, err)
		}
		identical, err := CompareReplay(warm, cold)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if !identical {
			t.Errorf("scenario %d: schedules diverged on the pinned engines", i)
		}
		if warm.Pivots >= cold.Pivots {
			t.Errorf("scenario %d: warm chain spent %d pivots, cold chain only %d",
				i, warm.Pivots, cold.Pivots)
		}
	}
}

// TestReplayMeasure smoke-tests the timed driver on the benchmark workload:
// it must report cost-equivalent chains and a positive speedup.  The >=5x
// figure itself is recorded by the benchmarks below, not asserted here —
// wall-clock ratios are machine-local.
func TestReplayMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("timed replay is slow")
	}
	base, steps := ReplayWorkload()
	b, err := ReplayMeasure(Config{}, base, steps)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Identical {
		t.Errorf("benchmark workload schedules diverged between warm and cold chains")
	}
	if b.Speedup <= 1 {
		t.Errorf("warm re-solves slower than cold rebuilds: speedup %.2f", b.Speedup)
	}
	t.Logf("replay n=%d+%d: warm %.0fns cold %.0fns speedup %.1fx pivots %d/%d",
		b.BaseN, b.Steps, b.WarmNS, b.ColdNS, b.Speedup, b.WarmPivots, b.ColdPivots)
}

// BenchmarkReplayIncrementalStep measures one steady-state step of the
// trace-replay workload's warm chain: extend the program in place, re-solve
// with the dual simplex from the previous basis.  Its ratio to
// BenchmarkReplayColdStep is the speedup BENCH_*.json's timings record.
func BenchmarkReplayIncrementalStep(b *testing.B) {
	base, steps := ReplayWorkload()
	opts := Config{}.lpOptions()
	solver := lp.NewSolver()
	m, err := lpmodel.Build(base.Clone())
	if err != nil {
		b.Fatal(err)
	}
	m.TieBreakObjective(replayEps)
	if _, err := m.SolveWith(solver, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(steps) == 0 {
			// Rebase so the program size stays the workload's, not b.N's.
			b.StopTimer()
			if err := lpmodel.BuildInto(m, base.Clone()); err != nil {
				b.Fatal(err)
			}
			m.TieBreakObjective(replayEps)
			if _, err := m.SolveWith(solver, opts); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := m.Extend(steps[i%len(steps)]); err != nil {
			b.Fatal(err)
		}
		m.TieBreakObjective(replayEps)
		if _, err := m.SolveIncremental(solver, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayColdStep is the cold side of the same workload: each step
// rebuilds the full extended trace into reused buffers and solves from
// scratch.
func BenchmarkReplayColdStep(b *testing.B) {
	base, steps := ReplayWorkload()
	opts := Config{}.lpOptions()
	solver := lp.NewSolver()
	m := &lpmodel.Model{}
	in := base.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(steps) == 0 {
			b.StopTimer()
			in = base.Clone()
			b.StartTimer()
		}
		in.Seq = append(in.Seq, steps[i%len(steps)])
		if err := lpmodel.BuildInto(m, in); err != nil {
			b.Fatal(err)
		}
		m.TieBreakObjective(replayEps)
		if _, err := m.SolveWith(solver, opts); err != nil {
			b.Fatal(err)
		}
	}
}
