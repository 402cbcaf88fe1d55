package main

import (
	"math"
	"testing"
	"time"

	"pfcache/internal/front"
	"pfcache/internal/service"
)

func TestQuantileNearestRankAndSupport(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.50, 50, 50},
		{0.90, 90, 10},
		{0.99, 99, 1},
	} {
		v, beyond := quantile(vals, tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("p%.0f = %v with %d beyond, want %v with %d", 100*tc.p, v, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty quantile = %v, %d", v, beyond)
	}
}

// phaseOf builds a phase from (kind, latency ms, failed) triples.
func phaseOf(elapsed time.Duration, rows ...struct {
	kind   string
	ms     float64
	failed bool
}) *phase {
	p := &phase{elapsed: elapsed}
	for _, r := range rows {
		p.samples = append(p.samples, sample{op: &op{kind: r.kind},
			lat: time.Duration(r.ms * float64(time.Millisecond)), failed: r.failed})
	}
	return p
}

type row = struct {
	kind   string
	ms     float64
	failed bool
}

func TestFailuresCountAsInfiniteLatency(t *testing.T) {
	var rows []row
	for i := 0; i < 100; i++ {
		rows = append(rows, row{kindSchedule, 1, i >= 85}) // 15 failures
	}
	rows = append(rows, row{kindSweep, 500, false})
	p := phaseOf(10*time.Second, rows...)
	ks := statsFor(p, kindSchedule)
	if ks.n != 100 || ks.failed != 15 {
		t.Fatalf("n=%d failed=%d, want 100 and 15", ks.n, ks.failed)
	}
	if !math.IsInf(ks.p90, 1) {
		t.Errorf("p90 with 15%% failures = %v, want +Inf", ks.p90)
	}
	if ks.p50 != 1 {
		t.Errorf("p50 = %v, want 1", ks.p50)
	}
	if ks.rps != 8.5 {
		t.Errorf("rps = %v, want successes per second 8.5", ks.rps)
	}
	if !ks.p90ok || ks.p99ok {
		t.Errorf("support: p90ok=%v p99ok=%v, want true and false for 100 samples", ks.p90ok, ks.p99ok)
	}
	if got := failures(p); got != 15 {
		t.Errorf("failures = %d, want 15 (the sweep succeeded)", got)
	}
	if got := latencies(p.samples, kindSweep); len(got) != 1 || got[0] != 500 {
		t.Errorf("sweep latencies %v", got)
	}
}

func TestRatioBases(t *testing.T) {
	before := []service.StatsResponse{{}, {}}
	after := []service.StatsResponse{
		{CacheHits: 30, CacheMisses: 10, SessionExtends: 8, SessionRebuilds: 2,
			LP:  service.LPCountersWire{Solves: 4, Iterations: 400, WarmStarts: 1, DualPivots: 40},
			Opt: service.OptCountersWire{PeakTable: 7, Workers: 1}},
		{CacheHits: 50, CacheMisses: 10, SessionExtends: 2,
			// lp and opt are process-wide: only the first backend's block counts.
			LP: service.LPCountersWire{Solves: 4, Iterations: 400, WarmStarts: 1, DualPivots: 40}},
	}
	before[0].Opt.PeakTable = 5
	fb := &front.StatsResponse{Backends: []front.BackendStatus{{Requests: 1}, {Requests: 1}, {Requests: 1}}}
	fa := &front.StatsResponse{Backends: []front.BackendStatus{{Requests: 61}, {Requests: 31}, {Requests: 11}}}
	pb := &phase{backBefore: before, backAfter: after, frontBefore: fb, frontAfter: fa, elapsed: time.Second}
	for i := 0; i < 50; i++ {
		pb.samples = append(pb.samples, sample{op: &op{kind: kindSchedule}})
	}
	lt := &layerTimes{sweep: map[string][]time.Duration{}, compute: map[uint64]time.Duration{},
		optSearch: []time.Duration{time.Millisecond, time.Millisecond}, optExpanded: 30, optGenerated: 60,
		optDominance: 6, optLandmark: 3}
	m := layerMetrics(pb, pb, nil, lt)
	for name, want := range map[string]float64{
		"service.cache_hit_ratio":      0.8,  // hits / (hits + misses) over both backends
		"service.session_rebuilds":     0.2,  // rebuilds / extends
		"lp.pivots_per_solve":          100,  // first backend's lp block only
		"lp.warm_start_ratio":          0.25, // warm starts / solves
		"lp.dual_pivots_per_extend":    4,    // dual pivots / extends
		"front.attempts_per_req":       2,    // attempts / client requests
		"front.backend_share_max_mean": 60 / (100.0 / 3),
		"opt.expanded_per_search":      15,  // expanded / searches
		"opt.dominance_prune_ratio":    0.1, // pruned by dominance / generated
		"opt.landmark_hit_ratio":       0.1, // landmark hits / expanded
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if d := deltas(before, after); d.opt.PeakTable != 7 || d.opt.Workers != 1 {
		t.Errorf("peak_table/workers = %d/%d, want the after-values 7/1 (maxima, not deltas)", d.opt.PeakTable, d.opt.Workers)
	}
	empty := layerMetrics(&phase{}, &phase{}, nil, &layerTimes{sweep: map[string][]time.Duration{}})
	for name, v := range empty {
		if v != 0 {
			t.Errorf("%s = %v on an empty run, want 0 for an empty base", name, v)
		}
	}
}
