package main

import (
	"math"
	"sort"
	"time"

	"pfcache/internal/service"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported as supported by the sample.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of ascending vals and how
// many samples lie beyond it.  An empty input yields 0 with none beyond.
func quantile(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// latencies returns the latencies of kind in ms, ascending, with each failed
// request counted as +Inf: it missed every latency limit.
func latencies(samples []sample, kind string) []float64 {
	var out []float64
	for _, s := range samples {
		if s.op.kind != kind {
			continue
		}
		if s.failed {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.lat))
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durQuantile is quantile over durations, in the unit conv gives.
func durQuantile(ds []time.Duration, p float64, conv func(time.Duration) float64) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = conv(d)
	}
	sort.Float64s(vals)
	v, _ := quantile(vals, p)
	return v
}

// kindStats is the end-to-end view of one request kind in one phase.
type kindStats struct {
	kind          string
	n, failed     int
	rps           float64
	p50, p90, p99 float64
	p90ok, p99ok  bool
	beyond50      int
}

func statsFor(p *phase, kind string) kindStats {
	ks := kindStats{kind: kind}
	lat := latencies(p.samples, kind)
	ks.n = len(lat)
	for _, v := range lat {
		if math.IsInf(v, 1) {
			ks.failed++
		}
	}
	ks.rps = float64(ks.n-ks.failed) / p.elapsed.Seconds()
	ks.p50, ks.beyond50 = quantile(lat, 0.50)
	var b int
	ks.p90, b = quantile(lat, 0.90)
	ks.p90ok = b >= minBeyond
	ks.p99, b = quantile(lat, 0.99)
	ks.p99ok = b >= minBeyond
	return ks
}

// kindsIn lists the request kinds a phase sent, in a fixed order.
func kindsIn(p *phase) []string {
	seen := map[string]bool{}
	for _, s := range p.samples {
		seen[s.op.kind] = true
	}
	var out []string
	for _, k := range []string{kindSchedule, kindCreate, kindExtend, kindClose, kindSweep} {
		if seen[k] {
			out = append(out, k)
		}
	}
	return out
}

// failures counts a phase's failed ops.
func failures(p *phase) int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// backendDeltas sums the backends' counter growth over a phase.  lp and opt
// counters are process-wide, so every backend reports the same block; they
// are taken from the first backend alone.  peak_table and workers are
// maxima, reported as their after-values.
type backendDeltas struct {
	hits, misses, coalesced, evictions, computed, sweeps uint64
	shed, resets, canceled, timeouts, panics             uint64
	creates, extends, closes, rebuilds                   uint64
	lp                                                   service.LPCountersWire
	opt                                                  service.OptCountersWire
}

func deltas(before, after []service.StatsResponse) backendDeltas {
	var d backendDeltas
	for i := range after {
		a, b := after[i], before[i]
		d.hits += a.CacheHits - b.CacheHits
		d.misses += a.CacheMisses - b.CacheMisses
		d.coalesced += a.Coalesced - b.Coalesced
		d.evictions += a.Evictions - b.Evictions
		d.computed += a.Computed - b.Computed
		d.sweeps += a.Sweeps - b.Sweeps
		d.shed += a.Shed - b.Shed
		d.resets += a.SolverResets - b.SolverResets
		d.canceled += a.Canceled - b.Canceled
		d.timeouts += a.Timeouts - b.Timeouts
		d.panics += a.Panics - b.Panics
		d.creates += a.SessionCreates - b.SessionCreates
		d.extends += a.SessionExtends - b.SessionExtends
		d.closes += a.SessionCloses - b.SessionCloses
		d.rebuilds += a.SessionRebuilds - b.SessionRebuilds
	}
	if len(after) == 0 {
		return d
	}
	la, lb := after[0].LP, before[0].LP
	d.lp = service.LPCountersWire{
		Solves: la.Solves - lb.Solves, Iterations: la.Iterations - lb.Iterations,
		PricingPasses: la.PricingPasses - lb.PricingPasses, Refactorizations: la.Refactorizations - lb.Refactorizations,
		EtaColumns: la.EtaColumns - lb.EtaColumns, LUFills: la.LUFills - lb.LUFills,
		WarmStarts: la.WarmStarts - lb.WarmStarts, VerifiedSolves: la.VerifiedSolves - lb.VerifiedSolves,
		VerifyFailures: la.VerifyFailures - lb.VerifyFailures, CascadeFallbacks: la.CascadeFallbacks - lb.CascadeFallbacks,
		SymbolicReuses: la.SymbolicReuses - lb.SymbolicReuses, NumericRefactors: la.NumericRefactors - lb.NumericRefactors,
		DualPivots: la.DualPivots - lb.DualPivots, FTUpdates: la.FTUpdates - lb.FTUpdates,
	}
	oa, ob := after[0].Opt, before[0].Opt
	d.opt = service.OptCountersWire{
		Searches: oa.Searches - ob.Searches, Expanded: oa.Expanded - ob.Expanded,
		Generated: oa.Generated - ob.Generated, PrunedByBound: oa.PrunedByBound - ob.PrunedByBound,
		DuplicateHits: oa.DuplicateHits - ob.DuplicateHits, PrunedByDominance: oa.PrunedByDominance - ob.PrunedByDominance,
		LandmarkHits: oa.LandmarkHits - ob.LandmarkHits,
		PeakTable:    oa.PeakTable, Workers: oa.Workers,
		WorkerExpanded: oa.WorkerExpanded - ob.WorkerExpanded,
	}
	return d
}

// frontDeltas are the front's counter growth over a phase.
type frontDeltas struct {
	requests, retries, creates, replays uint64
	attempts, failures                  []uint64 // per backend
}

func frontDelta(p *phase) (frontDeltas, bool) {
	if p.frontBefore == nil || p.frontAfter == nil {
		return frontDeltas{}, false
	}
	a, b := p.frontAfter, p.frontBefore
	d := frontDeltas{requests: a.Requests - b.Requests, retries: a.Retries - b.Retries,
		creates: a.SessionCreates - b.SessionCreates, replays: a.SessionReplays - b.SessionReplays}
	for i := range a.Backends {
		d.attempts = append(d.attempts, a.Backends[i].Requests-b.Backends[i].Requests)
		d.failures = append(d.failures, a.Backends[i].Failures-b.Backends[i].Failures)
	}
	return d, true
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxOverMean is max ÷ mean of counts (0 when all are 0).
func maxOverMean(xs []uint64) float64 {
	var sum, hi float64
	for _, x := range xs {
		sum += float64(x)
		hi = max(hi, float64(x))
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(xs)))
}

// median of durations.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// meanInt is the mean of ints (0 for none).
func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
