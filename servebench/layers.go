package main

import (
	"time"
)

// metricDef names one reported metric.  BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are the -trace 0 metrics.  rps and the latency
// percentiles describe the workload's primary request kind: schedule
// requests on lp-cold, front-mix and sweep-contention, session extends on
// session-extend.
var endToEndMetrics = []metricDef{
	{"rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerDefs are the per-layer metrics BENCHMARK.json lists, other than the
// per-experiment sweep times: the layers lp-cold and sweep-contention
// exercise.
var layerDefs = []metricDef{
	{"service.wait_ms_p50", "ms", "lower"},
	{"service.wait_ms_p99", "ms", "lower"},
	{"service.shed", "count", "lower"},
	{"service.solver_resets", "count", "lower"},
	{"service.encode_us", "us", "lower"},
	{"workload.build_instance_us", "us", "lower"},
	{"core.canonical_us", "us", "lower"},
	{"lpmodel.build_ms", "ms", "lower"},
	{"lpmodel.extract_ms", "ms", "lower"},
	{"lpmodel.extract_candidates", "count", "lower"},
	{"lp.solve_ms_p50", "ms", "lower"},
	{"lp.solve_ms_p99", "ms", "lower"},
	{"lp.pivots_per_solve", "1/solve", "lower"},
	{"lp.refactorizations_per_solve", "1/solve", "lower"},
	{"lp.symbolic_reuse_ratio", "1/solve", "higher"},
	{"lp.warm_start_ratio", "1/solve", "higher"},
	{"lp.verify_failures", "count", "lower"},
	{"lp.cascade_fallbacks", "count", "lower"},
	{"sim.run_us", "us", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},
	{"runtime.gc_cycles_per_kop", "1/kop", "lower"},
	{"tracing.overhead_p50_ms", "ms", "lower"},
	{"tracing.overhead_cpu_ms_per_op", "ms", "lower"},
}

// unlistedLayerDefs are the layers only front-mix and session-extend
// exercise: the front, the response cache, sessions, and the greedy and
// exact strategies.  Those workloads are not in BENCHMARK.json (see
// benchmarkWorkloads), so these metrics are printed with the others but
// left out of the JSON line.
var unlistedLayerDefs = []metricDef{
	{"front.self_us", "us", "lower"},
	{"front.attempts_per_req", "1/req", "lower"},
	{"front.backend_share_max_mean", "ratio", "lower"},
	{"front.extend_self_us", "us", "lower"},
	{"service.hit_us", "us", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.coalesced", "count", "higher"},
	{"service.session_rebuilds", "1/extend", "lower"},
	{"lpmodel.extend_us", "us", "lower"},
	{"lp.resolve_ms", "ms", "lower"},
	{"lp.dual_pivots_per_extend", "1/extend", "lower"},
	{"single.run_us", "us", "lower"},
	{"parallel.run_us", "us", "lower"},
	{"opt.search_ms", "ms", "lower"},
	{"opt.expanded_per_search", "1/search", "lower"},
	{"opt.dominance_prune_ratio", "ratio", "higher"},
	{"opt.landmark_hit_ratio", "ratio", "higher"},
}

// perLayerMetrics is layerDefs plus one experiments.<ID>_s per swept ID.
func perLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, id := range sweptIDs() {
		out = append(out, metricDef{"experiments." + id + "_s", "s", "lower"})
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced run: span self
// times and durations from the traced phase pb, counter deltas over pb's
// window, stage times from the replay, runtime figures from the untraced
// phase pa.
func layerMetrics(pa, pb *phase, spans []span, lt *layerTimes) map[string]float64 {
	m := map[string]float64{}
	for _, d := range append(perLayerMetrics(), unlistedLayerDefs...) {
		m[d.name] = 0
	}
	p50us := func(ds []time.Duration) float64 { return durQuantile(ds, 0.5, us) }
	p50ms := func(ds []time.Duration) float64 { return durQuantile(ds, 0.5, ms) }

	m["front.self_us"] = p50us(selfTimes(spans, "front.serve", kindSchedule))
	m["front.extend_self_us"] = p50us(selfTimes(spans, "front.serve", kindExtend))
	if fd, ok := frontDelta(pb); ok {
		var attempts uint64
		for _, a := range fd.attempts {
			attempts += a
		}
		m["front.attempts_per_req"] = ratio(float64(attempts), float64(len(pb.samples)))
		m["front.backend_share_max_mean"] = maxOverMean(fd.attempts)
	}

	bd := deltas(pb.backBefore, pb.backAfter)
	m["service.hit_us"] = p50us(durations(spans, "service.serve", "hit"))
	m["service.cache_hit_ratio"] = ratio(float64(bd.hits), float64(bd.hits+bd.misses))
	m["service.coalesced"] = float64(bd.coalesced)
	var waits []time.Duration
	for _, s := range spans {
		if c, ok := lt.compute[s.Req]; ok && s.Name == "service.serve" {
			waits = append(waits, max(s.dur()-c, 0))
		}
	}
	m["service.wait_ms_p50"] = durQuantile(waits, 0.50, ms)
	m["service.wait_ms_p99"] = durQuantile(waits, 0.99, ms)
	m["service.shed"] = float64(bd.shed)
	m["service.solver_resets"] = float64(bd.resets)
	m["service.session_rebuilds"] = ratio(float64(bd.rebuilds), float64(bd.extends))
	m["service.encode_us"] = p50us(lt.encode)

	m["workload.build_instance_us"] = p50us(lt.buildInstance)
	m["core.canonical_us"] = p50us(lt.canonical)
	m["lpmodel.build_ms"] = p50ms(lt.modelBuild)
	m["lpmodel.extract_ms"] = p50ms(lt.extract)
	m["lpmodel.extract_candidates"] = meanInt(lt.candidates)
	m["lpmodel.extend_us"] = p50us(lt.extend)

	m["lp.solve_ms_p50"] = p50ms(lt.solve)
	m["lp.solve_ms_p99"] = durQuantile(lt.solve, 0.99, ms)
	solves := float64(bd.lp.Solves)
	m["lp.pivots_per_solve"] = ratio(float64(bd.lp.Iterations), solves)
	m["lp.refactorizations_per_solve"] = ratio(float64(bd.lp.Refactorizations), solves)
	m["lp.symbolic_reuse_ratio"] = ratio(float64(bd.lp.SymbolicReuses), solves)
	m["lp.warm_start_ratio"] = ratio(float64(bd.lp.WarmStarts), solves)
	m["lp.verify_failures"] = float64(bd.lp.VerifyFailures)
	m["lp.cascade_fallbacks"] = float64(bd.lp.CascadeFallbacks)
	m["lp.resolve_ms"] = p50ms(lt.resolve)
	m["lp.dual_pivots_per_extend"] = ratio(float64(bd.lp.DualPivots), float64(bd.extends))

	m["sim.run_us"] = p50us(lt.simRun)
	m["single.run_us"] = p50us(lt.singleRun)
	m["parallel.run_us"] = p50us(lt.parallelRun)

	m["opt.search_ms"] = p50ms(lt.optSearch)
	m["opt.expanded_per_search"] = ratio(float64(lt.optExpanded), float64(len(lt.optSearch)))
	m["opt.dominance_prune_ratio"] = ratio(float64(lt.optDominance), float64(lt.optGenerated))
	m["opt.landmark_hit_ratio"] = ratio(float64(lt.optLandmark), float64(lt.optExpanded))

	for _, id := range sweptIDs() {
		m["experiments."+id+"_s"] = medianDur(lt.sweep[id]).Seconds()
	}

	ops := float64(len(pa.samples))
	m["runtime.alloc_bytes_per_op"] = ratio(float64(pa.allocs), ops)
	m["runtime.gc_cycles_per_kop"] = ratio(float64(pa.gcCycles)*1000, ops)
	return m
}
