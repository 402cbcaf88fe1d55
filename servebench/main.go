// Command servebench is the repository's serving benchmark.  It starts the
// serving stack in-process on loopback listeners — service.Server backends,
// behind a front.Front for the workloads that go through pcfront — drives
// seeded closed-loop traffic from one or two clients, checks every answer, and
// prints the end-to-end metrics of one workload.  With -trace 1 it instead
// runs the same request list twice (untraced, then traced with spans at the
// front, backend-attempt and backend boundaries), replays the computed
// requests through the packages' public functions, and prints the per-layer
// metrics and the tracing overhead.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash servebench/run.sh --workload lp-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.  The exit code is 1 when any answer disagrees with its
// reference, 2 on a usage or set-up error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run()) }

// setupRuns is how many times a -trace 0 run builds and warms the stack; the
// median is setup_s, and the last stack serves the timed phase.
const setupRuns = 5

// traceDir is where a traced run writes its spans, relative to the checkout.
const traceDir = ".bench_build/trace"

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of the workload's request lists")
	seconds := flag.Int("seconds", 10, "length of a timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := buildWorkload(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("# servebench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# why: %s\n", w.why)
	printEnv(*seed)
	printConfig(w)

	b := &bench{w: w, seed: *seed, seconds: *seconds}
	var res *result
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.traced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	out, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Println(string(out))
	if res.mismatches > 0 {
		return 1
	}
	return 0
}

// bench runs one workload.
type bench struct {
	w       *workloadDef
	seed    int64
	seconds int
	ids     atomic.Uint64
}

// result is what one invocation reports.
type result struct {
	attempted, failed, mismatches int
	metrics                       map[string]float64
	defs                          []metricDef
}

func (r *result) json() map[string]any {
	m := map[string]any{}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A percentile past the failed requests is +Inf, which JSON
			// cannot carry; the largest float stands in for it.
			v = math.MaxFloat64
		}
		m[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return map[string]any{"correct": r.mismatches == 0, "attempted": r.attempted,
		"failed": r.failed, "metrics": m}
}

// setup builds a stack and runs the warm-up to completion.
func (b *bench) setup(cfg stackConfig) (*stack, *loadGen, time.Duration, error) {
	t0 := time.Now()
	cfg.viaFront = b.w.viaFront
	st, err := newStack(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.waitReady(ctx); err != nil {
		st.close()
		return nil, nil, 0, err
	}
	d := &loadGen{st: st, w: b.w, nextID: &b.ids}
	wp := d.warm()
	if n := failures(wp); n > 0 {
		st.close()
		return nil, nil, 0, fmt.Errorf("servebench: %d warm-up requests failed", n)
	}
	return st, d, time.Since(t0), nil
}

// endToEnd is the -trace 0 run: set up setupRuns times, run the timed
// phase on the last stack, check every answer, report.
func (b *bench) endToEnd() (*result, error) {
	var setups []time.Duration
	var st *stack
	var d *loadGen
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		var dur time.Duration
		var err error
		if st, d, dur, err = b.setup(stackConfig{}); err != nil {
			return nil, err
		}
		setups = append(setups, dur)
	}
	p, err := d.timed(time.Duration(b.seconds) * time.Second)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	mism, err := b.check(p)
	if err != nil {
		return nil, err
	}
	setup := medianDur(setups)
	fmt.Printf("setup: %s (median %.4fs)\n", fmtDurs(setups), setup.Seconds())
	printPhase("timed", b.w, p)

	ks := statsFor(p, b.w.primary)
	res := &result{attempted: len(p.samples), failed: failures(p), mismatches: mism, defs: endToEndMetrics,
		metrics: map[string]float64{
			"setup_s":       setup.Seconds(),
			"rps":           ks.rps,
			"p50_ms":        ks.p50,
			"p90_ms":        ks.p90,
			"cpu_ms_per_op": ratio(ms(p.cpu), float64(len(p.samples))),
			"peak_heap_mb":  float64(p.peakHeap) / (1 << 20),
		}}
	return res, nil
}

// check computes the references outside the timed window and checks every
// phase's answers against them.
func (b *bench) check(phases ...*phase) (int, error) {
	c := &checker{workload: b.w.name, refs: map[int][]byte{}, refErrs: map[int]error{}}
	c.scheduleRefs(phases...)
	if b.w.sweep != nil {
		if err := c.sweepRef(b.w.sweep); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, p := range phases {
		total += c.checkPhase(p)
	}
	return total, nil
}

// traced is the -trace 1 run: an untraced phase and a traced phase over the
// same request list on fresh stacks, each half of the run's seconds, then
// the sequential replay, the checks, and the per-layer metrics.  Halving
// keeps a traced run, whose replay and checks redo the served work, about as
// long as an end-to-end one.
func (b *bench) traced() (*result, error) {
	half := time.Duration(b.seconds) * time.Second / 2
	st, d, _, err := b.setup(stackConfig{})
	if err != nil {
		return nil, err
	}
	pa, err := d.timed(half)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tr := &tracer{}
	st, d, _, err = b.setup(stackConfig{wrapServer: tr.wrapServer, wrapFront: tr.wrapFront,
		wrapBackend: func(rt http.RoundTripper) http.RoundTripper { return &tracingTransport{t: tr, base: rt} }})
	if err != nil {
		return nil, err
	}
	d.tr = tr
	pb, err := d.timed(half)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()

	rp := newReplayer()
	rp.replay(pb.samples, func(s sample) []byte {
		if s.body != nil {
			return s.body
		}
		return pb.bodies.first[s.op.ref]
	})
	if b.w.sweep != nil {
		if err := rp.sweeps(b.w.sweep.IDs, 3); err != nil {
			return nil, err
		}
	}
	mism, err := b.check(pa, pb)
	if err != nil {
		return nil, err
	}

	printPhase("untraced", b.w, pa)
	printPhase("traced", b.w, pb)
	ka, kb := statsFor(pa, b.w.primary), statsFor(pb, b.w.primary)
	cpuA := ratio(ms(pa.cpu), float64(len(pa.samples)))
	cpuB := ratio(ms(pb.cpu), float64(len(pb.samples)))
	fmt.Printf("tracing overhead (traced - untraced): %s_rps %+.4f  p50_ms %+.4f  p90_ms %+.4f  cpu_ms_per_op %+.4f\n",
		b.w.primary, kb.rps-ka.rps, kb.p50-ka.p50, kb.p90-ka.p90, cpuB-cpuA)
	fmt.Printf("replay: %d ops replayed, %d failed, %d schedule bodies byte-identical to the served ones\n",
		rp.lt.replayed, rp.lt.replayFails, rp.lt.agreed)
	path, err := tr.write(traceDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	if err != nil {
		return nil, fmt.Errorf("servebench: writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), filepath.ToSlash(path))

	lm := layerMetrics(pa, pb, spans, rp.lt)
	lm["tracing.overhead_p50_ms"] = kb.p50 - ka.p50
	lm["tracing.overhead_cpu_ms_per_op"] = cpuB - cpuA
	printLayers(lm)
	return &result{attempted: len(pa.samples) + len(pb.samples), failed: failures(pa) + failures(pb),
		mismatches: mism, defs: perLayerMetrics(), metrics: lm}, nil
}

// printEnv prints the machine and build the numbers come from.
func printEnv(seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	fmt.Printf("env: gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s seed=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit, seed)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printConfig prints the stack configuration.
func printConfig(w *workloadDef) {
	so := serverOptions()
	fmt.Printf("config: backend shards=%d queue=%d cache=%d solver=%s pricing=%s basis=%s timeout=none clients=%d\n",
		so.Shards, so.QueueDepth, so.CacheEntries, so.Solver, so.Pricing, so.Basis, w.clients)
	if w.viaFront {
		fo := frontOptions(nil)
		fmt.Printf("config: front backends=%s replicas=default(64) health=%s request-timeout=%s attempt-timeout=%s attempts=default retry-base=%s breaker=%d/%s\n",
			strings.Join(fo.Backends, ","), fo.HealthInterval, fo.RequestTimeout, fo.AttemptTimeout,
			fo.RetryBaseDelay, fo.BreakerThreshold, fo.BreakerCooldown)
	} else {
		fmt.Println("config: direct to one backend")
	}
}

func fmtDurs(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4fs", d.Seconds())
	}
	return strings.Join(parts, " ")
}

// printPhase prints a phase's end-to-end metrics per request kind, its
// resource use and its counter deltas.
func printPhase(label string, w *workloadDef, p *phase) {
	fmt.Printf("phase %s: elapsed %.3fs, %d ops attempted, %d failed\n", label, p.elapsed.Seconds(), len(p.samples), failures(p))
	if p.ranOut {
		fmt.Printf("  warning: the pre-built request list ran out before the phase ended\n")
	}
	for _, k := range kindsIn(p) {
		ks := statsFor(p, k)
		prefix := strings.ReplaceAll(k, "-", "_")
		fmt.Printf("  %-28s %12.4f req/s  (n=%d, failed=%d)\n", prefix+"_rps", ks.rps, ks.n, ks.failed)
		fmt.Printf("  %-28s %12.4f ms     (n=%d, %d beyond)\n", prefix+"_p50_ms", ks.p50, ks.n, ks.beyond50)
		if ks.p90ok {
			fmt.Printf("  %-28s %12.4f ms     (n=%d)\n", prefix+"_p90_ms", ks.p90, ks.n)
		}
		if ks.p99ok {
			fmt.Printf("  %-28s %12.4f ms     (n=%d)\n", prefix+"_p99_ms", ks.p99, ks.n)
		}
		if k == kindSweep {
			fmt.Printf("  %-28s %12.4f s      (n=%d)\n", "sweep_s", ks.p50/1000, ks.n)
		}
	}
	fmt.Printf("  %-28s %12.4f ms     (ops=%d)\n", "cpu_ms_per_op", ratio(ms(p.cpu), float64(len(p.samples))), len(p.samples))
	fmt.Printf("  %-28s %12.4f MiB\n", "peak_heap_mb", float64(p.peakHeap)/(1<<20))
	bd := deltas(p.backBefore, p.backAfter)
	fmt.Printf("  backend deltas: cache_hits=%d cache_misses=%d coalesced=%d evictions=%d computed=%d sweeps=%d shed=%d solver_resets=%d canceled=%d timeouts=%d panics=%d session_creates=%d session_extends=%d session_closes=%d session_rebuilds=%d\n",
		bd.hits, bd.misses, bd.coalesced, bd.evictions, bd.computed, bd.sweeps, bd.shed, bd.resets,
		bd.canceled, bd.timeouts, bd.panics, bd.creates, bd.extends, bd.closes, bd.rebuilds)
	lpj, _ := json.Marshal(bd.lp)
	optj, _ := json.Marshal(bd.opt)
	fmt.Printf("  lp deltas (process-wide): %s\n", lpj)
	fmt.Printf("  opt deltas (process-wide; peak_table and workers are maxima): %s\n", optj)
	if fd, ok := frontDelta(p); ok {
		fmt.Printf("  front deltas: requests=%d retries=%d session_creates=%d session_replays=%d attempts=%v failures=%v\n",
			fd.requests, fd.retries, fd.creates, fd.replays, fd.attempts, fd.failures)
	}
}

// printLayers prints the per-layer metrics, sorted by name.
func printLayers(lm map[string]float64) {
	names := make([]string, 0, len(lm))
	for n := range lm {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(perLayerMetrics(), unlistedLayerDefs...) {
		units[d.name] = d.unit
	}
	for _, n := range names {
		fmt.Printf("  layer %-36s %14.4f %s\n", n, lm[n], units[n])
	}
}
