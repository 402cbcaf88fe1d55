// Command pcbench runs the experiment suite that reproduces the paper's
// results and prints one table per experiment.  Experiments (and the
// independent points inside each experiment) run on a bounded worker pool;
// output order and content are identical to a sequential run.
//
// Usage:
//
//	pcbench                 # run every experiment
//	pcbench -run E3,E7      # run selected experiments
//	pcbench -list           # list experiment identifiers
//	pcbench -csv            # emit CSV instead of aligned text
//	pcbench -json           # emit JSON (for BENCH_*.json trajectory tracking)
//	pcbench -json -stable   # omit wall times, for byte-reproducible JSON
//	pcbench -workers 1      # force sequential execution
//	pcbench -solver flat    # solve the LPs with the flat-tableau simplex
//	pcbench -pricing steepest-edge  # override the pinned entering-column rule
//	pcbench -basis lu       # override the pinned basis representation
//	pcbench -replay         # trace-replay benchmark: serve a growing trace
//	                        # via incremental warm re-solves and via per-step
//	                        # cold rebuilds, verify the served schedules are
//	                        # byte-identical, report the per-step speedup
//	pcbench -timings f      # embed ns/op figures parsed from a `go test
//	                        # -bench` output file as the JSON timings block
//	pcbench -cpuprofile f   # write a pprof CPU profile of the run to f
//	pcbench -memprofile f   # write a pprof heap profile after the run to f
//	pcbench -serve-url URL  # run the sweep on a live pcserve and verify it
//	                        # matches the in-process run byte for byte
//
// The experiment suite pins the revised simplex to the engines the committed
// BENCH_*.json files were recorded with (Dantzig pricing, eta basis) so
// historical schedule rows stay byte-reproducible; -pricing and -basis
// select the new engines (steepest-edge, lu) for comparisons.
//
// The -json output is produced by service.RunSweepWith, the same code path
// the pcserve /v1/sweep endpoint streams; with -serve-url, pcbench becomes a
// smoke client of a running server and fails if the served bytes differ from
// what this process computes locally.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pfcache/internal/experiments"
	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// main only converts run's exit code: all the work happens in run, whose
// deferred profile/file cleanup must execute before os.Exit.
func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	runFlag := flag.String("run", "", "comma-separated experiment identifiers to run (default: all)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text tables")
	jsonOut := flag.Bool("json", false, "emit results as JSON (includes per-experiment wall time plus LP solver and exact-search counters)")
	stable := flag.Bool("stable", false, "omit wall times from -json output so repeated runs are byte-identical")
	workers := flag.Int("workers", 0, "worker pool size (0 = one per CPU, 1 = sequential)")
	solver := flag.String("solver", "revised", "LP simplex implementation: revised or flat")
	pricing := flag.String("pricing", "", "revised-simplex pricing rule: steepest-edge or dantzig (default: the suite's pinned dantzig)")
	basis := flag.String("basis", "", "revised-simplex basis representation: lu or eta (default: the suite's pinned eta)")
	replay := flag.Bool("replay", false, "run the trace-replay benchmark instead of the experiment sweep: incremental warm re-solves vs per-step cold rebuilds on a growing trace")
	timings := flag.String("timings", "", "file holding `go test -bench` output whose ns/op figures are embedded in the -json timings block")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
	serveURL := flag.String("serve-url", "", "run the sweep via a live pcserve at this base URL and verify it matches the in-process run")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if _, err := lp.ParseMethod(*solver); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *pricing != "" {
		if _, err := lp.ParsePricing(*pricing); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *basis != "" {
		if _, err := lp.ParseBasis(*basis); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *replay {
		if *jsonOut || *serveURL != "" || *timings != "" {
			fmt.Fprintln(os.Stderr, "-replay is a standalone benchmark; it cannot be combined with -json, -serve-url or -timings")
			return 2
		}
		return runReplay(&service.SweepRequest{Solver: *solver, Pricing: *pricing, Basis: *basis})
	}
	var benchTimings map[string]float64
	if *timings != "" {
		if !*jsonOut {
			fmt.Fprintln(os.Stderr, "-timings requires -json (the timings block only exists in the JSON trajectory format)")
			return 2
		}
		var err error
		if benchTimings, err = parseTimings(*timings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	var ids []string
	if *runFlag != "" {
		ids = strings.Split(*runFlag, ",")
	}
	req := &service.SweepRequest{IDs: ids, Stable: *stable, Workers: *workers,
		Solver: *solver, Pricing: *pricing, Basis: *basis}
	if _, err := service.ResolveExperiments(req.IDs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *serveURL != "" {
		// Comparing a remote sweep against a concurrent run in this process
		// would race the server for wall-clock time only, but the comparison
		// must be on deterministic bytes anyway.
		if !*stable {
			fmt.Fprintln(os.Stderr, "-serve-url requires -stable (wall times can never match byte-for-byte)")
			return 2
		}
		if *cpuProfile != "" || *memProfile != "" {
			fmt.Fprintln(os.Stderr, "-serve-url cannot be combined with -cpuprofile/-memprofile (the sweep runs on the server)")
			return 2
		}
		if *timings != "" {
			fmt.Fprintln(os.Stderr, "-serve-url cannot be combined with -timings (the server's sweep carries no local benchmark figures)")
			return 2
		}
		return runAgainstServer(*serveURL, req)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	code := 0
	if *jsonOut {
		// The sweep runner counts the run's solver work in fresh sinks and
		// is shared with the pcserve /v1/sweep endpoint, so CLI and service
		// output are the same bytes.  Print whatever completed even when
		// some experiment failed, so one broken experiment does not hide
		// the others' results.
		resp, err := service.RunSweep(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
		if resp != nil {
			resp.Timings = benchTimings
			if encErr := service.EncodeSweep(os.Stdout, resp); encErr != nil {
				fmt.Fprintln(os.Stderr, encErr)
				code = 1
			}
		}
	} else {
		code = runText(req, *csv)
	}

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			return 1
		}
		runtime.GC()
		perr := pprof.WriteHeapProfile(f)
		f.Close()
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			return 1
		}
	}
	return code
}

// runReplay runs the trace-replay benchmark: the growing trace of
// experiments.ReplayWorkload served once through the incremental path
// (Model.Extend + warm dual re-solve) and once through per-step cold
// rebuilds, both on the tie-broken program whose unique optimum forces the
// two chains onto the same vertex.  The served schedules must be
// byte-identical at every step — a correctness failure exits non-zero — and
// the per-step wall times and pivot counts are reported; the committed
// trajectory's wall-clock record of the same gap is the
// BenchmarkReplayIncrementalStep / BenchmarkReplayColdStep pair in the
// BENCH_*.json timings block.
func runReplay(req *service.SweepRequest) int {
	cfg, err := service.SweepConfig(experiments.Config{}, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	base, steps := experiments.ReplayWorkload()
	disks := base.Disks
	rep, err := experiments.ReplayMeasure(cfg, base, steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("trace replay: base n=%d, %d single-request extensions, D=%d\n",
		rep.BaseN, rep.Steps, disks)
	fmt.Printf("  incremental (extend + warm dual re-solve): %10.3f ms/step, %6d pivots total\n",
		rep.WarmNS/1e6, rep.WarmPivots)
	fmt.Printf("  cold (rebuild + from-scratch solve):       %10.3f ms/step, %6d pivots total\n",
		rep.ColdNS/1e6, rep.ColdPivots)
	fmt.Printf("  speedup: %.1fx   schedules byte-identical: %v\n", rep.Speedup, rep.Identical)
	if !rep.Identical {
		fmt.Fprintln(os.Stderr, "FAIL: incremental and cold chains served different schedules")
		return 1
	}
	return 0
}

// timingLine matches one `go test -bench` result line, capturing the
// benchmark name (CPU suffix stripped) and its ns/op figure.
var timingLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseTimings reads a `go test -bench` output file and returns the ns/op of
// every benchmark line in it, for the JSON timings block.  Non-benchmark
// lines (experiment tables, PASS/ok trailers) are ignored.
func parseTimings(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		m := timingLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = ns
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pcbench: no benchmark lines found in %s", path)
	}
	return out, nil
}

// runText prints aligned text tables (or CSV) straight from the experiment
// driver.
func runText(req *service.SweepRequest, csv bool) int {
	cfg, err := service.SweepConfig(experiments.Config{}, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	selected, _ := service.ResolveExperiments(req.IDs)
	results, err := experiments.RunAll(cfg, selected)
	for _, r := range results {
		if r.Table == nil {
			continue
		}
		if csv {
			fmt.Printf("# %s: %s\n%s\n", r.Experiment.ID, r.Experiment.Title, r.Table.CSV())
		} else {
			fmt.Printf("%s\n", r.Table)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runAgainstServer posts the sweep to a live pcserve instance, runs the same
// sweep in-process, and verifies the two outputs are byte-identical.  The
// server's bytes go to stdout either way, so the command doubles as a remote
// sweep client.
func runAgainstServer(baseURL string, req *service.SweepRequest) int {
	reqBody, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	resp, err := http.Post(strings.TrimRight(baseURL, "/")+"/v1/sweep", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "server returned %s: %s", resp.Status, served)
		return 1
	}

	local, err := service.RunSweep(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var localBuf bytes.Buffer
	if err := service.EncodeSweep(&localBuf, local); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	os.Stdout.Write(served)
	if !bytes.Equal(served, localBuf.Bytes()) {
		fmt.Fprintf(os.Stderr, "MISMATCH: served sweep differs from the in-process run (%d vs %d bytes)\n",
			len(served), localBuf.Len())
		return 1
	}
	fmt.Fprintln(os.Stderr, "server output matches the in-process run")
	return 0
}
