package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// postSweep sends one sweep and returns the reply body; goroutine-safe.
func postSweep(client *http.Client, url string, req *service.SweepRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep %v: status %d: %s", req.IDs, resp.StatusCode, got)
	}
	return got, nil
}

// scheduleLoop keeps a closed loop of schedule requests running against a
// server: each of its goroutines sends the next request as soon as the
// previous reply arrives.
type scheduleLoop struct {
	served  atomic.Int64
	started chan struct{} // closed when the first reply arrives
	stop    chan struct{}
	errc    chan error
	wg      sync.WaitGroup
}

// startScheduleLoop runs goroutines closed loops over reqs.  Each reply must
// be a 200 and, when refs is set, byte-identical to its reference body.
func startScheduleLoop(client *http.Client, url string, reqs []service.ScheduleRequest, refs [][]byte, goroutines int) *scheduleLoop {
	l := &scheduleLoop{started: make(chan struct{}), stop: make(chan struct{}), errc: make(chan error, goroutines)}
	for g := 0; g < goroutines; g++ {
		l.wg.Add(1)
		go func(g int) {
			defer l.wg.Done()
			for i := g; ; i++ {
				select {
				case <-l.stop:
					return
				default:
				}
				k := i % len(reqs)
				got, _, status, err := postSchedule(client, url, &reqs[k])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("schedule %d: status %d: %s", k, status, got)
				}
				if err == nil && refs != nil && !bytes.Equal(got, refs[k]) {
					err = fmt.Errorf("schedule %d: served %s, want %s", k, got, refs[k])
				}
				if err != nil {
					l.errc <- err
					return
				}
				if l.served.Add(1) == 1 {
					close(l.started)
				}
			}
		}(g)
	}
	return l
}

// waitStarted blocks until the loop has served its first reply.
func (l *scheduleLoop) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-l.started:
	case err := <-l.errc:
		t.Fatal(err)
	}
}

// finish stops the loop and reports the first error any goroutine hit.
func (l *scheduleLoop) finish(t *testing.T) {
	t.Helper()
	close(l.stop)
	l.wg.Wait()
	close(l.errc)
	for err := range l.errc {
		t.Fatal(err)
	}
}

// scheduleRefs computes the sequential reference body of every request.
func scheduleRefs(t *testing.T, reqs []service.ScheduleRequest) [][]byte {
	t.Helper()
	refs := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := service.ScheduleBody(&reqs[i], lp.Options{})
		if err != nil {
			t.Fatalf("reference for schedule %d: %v", i, err)
		}
		refs[i] = b
	}
	return refs
}

// TestSweepDoesNotStallSchedules keeps a closed loop of cheap greedy
// schedules running across one E8 sweep and counts the replies that arrive
// between sending the sweep and receiving its reply.  With a sweep lock
// excluding schedules, that count is bounded by the requests already in
// flight when the sweep arrives; without one, the loop keeps going.
func TestSweepDoesNotStallSchedules(t *testing.T) {
	srv := service.NewServer(service.Options{Shards: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reqs := []service.ScheduleRequest{
		{Strategy: "aggressive", Seq: []int{0, 1, 2, 3, 0, 1, 4, 2, 0, 3}, K: 3, F: 4},
		{Strategy: "conservative", Seq: []int{0, 1, 2, 3, 0, 1, 4, 2, 0, 3}, K: 3, F: 4},
		{Strategy: "demand-lru", Workload: &service.WorkloadSpec{Kind: "scan", N: 24, Blocks: 8}, K: 4, F: 2},
	}
	loop := startScheduleLoop(ts.Client(), ts.URL, reqs, scheduleRefs(t, reqs), 2)
	loop.waitStarted(t)

	before := loop.served.Load()
	_, err := postSweep(ts.Client(), ts.URL, &service.SweepRequest{IDs: []string{"E8"}, Stable: true, Workers: 1})
	during := loop.served.Load() - before
	loop.finish(t)
	if err != nil {
		t.Fatal(err)
	}
	if during < 20 {
		t.Fatalf("only %d schedule replies arrived while the sweep ran, want at least 20", during)
	}
	t.Logf("%d schedule replies arrived while the sweep ran", during)
}

// sweepsBesideLPLoad runs the sweeps concurrently on one server while a
// closed loop of lp-optimal schedules runs beside them, and requires every
// sweep body — tables and lp/opt counter blocks — to be byte-identical to a
// quiet RunSweep of the same request.  Its lp block must also show every
// solve certified: verified_solves equals solves on the revised engine,
// whose every solve runs the cascade, and is 0 on the flat path, which runs
// alone.
func sweepsBesideLPLoad(t *testing.T, sweeps ...*service.SweepRequest) {
	want := make([][]byte, len(sweeps))
	for i, req := range sweeps {
		resp, err := service.RunSweep(req)
		if err != nil {
			t.Fatalf("quiet sweep %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := service.EncodeSweep(&buf, resp); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}

	srv := service.NewServer(service.Options{Shards: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The replies are checked for status only: the sweeps' bodies are what
	// this test pins.
	var reqs []service.ScheduleRequest
	for n := 14; n <= 24; n += 2 {
		reqs = append(reqs, service.ScheduleRequest{Strategy: "lp-optimal", K: 3, F: 3, Disks: 2,
			Workload: &service.WorkloadSpec{Kind: "zipf", N: n, Blocks: 7, S: 1.1, Seed: int64(n)}})
	}
	loop := startScheduleLoop(ts.Client(), ts.URL, reqs, nil, 2)
	loop.waitStarted(t)

	got := make([][]byte, len(sweeps))
	errs := make([]error, len(sweeps))
	var wg sync.WaitGroup
	for i, req := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = postSweep(ts.Client(), ts.URL, req)
		}()
	}
	wg.Wait()
	loop.finish(t)
	for i := range sweeps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("sweep %d (solver %q) served beside other work differs from the quiet run:\nserved: %s\nquiet:  %s",
				i, sweeps[i].Solver, got[i], want[i])
		}
		var resp service.SweepResponse
		if err := json.Unmarshal(got[i], &resp); err != nil {
			t.Fatal(err)
		}
		verified := resp.LP.Solves
		if sweeps[i].Solver == "flat" {
			verified = 0
		}
		if resp.LP.Solves == 0 || resp.LP.VerifiedSolves != verified {
			t.Errorf("sweep %d (solver %q): %d of %d solves verified, want %d",
				i, sweeps[i].Solver, resp.LP.VerifiedSolves, resp.LP.Solves, verified)
		}
	}
}

// TestSweepBodyUnchangedBesideSchedules: a sweep's body, counter blocks
// included, does not depend on the schedule traffic it runs beside.
func TestSweepBodyUnchangedBesideSchedules(t *testing.T) {
	sweepsBesideLPLoad(t, &service.SweepRequest{IDs: []string{"E2", "E8", "A1"}, Stable: true, Workers: 1})
}

// TestSweepsSideBySideUnchanged: two sweeps on different simplex
// implementations, run at once beside schedule traffic, each report exactly
// their own counters (their tables agree: the suite's LPs are tie-broken).
func TestSweepsSideBySideUnchanged(t *testing.T) {
	sweepsBesideLPLoad(t,
		&service.SweepRequest{IDs: []string{"E2", "E8", "A1"}, Stable: true, Workers: 1, Solver: "revised"},
		&service.SweepRequest{IDs: []string{"E2", "E8", "A1"}, Stable: true, Workers: 1, Solver: "flat"})
}

// TestSweepUsesServerWorkers: a server built with Workers: 1 runs a sweep
// whose request leaves workers at 0 sequentially.  The experiments of a
// sequential run occupy disjoint stretches of the request's wall time, so
// their durations sum to at most that time; run concurrently, they overlap.
// GOMAXPROCS is raised so that the default pool size would be concurrent.
func TestSweepUsesServerWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv := service.NewServer(service.Options{Shards: 1, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start := time.Now()
	body, err := postSweep(ts.Client(), ts.URL, &service.SweepRequest{IDs: []string{"E3", "E8", "A1", "A2"}})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var resp service.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range resp.Results {
		sum += r.Seconds
	}
	if sum > wall.Seconds() {
		t.Fatalf("the experiments ran for %.3fs in all within a %.3fs request: they overlapped", sum, wall.Seconds())
	}
}
