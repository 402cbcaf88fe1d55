package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/service"
	"pfcache/internal/sim"
	"pfcache/internal/single"
	"pfcache/internal/workload"
)

// testRequests is a mixed bag of schedule requests: every instance source
// (explicit sequence, generated workload, text format), single and parallel
// disks, greedy, LP and exact strategies.  Sizes are small so the suite stays
// fast under -race.
func testRequests(tb testing.TB) []service.ScheduleRequest {
	tb.Helper()
	inst := workload.Marshal(workload.Instance(workload.Zipf(24, 8, 1.2, 7), 4, 3, 2, workload.AssignStripe, 7))
	return []service.ScheduleRequest{
		{Strategy: "aggressive", Seq: []int{0, 1, 2, 3, 0, 1, 4, 2, 0, 3}, K: 3, F: 4},
		{Strategy: "conservative", Seq: []int{0, 1, 2, 3, 0, 1, 4, 2, 0, 3}, K: 3, F: 4},
		{Strategy: "delay:auto", Workload: &service.WorkloadSpec{Kind: "uniform", N: 32, Blocks: 10, Seed: 3}, K: 4, F: 4},
		{Strategy: "combination", Workload: &service.WorkloadSpec{Kind: "zipf", N: 32, Blocks: 10, S: 1.1, Seed: 5}, K: 4, F: 4, IncludeSchedule: true},
		{Strategy: "demand-lru", Workload: &service.WorkloadSpec{Kind: "scan", N: 24, Blocks: 8}, K: 4, F: 2},
		{Strategy: "opt", Seq: []int{0, 1, 2, 3, 0, 1, 2, 4, 0, 3, 1, 2}, K: 3, F: 3, IncludeSchedule: true},
		{Strategy: "lp-optimal", Workload: &service.WorkloadSpec{Kind: "interleaved", N: 20, Streams: 2, StreamLen: 5}, K: 4, F: 3, Disks: 2, Assign: "stripe"},
		{Strategy: "aggressive", Instance: inst},
		{Strategy: "lp-optimal", Instance: inst, IncludeSchedule: true},
		{Strategy: "opt", Workload: &service.WorkloadSpec{Kind: "loop", Blocks: 5, Repeats: 4}, K: 3, F: 2},
	}
}

// postSchedule is goroutine-safe: it reports failures as errors instead of
// failing the test directly.
func postSchedule(client *http.Client, url string, req *service.ScheduleRequest) ([]byte, string, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", 0, fmt.Errorf("marshal request: %w", err)
	}
	resp, err := client.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", 0, fmt.Errorf("POST /v1/schedule: %w", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", 0, fmt.Errorf("read response: %w", err)
	}
	return got, resp.Header.Get("X-Cache"), resp.StatusCode, nil
}

// TestServerScheduleEndToEnd hammers the server concurrently with duplicate
// requests and asserts that (a) every response is byte-identical to the
// sequential in-process reference, (b) duplicates are answered from the
// cache or coalesced instead of re-solving, and (c) the costs agree with
// running the algorithm directly.
func TestServerScheduleEndToEnd(t *testing.T) {
	reqs := testRequests(t)

	// Sequential reference bytes, computed without server, shards or cache.
	refs := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := service.ScheduleBody(&reqs[i], lp.Options{})
		if err != nil {
			t.Fatalf("reference for request %d (%s): %v", i, reqs[i].Strategy, err)
		}
		refs[i] = b
	}

	srv := service.NewServer(service.Options{Shards: 4, CacheEntries: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const goroutines = 16
	const iters = 20
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g*13 + it*7) % len(reqs)
				got, cache, status, err := postSchedule(ts.Client(), ts.URL, &reqs[i])
				if err != nil {
					errc <- err
					return
				}
				if status != http.StatusOK {
					errc <- fmt.Errorf("request %d: status %d: %s", i, status, got)
					return
				}
				if cache != "hit" && cache != "miss" && cache != "coalesced" {
					errc <- fmt.Errorf("request %d: unexpected X-Cache %q", i, cache)
					return
				}
				if !bytes.Equal(got, refs[i]) {
					errc <- fmt.Errorf("request %d (%s): served bytes differ from sequential reference:\nserved: %s\nwant:   %s",
						i, reqs[i].Strategy, got, refs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	stats := srv.Stats()
	if stats.Computed != uint64(len(reqs)) {
		t.Errorf("server computed %d schedules for %d distinct requests; duplicates were re-solved",
			stats.Computed, len(reqs))
	}
	if stats.CacheHits == 0 {
		t.Errorf("no cache hits recorded across %d duplicate requests", goroutines*iters-len(reqs))
	}
	if stats.CacheMisses == 0 || stats.CacheEntries == 0 {
		t.Errorf("implausible cache stats: %+v", stats)
	}
	// The server's solver counters ride along on /v1/stats: the request
	// set includes lp-optimal and exact-search strategies, so both blocks
	// must show work.
	if stats.LP.Solves == 0 || stats.LP.Iterations == 0 {
		t.Errorf("stats carry no LP solver work: %+v", stats.LP)
	}
	if stats.Opt.Searches == 0 {
		t.Errorf("stats carry no exact-search work: %+v", stats.Opt)
	}
}

// TestServerScheduleMatchesDirectRun cross-checks the served costs against
// running the algorithm and executor directly, the same path the pcsim CLI
// uses.
func TestServerScheduleMatchesDirectRun(t *testing.T) {
	srv := service.NewServer(service.Options{Shards: 2, CacheEntries: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := service.ScheduleRequest{Strategy: "aggressive", Seq: []int{0, 1, 2, 3, 0, 1, 4, 2, 0, 3}, K: 3, F: 4}
	got, _, status, err := postSchedule(ts.Client(), ts.URL, &req)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	var resp service.ScheduleResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}

	in, err := req.BuildInstance()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := single.Aggressive(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(in, sched, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stall != res.Stall || resp.Elapsed != res.Elapsed || resp.FetchCount != res.FetchCount {
		t.Errorf("served costs (stall=%d elapsed=%d fetches=%d) != direct run (stall=%d elapsed=%d fetches=%d)",
			resp.Stall, resp.Elapsed, resp.FetchCount, res.Stall, res.Elapsed, res.FetchCount)
	}
}

// TestScheduleResolveServesFirstBytes pins ComputeSchedule's promise on the
// path a cache eviction takes: with one shard and a one-entry cache,
// requests A, B, A make the shard solve A a second time, on the model its
// batch still holds.  The repeat must be served A's first bytes, which are
// the sequential reference's.  The LP is degenerate, so a re-solve that
// started from the first solve's basis would report 0 pivots and round
// another bound.
func TestScheduleResolveServesFirstBytes(t *testing.T) {
	srv := service.NewServer(service.Options{Shards: 1, CacheEntries: 1})
	defer srv.Close()
	serve := func(req *service.ScheduleRequest) []byte {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", req.Workload.Seed, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	zipf := func(seed int64) *service.ScheduleRequest {
		return &service.ScheduleRequest{Strategy: "lp-optimal", K: 4, F: 3, Disks: 2,
			Workload: &service.WorkloadSpec{Kind: "zipf", N: 22, Blocks: 8, S: 1.2, Seed: seed}}
	}
	for seed := int64(1); seed <= 10; seed++ {
		a, b := zipf(seed), zipf(seed+1000)
		want, err := service.ScheduleBody(a, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := serve(a)
		serve(b)
		again := serve(a)
		if !bytes.Equal(first, want) {
			t.Errorf("seed %d: first A body differs from the reference:\n got %s\nwant %s", seed, first, want)
		}
		if !bytes.Equal(again, first) {
			t.Errorf("seed %d: repeated A body differs from the first:\n got %s\nwant %s", seed, again, first)
		}
	}
}

// TestServerSweepMatchesInProcess asserts the /v1/sweep endpoint streams
// exactly the bytes `pcbench -json -stable` would print for the same
// configuration.
func TestServerSweepMatchesInProcess(t *testing.T) {
	srv := service.NewServer(service.Options{Shards: 2, CacheEntries: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := &service.SweepRequest{IDs: []string{"E1", "E2"}, Stable: true, Workers: 1}
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}

	local, err := service.RunSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := service.EncodeSweep(&buf, local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, buf.Bytes()) {
		t.Errorf("served sweep differs from in-process run:\nserved: %s\nlocal:  %s", served, buf.Bytes())
	}
	if srv.Stats().Sweeps != 1 {
		t.Errorf("sweep counter = %d, want 1", srv.Stats().Sweeps)
	}
}

// TestServerRejectsBadRequests covers the error paths: malformed JSON, a
// missing strategy, an over-specified instance source, an unknown strategy
// and an unknown experiment.
func TestServerRejectsBadRequests(t *testing.T) {
	srv := service.NewServer(service.Options{Shards: 1, CacheEntries: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/schedule", "{not json", http.StatusBadRequest},
		{"/v1/schedule", `{"seq":[0,1],"k":1,"f":1}`, http.StatusBadRequest},                                                                     // no strategy
		{"/v1/schedule", `{"strategy":"aggressive"}`, http.StatusBadRequest},                                                                     // no instance source
		{"/v1/schedule", `{"strategy":"aggressive","seq":[0,1],"workload":{"kind":"scan","n":4,"blocks":2},"k":1,"f":1}`, http.StatusBadRequest}, // two sources
		{"/v1/schedule", `{"strategy":"nope","seq":[0,1,0],"k":2,"f":1}`, http.StatusUnprocessableEntity},
		{"/v1/schedule", `{"strategy":"aggressive","workload":{"kind":"uniform","n":-4,"blocks":2},"k":2,"f":1}`, http.StatusBadRequest},
		{"/v1/sweep", `{"ids":["E99"]}`, http.StatusBadRequest},
		{"/v1/sweep", `{"solver":"bogus"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if got, body := post(c.path, c.body); got != c.want {
			t.Errorf("POST %s %s: status %d (%s), want %d", c.path, c.body, got, body, c.want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/v1/experiments")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments: %v %v", resp, err)
	}
	var list []struct{ ID, Title string }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode experiments: %v", err)
	}
	resp.Body.Close()
	if len(list) != 11 {
		t.Errorf("experiment list has %d entries, want 11", len(list))
	}
}
