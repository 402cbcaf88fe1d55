package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/opt"
	"pfcache/internal/service"
)

// fuzzMaxSize bounds every size a fuzzed request may name, so each input
// runs in milliseconds.  Sizes beyond the server's caps are
// TestOversizedSizesRejected's business.
const fuzzMaxSize = 1 << 10

// fuzzSmall reports whether every size in req is within fuzzMaxSize.
func fuzzSmall(req *service.ScheduleRequest) bool {
	sizes := []int{len(req.Seq), len(req.InitialCache)}
	if w := req.Workload; w != nil {
		sizes = append(sizes, w.N, w.Blocks, w.Repeats, w.Phases, w.PerPhase,
			w.Overlap, w.Streams, w.StreamLen, w.ScanBlocks, w.Burst)
	}
	for _, v := range sizes {
		if v > fuzzMaxSize {
			return false
		}
	}
	return true
}

// FuzzScheduleRequest decodes arbitrary bytes as a schedule request, builds
// its instance and runs greedy strategies on it: the request's own strategy
// (unless it names the LP or the exact search) plus aggressive and
// conservative.  Nothing may panic, and every schedule served must report
// stall >= 0 and elapsed == n + stall.  The seed corpus runs as a plain test.
func FuzzScheduleRequest(f *testing.F) {
	for _, req := range testRequests(f) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"strategy":"demand-lru","seq":[1,2,3,1,2,3],"k":2,"f":4611686018427387904}`))
	f.Add([]byte(`{"strategy":"delay:3","seq":[1,2,3,1,2,3],"k":2,"f":1048576,"disks":2}`))
	f.Add([]byte(`{"strategy":"online:2","workload":{"kind":"mixed","n":40,"blocks":6,"scan_blocks":5,"burst":3,"seed":2},"k":3,"f":3}`))
	f.Add([]byte(`{"strategy":"demand","workload":{"kind":"phased","phases":3,"per_phase":8,"blocks":4,"overlap":1,"seed":9},"k":3,"f":2,"disks":3,"assign":"random"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req service.ScheduleRequest
		if json.Unmarshal(body, &req) != nil || !fuzzSmall(&req) {
			return
		}
		in, err := req.BuildInstance()
		if err != nil {
			return
		}
		strategies := []string{"aggressive", "conservative"}
		if req.Strategy != "lp-optimal" && req.Strategy != "opt" {
			strategies = append(strategies, req.Strategy)
		}
		for _, name := range strategies {
			resp, err := service.ComputeSchedule(context.Background(), in, name, false, nil, lp.Options{}, opt.Options{})
			if err != nil {
				continue
			}
			if resp.Stall < 0 || resp.Elapsed != resp.N+resp.Stall {
				t.Fatalf("%s on %s: n %d, stall %d, elapsed %d", name, body, resp.N, resp.Stall, resp.Elapsed)
			}
		}
	})
}

// FuzzSessionExtend posts arbitrary bytes to the extend handler of a fresh
// session.  The handler must answer without a server error; a 200 must
// describe the extended trace, with stall >= 0 and elapsed == n + stall.
// Extensions of more than 16 requests are skipped, as each one costs an LP
// solve over the whole trace.  The seed corpus runs as a plain test.
func FuzzSessionExtend(f *testing.F) {
	for _, body := range []string{
		`{"requests":[2,5]}`,
		`{"requests":[0,1,2,3,4,0],"include_schedule":true}`,
		`{"requests":[9]}`,
		`{"requests":[-1]}`,
		`{"requests":[]}`,
		`{"requests":[1.5]}`,
		`{"requests":[2]} trailing`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	srv := service.NewServer(service.Options{Shards: 1})
	f.Cleanup(srv.Close)
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	create, err := json.Marshal(service.SessionCreateRequest{Session: "fuzz",
		ScheduleRequest: service.ScheduleRequest{Strategy: "lp-optimal", Seq: []int{0, 1, 2, 3, 0, 1, 4, 2}, K: 3, F: 2, Disks: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var probe service.SessionExtendRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&probe) == nil && len(probe.Requests) > 16 {
			return
		}
		if rec := serve(http.MethodPost, "/v1/session", create); rec.Code != http.StatusOK {
			t.Fatalf("create session: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		defer serve(http.MethodDelete, "/v1/session/fuzz", nil)
		rec := serve(http.MethodPost, "/v1/session/fuzz/extend", body)
		if rec.Code >= 500 {
			t.Fatalf("extend with %q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var out service.SessionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Result == nil {
			t.Fatalf("extend with %q: undecodable reply %s (%v)", body, rec.Body.Bytes(), err)
		}
		r := out.Result
		if out.Length != 8+len(probe.Requests) || r.N != out.Length || r.Stall < 0 || r.Elapsed != r.N+r.Stall {
			t.Fatalf("extend with %q: length %d, n %d, stall %d, elapsed %d", body, out.Length, r.N, r.Stall, r.Elapsed)
		}
	})
}
