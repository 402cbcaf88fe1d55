package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/opt"
)

// TestLPCountersReachWire gives every lp.Counters field its own value by
// reflection, records it into a sink and requires the sink's snapshot and the
// wire conversion to carry each one through, so a counter added to
// lp.Counters cannot silently report zero in sweep bodies, /v1/stats and
// trajectory files.
func TestLPCountersReachWire(t *testing.T) {
	var c lp.Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(uint64(3 * (i + 1)))
	}
	var sink lp.Stats
	sink.Add(c)
	checkWireFields(t, cv, reflect.ValueOf(lpCountersWire(sink.Snapshot())))
}

// TestOptCountersReachWire is TestLPCountersReachWire for opt.Counters and
// OptCountersWire.
func TestOptCountersReachWire(t *testing.T) {
	var c opt.Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(uint64(3 * (i + 1)))
	}
	var sink opt.Stats
	sink.Add(c)
	checkWireFields(t, cv, reflect.ValueOf(optCountersWire(sink.Snapshot())))
}

// checkWireFields requires every field of want to appear in wire under the
// same name with the same value.
func checkWireFields(t *testing.T, want, wire reflect.Value) {
	t.Helper()
	typ := want.Type()
	for i := 0; i < want.NumField(); i++ {
		name := typ.Field(i).Name
		f := wire.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("%s has no field %s", wire.Type().Name(), name)
			continue
		}
		if got, want := f.Uint(), want.Field(i).Uint(); got != want {
			t.Errorf("%s.%s = %d after a sink round trip, want %d", wire.Type().Name(), name, got, want)
		}
	}
}

// serveJSON sends one request straight to the server's handler and decodes
// the 200 reply into out.
func serveJSON(t *testing.T, srv *Server, method, path string, body, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("%s %s: decoding the reply: %v", method, path, err)
	}
}

// TestStatsSumShardSessionAndSweepWork requires /v1/stats to count every
// kind of work the server does: lp-optimal and opt schedules on the shards,
// session solves, and finished sweeps.  Each step's own counters, read from
// its response, must appear in the sums, while peak_table and workers are
// maxima, not sums.
func TestStatsSumShardSessionAndSweepWork(t *testing.T) {
	srv := NewServer(Options{Shards: 2})
	defer srv.Close()
	stats := func() StatsResponse {
		var s StatsResponse
		serveJSON(t, srv, http.MethodGet, "/v1/stats", nil, &s)
		return s
	}
	if s := stats(); s.LP != (LPCountersWire{}) || s.Opt != (OptCountersWire{}) {
		t.Fatalf("a fresh server reports work: lp %+v, opt %+v", s.LP, s.Opt)
	}

	lpReq := &ScheduleRequest{Strategy: "lp-optimal", K: 4, F: 3, Disks: 2, Assign: "stripe",
		Workload: &WorkloadSpec{Kind: "interleaved", N: 20, Streams: 2, StreamLen: 5}}
	var lpResp ScheduleResponse
	serveJSON(t, srv, http.MethodPost, "/v1/schedule", lpReq, &lpResp)
	afterLP := stats()
	if afterLP.LP.Solves != 1 || afterLP.LP.VerifiedSolves != 1 ||
		afterLP.LP.Iterations != uint64(lpResp.LP.Iterations) {
		t.Errorf("after one lp-optimal schedule: lp %+v, want 1 verified solve of %d pivots",
			afterLP.LP, lpResp.LP.Iterations)
	}

	var optResp ScheduleResponse
	serveJSON(t, srv, http.MethodPost, "/v1/schedule", &ScheduleRequest{Strategy: "opt",
		Seq: []int{0, 1, 2, 3, 0, 1, 2, 4, 0, 3, 1, 2}, K: 3, F: 3}, &optResp)
	afterOpt := stats()
	if afterOpt.Opt.Searches != 1 || afterOpt.Opt.Expanded != uint64(optResp.Opt.Expanded) ||
		afterOpt.Opt.PeakTable != uint64(optResp.Opt.PeakTable) || afterOpt.Opt.Workers != 1 {
		t.Errorf("after one opt schedule: opt %+v, want the response's %+v", afterOpt.Opt, optResp.Opt)
	}

	var sess SessionResponse
	serveJSON(t, srv, http.MethodPost, "/v1/session", &SessionCreateRequest{ScheduleRequest: ScheduleRequest{
		Workload: &WorkloadSpec{Kind: "uniform", N: 14, Blocks: 6, Seed: 4}, K: 3, F: 2, Disks: 2}}, &sess)
	afterSess := stats()
	if d := afterSess.LP.Solves - afterOpt.LP.Solves; d != 1 {
		t.Errorf("a session create added %d solves, want 1", d)
	}
	if d := afterSess.LP.Iterations - afterOpt.LP.Iterations; d != uint64(sess.Result.LP.Iterations) {
		t.Errorf("a session create added %d pivots, its response reports %d", d, sess.Result.LP.Iterations)
	}

	var sweep SweepResponse
	serveJSON(t, srv, http.MethodPost, "/v1/sweep", &SweepRequest{IDs: []string{"E1", "E2"}, Stable: true, Workers: 1}, &sweep)
	if sweep.LP.Solves == 0 || sweep.Opt.Searches == 0 {
		t.Fatalf("the sweep reports no work: lp %+v, opt %+v", sweep.LP, sweep.Opt)
	}
	afterSweep := stats()

	// Every lp counter is a sum.
	wantLP := afterSess.LP
	addFields(&wantLP, sweep.LP)
	if afterSweep.LP != wantLP {
		t.Errorf("after the sweep: lp %+v, want the earlier work plus the sweep's: %+v", afterSweep.LP, wantLP)
	}
	// Opt counters sum, except the two maxima.
	wantOpt := afterSess.Opt
	addFields(&wantOpt, sweep.Opt)
	wantOpt.PeakTable = max(afterSess.Opt.PeakTable, sweep.Opt.PeakTable)
	wantOpt.Workers = max(afterSess.Opt.Workers, sweep.Opt.Workers)
	if afterSweep.Opt != wantOpt {
		t.Errorf("after the sweep: opt %+v, want %+v", afterSweep.Opt, wantOpt)
	}
	if afterSweep.Opt.Workers != 1 {
		t.Errorf("workers = %d after sequential searches only, want the maximum 1", afterSweep.Opt.Workers)
	}
	if afterSweep.Sweeps != 1 {
		t.Errorf("sweeps = %d, want 1", afterSweep.Sweeps)
	}
}

// addFields adds every field of src to the same field of *dst; both are
// counter structs of uint64 fields.
func addFields(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	v := reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetUint(d.Field(i).Uint() + v.Field(i).Uint())
	}
}
