package front_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pfcache/internal/front"
	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// newBackend starts a real pcserve-equivalent backend for the front to route
// to.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.NewServer(service.Options{Shards: 2, CacheEntries: 64})
	hs := httptest.NewServer(svc)
	t.Cleanup(func() { hs.Close(); svc.Close() })
	return hs
}

// newFront builds a front over the backends with test-speed timings and
// serves it over HTTP.
func newFront(t *testing.T, backends []string, mod func(*front.Options)) (*front.Front, *httptest.Server) {
	t.Helper()
	opts := front.Options{
		Backends:       backends,
		HealthInterval: 20 * time.Millisecond,
		// Probes poll fast but time out generously: under -race a loaded
		// process can stall a probe round-trip past the poll period, and a
		// timeout that tight would flap backends unhealthy for no reason.
		HealthTimeout:    2 * time.Second,
		FailThreshold:    2,
		RestoreThreshold: 1,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    5 * time.Millisecond,
	}
	if mod != nil {
		mod(&opts)
	}
	f, err := front.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	hs := httptest.NewServer(f)
	t.Cleanup(hs.Close)
	return f, hs
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp, payload
}

// zipfSchedule builds a schedule request over a seeded zipf workload.  Vary
// n across lp-optimal requests: distinct LP shapes keep warm-started shard
// solvers from changing iteration counts between a fresh reference solver
// and a reused backend one.
func zipfSchedule(strategy string, n int, seed int64) *service.ScheduleRequest {
	return &service.ScheduleRequest{
		Strategy: strategy,
		Workload: &service.WorkloadSpec{Kind: "zipf", N: n, Blocks: 9, S: 1.2, Seed: seed},
		K:        4,
		F:        3,
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrontForwardsScheduleByteIdentical(t *testing.T) {
	backend := newBackend(t)
	_, fs := newFront(t, []string{backend.URL}, nil)

	for i, req := range []*service.ScheduleRequest{
		zipfSchedule("aggressive", 30, 1),
		zipfSchedule("lp-optimal", 24, 2),
		zipfSchedule("opt", 14, 3),
	} {
		want, err := service.ScheduleBody(req, lp.Options{})
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		resp, got := postJSON(t, fs.URL+"/v1/schedule", mustMarshal(t, req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("request %d (%s): front body differs from direct computation\nfront: %s\nwant:  %s",
				i, req.Strategy, got, want)
		}
		if resp.Header.Get("X-Backend") != backend.URL {
			t.Errorf("request %d: X-Backend = %q, want %q", i, resp.Header.Get("X-Backend"), backend.URL)
		}
	}
}

func TestFrontRoutesSameInstanceToSameBackend(t *testing.T) {
	var backends []string
	for i := 0; i < 3; i++ {
		backends = append(backends, newBackend(t).URL)
	}
	_, fs := newFront(t, backends, nil)

	body := mustMarshal(t, zipfSchedule("conservative", 40, 7))
	var first string
	for i := 0; i < 5; i++ {
		resp, payload := postJSON(t, fs.URL+"/v1/schedule", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: status %d: %s", i, resp.StatusCode, payload)
		}
		b := resp.Header.Get("X-Backend")
		if i == 0 {
			first = b
			continue
		}
		if b != first {
			t.Fatalf("attempt %d routed to %s; attempt 0 went to %s — affinity broken", i, b, first)
		}
		// Repeats of an identical request must be served from that backend's
		// cache — the point of affine routing.
		if xc := resp.Header.Get("X-Cache"); xc != "hit" {
			t.Errorf("attempt %d: X-Cache = %q, want hit", i, xc)
		}
	}
}

// flakyBackend answers /readyz but fails its first `failures` schedule
// requests with 500, then proxies nothing — it only ever fails, so a success
// must come from another backend.
type flakyBackend struct {
	calls atomic.Int64
}

func (fb *flakyBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("POST /v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		fb.calls.Add(1)
		http.Error(w, "flaky: injected failure", http.StatusInternalServerError)
	})
	return mux
}

func TestFrontRetriesOntoHealthyBackend(t *testing.T) {
	fb := &flakyBackend{}
	bad := httptest.NewServer(fb.handler())
	t.Cleanup(bad.Close)
	good := newBackend(t)

	f, fs := newFront(t, []string{bad.URL, good.URL}, func(o *front.Options) {
		o.MaxAttempts = 3
	})

	// Whatever the ring order, every request must end on the good backend
	// with a correct body, no matter how many land on the flaky one first.
	for i := 0; i < 8; i++ {
		req := zipfSchedule("aggressive", 20+i, int64(100+i))
		want, err := service.ScheduleBody(req, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resp, got := postJSON(t, fs.URL+"/v1/schedule", mustMarshal(t, req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("request %d: body differs after retry", i)
		}
		if resp.Header.Get("X-Backend") != good.URL {
			t.Errorf("request %d: served by %q, want the good backend", i, resp.Header.Get("X-Backend"))
		}
	}

	stats := f.Stats(t.Context())
	if fb.calls.Load() > 0 && stats.Retries == 0 {
		t.Errorf("flaky backend saw %d calls but front counted no retries", fb.calls.Load())
	}
}

func TestFrontExhaustionIs502(t *testing.T) {
	fb := &flakyBackend{}
	bad := httptest.NewServer(fb.handler())
	t.Cleanup(bad.Close)

	_, fs := newFront(t, []string{bad.URL}, func(o *front.Options) {
		o.MaxAttempts = 2
	})

	resp, body := postJSON(t, fs.URL+"/v1/schedule", mustMarshal(t, zipfSchedule("aggressive", 20, 1)))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("502 reply lacks a Retry-After hint")
	}
	if !strings.Contains(string(body), "attempts failed") {
		t.Errorf("error body %q does not describe the exhaustion", body)
	}
}

// TestFrontValidatesAtTheEdge: malformed requests are rejected by the front
// itself without spending a backend attempt.
func TestFrontValidatesAtTheEdge(t *testing.T) {
	fb := &flakyBackend{}
	bad := httptest.NewServer(fb.handler())
	t.Cleanup(bad.Close)
	_, fs := newFront(t, []string{bad.URL}, nil)

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"bad json", []byte("{nope"), http.StatusBadRequest},
		{"missing strategy", []byte(`{"seq":[1,2,3],"k":2}`), http.StatusBadRequest},
		{"bad instance", []byte(`{"strategy":"aggressive"}`), http.StatusBadRequest},
		{"oversized", []byte(`{"strategy":"` + strings.Repeat("a", 17<<20) + `"}`), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, fs.URL+"/v1/schedule", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d; body: %.200s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	if n := fb.calls.Load(); n != 0 {
		t.Errorf("invalid requests reached the backend %d times", n)
	}
}

// TestOversizedSizesRejected sends tiny bodies whose sizes would make the
// service allocate far more memory than any machine has, one per generator
// kind plus k, disks and an instance-text k.  Each must get a 400 from a
// pcserve backend directly and from the front, and both must keep serving.
// The loop and phased products overflow int64 to 0 if formed naively.
func TestOversizedSizesRejected(t *testing.T) {
	backend := newBackend(t)
	_, fs := newFront(t, []string{backend.URL}, nil)
	cases := []struct{ name, body string }{
		{"uniform n", `{"strategy":"aggressive","workload":{"kind":"uniform","n":8589934592,"blocks":5},"k":2,"f":2}`},
		{"zipf blocks", `{"strategy":"aggressive","workload":{"kind":"zipf","n":10,"blocks":8589934592},"k":2,"f":2}`},
		{"scan n", `{"strategy":"aggressive","workload":{"kind":"scan","n":8589934592,"blocks":4},"k":2,"f":2}`},
		{"loop blocks x repeats", `{"strategy":"aggressive","workload":{"kind":"loop","blocks":4294967296,"repeats":4294967296},"k":2,"f":2}`},
		{"phased phases x per_phase", `{"strategy":"aggressive","workload":{"kind":"phased","phases":4294967296,"per_phase":4294967296,"blocks":4},"k":2,"f":2}`},
		{"interleaved streams", `{"strategy":"aggressive","workload":{"kind":"interleaved","n":10,"streams":8589934592,"stream_len":2},"k":2,"f":2}`},
		{"mixed n", `{"strategy":"aggressive","workload":{"kind":"mixed","n":8589934592,"blocks":4,"scan_blocks":4,"burst":2},"k":2,"f":2}`},
		{"disks", `{"strategy":"aggressive","seq":[1,2,3,1,2,3],"k":2,"f":2,"disks":8589934592}`},
		{"k", `{"strategy":"lp-optimal","seq":[1,2,3,1,2,3],"k":8589934592,"f":2}`},
		{"instance k", `{"strategy":"lp-optimal","instance":"pfcache-instance v1\nk 8589934592\nf 2\nseq 1 2 3 1 2 3\n"}`},
		{"f", `{"strategy":"demand-lru","seq":[1,2,3,1,2,3],"k":2,"f":4611686018427387904}`},
		{"instance f", `{"strategy":"demand-lru","instance":"pfcache-instance v1\nk 2\nf 4611686018427387904\nseq 1 2 3 1 2 3\n"}`},
	}
	for _, tc := range cases {
		for _, url := range []string{backend.URL, fs.URL} {
			resp, body := postJSON(t, url+"/v1/schedule", []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the limit") {
				t.Errorf("%s via %s: status %d, want 400 naming the limit; body: %.200s", tc.name, url, resp.StatusCode, body)
			}
		}
	}
	ok := []byte(`{"strategy":"aggressive","seq":[1,2,3,1,2,3],"k":2,"f":2,"disks":2}`)
	for _, url := range []string{backend.URL, fs.URL} {
		if resp, body := postJSON(t, url+"/v1/schedule", ok); resp.StatusCode != http.StatusOK {
			t.Errorf("a valid request via %s after the rejections: status %d; body: %.200s", url, resp.StatusCode, body)
		}
	}
}

func TestFrontSweepFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep fan-out is slow")
	}
	b1, b2 := newBackend(t), newBackend(t)
	_, fs := newFront(t, []string{b1.URL, b2.URL}, nil)

	ids := []string{"E1", "E2"}
	// References computed locally, sequentially.  Each sweep counts its own
	// work in its own sinks, so the lp/opt counter blocks must match too,
	// although the front's two single-ID sweeps run concurrently in this
	// process.
	want := make(map[string]*service.SweepResponse)
	for _, id := range ids {
		ref, err := service.RunSweep(&service.SweepRequest{IDs: []string{id}, Stable: true, Workers: 1})
		if err != nil {
			t.Fatalf("reference sweep %s: %v", id, err)
		}
		want[id] = ref
	}

	body := mustMarshal(t, &service.SweepRequest{IDs: ids, Stable: true, Workers: 1})
	resp, err := http.Post(fs.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	got := map[string]*service.SweepResponse{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			ID      string                 `json:"id"`
			Backend string                 `json:"backend"`
			Sweep   *service.SweepResponse `json:"sweep"`
			Error   string                 `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Fatalf("experiment %s failed: %s", line.ID, line.Error)
		}
		if line.Backend == "" || line.Sweep == nil {
			t.Fatalf("line for %s lacks backend or sweep: %s", line.ID, sc.Text())
		}
		got[line.ID] = line.Sweep
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, id := range ids {
		w, g := want[id], got[id]
		if g == nil {
			t.Fatalf("no line for experiment %s", id)
		}
		if fmt.Sprint(*g) != fmt.Sprint(*w) {
			t.Errorf("experiment %s: fanned-out sweep differs from local sweep\ngot:  %+v\nwant: %+v", id, *g, *w)
		}
	}
}

func TestFrontReadinessFollowsBackends(t *testing.T) {
	svc := service.NewServer(service.Options{Shards: 1})
	hs := httptest.NewServer(svc)
	t.Cleanup(func() { hs.Close(); svc.Close() })
	_, fs := newFront(t, []string{hs.URL}, nil)

	get := func(path string) int {
		resp, err := http.Get(fs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz with a live backend = %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}

	// Drain the backend: its /readyz flips to 503, and within a few probe
	// intervals the front must stop reporting ready (liveness stays 200).
	svc.BeginDrain()
	deadline := time.Now().Add(5 * time.Second)
	for get("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("front /readyz never flipped to 503 after its only backend drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("front /healthz = %d during backend drain, want 200 (liveness is not readiness)", got)
	}
}
