package front_test

// Session tests of the front tier: sticky session routing, transcript
// capture, and the chaos e2e where a backend holding live sessions is killed
// mid-run — the front must rebuild the lost sessions on surviving backends by
// replaying their transcripts, with zero client-visible errors and plans
// cost-equivalent to cold solves of the same traces.

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// frontSessionWire mirrors service.SessionResponse with the plan kept raw.
type frontSessionWire struct {
	Session string          `json:"session"`
	Length  int             `json:"length"`
	Rebuilt bool            `json:"rebuilt"`
	Result  json.RawMessage `json:"result"`
}

// sessionCosts are the fields of a served plan that the LP certifies.
type sessionCosts struct {
	Stall int `json:"stall"`
	LP    struct {
		LowerBound float64 `json:"lower_bound"`
	} `json:"lp"`
}

// checkSessionCosts compares a session plan against the cold one-shot solve
// of the same full trace: same stall, same LP bound (to float tolerance).
// Vertex-dependent schedule detail is not compared — see the service session
// tests for why equal-cost optima may differ fetch by fetch.
func checkSessionCosts(t *testing.T, context string, result json.RawMessage, seq []int, k, f, disks int) {
	t.Helper()
	ref, err := service.ScheduleBody(&service.ScheduleRequest{
		Strategy: "lp-optimal", Seq: seq, K: k, F: f, Disks: disks,
	}, lp.Options{})
	if err != nil {
		t.Fatalf("%s: cold reference: %v", context, err)
	}
	var got, want sessionCosts
	if err := json.Unmarshal(result, &got); err != nil {
		t.Fatalf("%s: decoding session plan: %v", context, err)
	}
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatalf("%s: decoding cold reference: %v", context, err)
	}
	if got.Stall != want.Stall {
		t.Errorf("%s: stall = %d, cold solve of the same trace has %d", context, got.Stall, want.Stall)
	}
	if diff := math.Abs(got.LP.LowerBound - want.LP.LowerBound); diff > 1e-6*(1+math.Abs(want.LP.LowerBound)) {
		t.Errorf("%s: lp.lower_bound = %v, cold solve has %v", context, got.LP.LowerBound, want.LP.LowerBound)
	}
}

// TestFrontSessionSticky drives a session through a single-backend front:
// the front pins a session ID, every operation reaches the backend, and the
// transcript counters advance.
func TestFrontSessionSticky(t *testing.T) {
	backend := newBackend(t)
	f, fs := newFront(t, []string{backend.URL}, nil)

	seq := []int{0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 1, 2}
	const k, fdist, disks = 3, 3, 1
	resp, body := postJSON(t, fs.URL+"/v1/session", mustMarshal(t, &service.SessionCreateRequest{
		ScheduleRequest: service.ScheduleRequest{
			Strategy: "lp-optimal", Seq: seq, K: k, F: fdist, Disks: disks,
		},
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sess frontSessionWire
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	if sess.Session == "" {
		t.Fatal("front did not pin a session ID")
	}
	if resp.Header.Get("X-Backend") != backend.URL {
		t.Errorf("create served by %q, want %q", resp.Header.Get("X-Backend"), backend.URL)
	}

	for step := 0; step < 3; step++ {
		ext := []int{step % 5, (step + 2) % 5}
		seq = append(seq, ext...)
		resp, body := postJSON(t, fs.URL+"/v1/session/"+sess.Session+"/extend",
			mustMarshal(t, &service.SessionExtendRequest{Requests: ext}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("extend %d: status %d: %s", step, resp.StatusCode, body)
		}
		var out frontSessionWire
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Length != len(seq) {
			t.Fatalf("extend %d: length %d, want %d", step, out.Length, len(seq))
		}
		checkSessionCosts(t, "extend", out.Result, seq, k, fdist, disks)
	}

	stats := f.Stats(t.Context())
	if stats.SessionCreates != 1 || stats.SessionsTracked != 1 {
		t.Errorf("front session counters: creates=%d tracked=%d, want 1/1",
			stats.SessionCreates, stats.SessionsTracked)
	}
	if stats.SessionReplays != 0 {
		t.Errorf("session_replays = %d without any backend loss", stats.SessionReplays)
	}

	req, err := http.NewRequest(http.MethodDelete, fs.URL+"/v1/session/"+sess.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var closed struct {
		Closed bool `json:"closed"`
	}
	err = json.NewDecoder(dresp.Body).Decode(&closed)
	dresp.Body.Close()
	if err != nil || dresp.StatusCode != http.StatusOK || !closed.Closed {
		t.Fatalf("close: status %d closed=%v err=%v", dresp.StatusCode, closed.Closed, err)
	}
	if st := f.Stats(t.Context()); st.SessionsTracked != 0 {
		t.Errorf("closed session still tracked (%d)", st.SessionsTracked)
	}
}

// frontSession is one live session driven by the chaos test.
type frontSession struct {
	id   string
	seq  []int
	home string // front name of the backend that served the last operation
}

// TestChaosSessionFailoverMidRun is the session e2e: live sessions spread
// over three backends, then the backend holding some of them is killed.
// Every subsequent extension must succeed — the front replays the lost
// sessions' transcripts onto survivors — and every served plan must stay
// cost-equivalent to the cold solve of its full trace.
func TestChaosSessionFailoverMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	fl := startChaosFleet(t, nil)
	const k, fdist, disks = 3, 3, 1
	rng := rand.New(rand.NewSource(7))

	extend := func(s *frontSession, blocks []int) (*http.Response, *frontSessionWire, []byte) {
		resp, body := postJSON(t, fl.url+"/v1/session/"+s.id+"/extend",
			mustMarshal(t, &service.SessionExtendRequest{Requests: blocks}))
		if resp.StatusCode != http.StatusOK {
			return resp, nil, body
		}
		var out frontSessionWire
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decoding extend response: %v", err)
		}
		s.seq = append(s.seq, blocks...)
		s.home = resp.Header.Get("X-Backend")
		return resp, &out, body
	}

	// Open sessions until every backend is home to at least one, so the kill
	// below is guaranteed to orphan some sessions and spare others.
	var sessions []*frontSession
	homes := map[string]int{}
	for len(homes) < 3 && len(sessions) < 24 {
		seq := make([]int, 14)
		for i := range seq {
			seq[i] = rng.Intn(6)
		}
		resp, body := postJSON(t, fl.url+"/v1/session", mustMarshal(t, &service.SessionCreateRequest{
			ScheduleRequest: service.ScheduleRequest{
				Strategy: "lp-optimal", Seq: seq, K: k, F: fdist, Disks: disks,
			},
		}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: status %d: %s", len(sessions), resp.StatusCode, body)
		}
		var out frontSessionWire
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		s := &frontSession{id: out.Session, seq: seq, home: resp.Header.Get("X-Backend")}
		sessions = append(sessions, s)
		homes[s.home]++
	}
	if len(homes) < 3 {
		t.Fatalf("sessions never spread over all 3 backends: %v", homes)
	}

	// A warm round before the kill: everyone extends in place.
	for i, s := range sessions {
		blocks := []int{rng.Intn(6), rng.Intn(6)}
		resp, out, body := extend(s, blocks)
		if out == nil {
			t.Fatalf("pre-kill extend %d: status %d: %s", i, resp.StatusCode, body)
		}
		checkSessionCosts(t, "pre-kill extend", out.Result, s.seq, k, fdist, disks)
	}

	// Kill the backend homing session 0; note the orphan count.
	victimURL := sessions[0].home
	victim := -1
	for i, name := range fl.names {
		if name == victimURL {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("no proxy matches home %q", victimURL)
	}
	orphans := 0
	for _, s := range sessions {
		if s.home == victimURL {
			orphans++
		}
	}
	fl.backends[victim].kill()
	t.Logf("killed backend %d (%s), orphaning %d/%d sessions", victim, victimURL, orphans, len(sessions))

	// Two post-kill rounds: every extension must succeed, the orphans coming
	// back via transcript replay onto survivors.
	replayed := 0
	for round := 0; round < 2; round++ {
		for i, s := range sessions {
			blocks := []int{rng.Intn(6)}
			resp, out, body := extend(s, blocks)
			if out == nil {
				t.Fatalf("post-kill round %d extend %d: status %d: %s", round, i, resp.StatusCode, body)
			}
			if resp.Header.Get("X-Front-Replayed") != "" {
				replayed++
			}
			if s.home == victimURL {
				t.Errorf("round %d session %d still served by the dead backend", round, i)
			}
			checkSessionCosts(t, "post-kill extend", out.Result, s.seq, k, fdist, disks)
		}
	}
	if replayed < orphans {
		t.Errorf("only %d extends were served via replay, want at least the %d orphans", replayed, orphans)
	}
	stats := fl.front.Stats(t.Context())
	if stats.SessionReplays < uint64(orphans) {
		t.Errorf("front counted %d session replays, want >= %d", stats.SessionReplays, orphans)
	}
	if stats.SessionCreates != uint64(len(sessions)) {
		t.Errorf("front counted %d session creates, want %d", stats.SessionCreates, len(sessions))
	}
}
