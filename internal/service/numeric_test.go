package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pfcache/internal/faultinject"
	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// lpRequest is a small uncachable-by-accident lp-optimal request (seeded so
// repeated tests hit the same instance).
func lpRequest(seed int64) *service.ScheduleRequest {
	return &service.ScheduleRequest{
		Strategy:        "lp-optimal",
		Workload:        &service.WorkloadSpec{Kind: "uniform", N: 24, Blocks: 8, Seed: seed},
		K:               4,
		F:               3,
		Disks:           2,
		IncludeSchedule: true,
	}
}

func getStats(t *testing.T, client *http.Client, url string) map[string]any {
	t.Helper()
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScheduleHealsCorruptionInvisibly corrupts every solve's first cascade
// rung and requires the served response to be byte-identical to the clean
// reference, with the damage visible only in the stats counters: nonzero
// verify_failures and cascade_fallbacks in the lp block, and a solver reset
// for the tainted shard solver.
func TestScheduleHealsCorruptionInvisibly(t *testing.T) {
	req := lpRequest(11)
	// The reference must be computed before the injector goes live: the lp
	// fault hook is process-global.
	ref, err := service.ScheduleBody(req, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}

	srv := service.NewServer(service.Options{Shards: 1, CacheEntries: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inj := faultinject.NewNumericInjector(1)
	inj.Install()
	defer inj.Uninstall()

	body, _, status, err := postSchedule(ts.Client(), ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, ref) {
		t.Fatalf("healed response differs from the clean reference:\n got %s\nwant %s", body, ref)
	}
	inj.Uninstall()

	stats := srv.Stats()
	if stats.SolverResets == 0 {
		t.Error("tainted shard solver was not reset")
	}
	if inj.Miscomputes.Load() == 0 {
		t.Fatal("injector never corrupted an objective")
	}
	if stats.LP.VerifyFailures == 0 {
		t.Error("corruption left no verify_failures in stats")
	}
	if stats.LP.CascadeFallbacks == 0 {
		t.Error("recovery left no cascade_fallbacks in stats")
	}
}

// TestScheduleExhaustionTyped500 proves the unrecoverable path: a cascade
// exhausted on every rung surfaces as a 500 carrying the typed error string
// (so front tiers retry it), resets the shard solver, and the identical
// retried request — the fault was one-shot — succeeds with the clean bytes.
func TestScheduleExhaustionTyped500(t *testing.T) {
	req := lpRequest(13)
	ref, err := service.ScheduleBody(req, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}

	srv := service.NewServer(service.Options{Shards: 1, CacheEntries: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inj := faultinject.NewNumericInjector(1 << 30)
	inj.Install()
	defer inj.Uninstall()
	inj.InjectExhaustion(1)

	body, _, status, err := postSchedule(ts.Client(), ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("exhausted solve answered %d (%s), want 500", status, body)
	}
	if !strings.Contains(string(body), "lp: solve cascade exhausted") {
		t.Fatalf("500 body %q does not carry the typed cascade error", body)
	}
	if resets := srv.Stats().SolverResets; resets != 1 {
		t.Fatalf("solver_resets = %d after exhaustion, want 1", resets)
	}

	// The one-shot fault is spent: the same request must now succeed and
	// match the clean reference byte for byte (the failure was never cached).
	body, _, status, err = postSchedule(ts.Client(), ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !bytes.Equal(body, ref) {
		t.Fatalf("retry after exhaustion: status %d, body matches ref: %v", status, bytes.Equal(body, ref))
	}
}

// TestStatsWireFieldsGolden pins the new stats wire fields by their exact
// JSON names: external dashboards key on these strings, so renaming any of
// them is a breaking change this test makes loud.
func TestStatsWireFieldsGolden(t *testing.T) {
	srv := service.NewServer(service.Options{Shards: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	m := getStats(t, ts.Client(), ts.URL)
	if _, ok := m["solver_resets"]; !ok {
		t.Errorf("stats missing \"solver_resets\": %v", m)
	}
	lpBlock, ok := m["lp"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing lp block: %v", m)
	}
	for _, k := range []string{"phase1_pivots", "verified_solves", "verify_failures",
		"cascade_fallbacks", "symbolic_reuses", "numeric_refactors", "dual_pivots", "ft_updates"} {
		if _, ok := lpBlock[k]; !ok {
			t.Errorf("lp stats missing %q: %v", k, lpBlock)
		}
	}
	optBlock, ok := m["opt"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing opt block: %v", m)
	}
	for _, k := range []string{"searches", "expanded", "generated", "pruned_by_bound",
		"duplicate_hits", "pruned_by_dominance", "landmark_hits", "peak_table",
		"workers", "worker_expanded"} {
		if _, ok := optBlock[k]; !ok {
			t.Errorf("opt stats missing %q: %v", k, optBlock)
		}
	}
}
