package front_test

// Numeric-chaos e2e: the same three-backend fleet as the network chaos
// tests, but the faults live inside the solver rather than on the wire.  A
// NumericInjector corrupts factorizations, reported objectives and
// refactorizations across every in-process backend (the lp fault hook is
// process-global); the invariant is the PR's tentpole guarantee extended
// downward: clients see zero errors and byte-identical bodies even when the
// arithmetic itself lies, because every served solve carries a verified
// certificate and damaged solves are re-run down the engine cascade.

import (
	"bytes"
	"net/http"
	"testing"

	"pfcache/internal/faultinject"
	"pfcache/internal/front"
	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// numericChaosRequests mirrors chaosRequests but skews heavily toward
// lp-optimal: numeric faults can only bite solves, so the replay needs many
// distinct LP shapes (distinct n, so warm bases never carry between them).
func numericChaosRequests(t *testing.T) (reqs [][]byte, refs [][]byte) {
	t.Helper()
	set := []*service.ScheduleRequest{
		zipfSchedule("lp-optimal", 30, 21),
		zipfSchedule("lp-optimal", 28, 22),
		zipfSchedule("lp-optimal", 26, 23),
		zipfSchedule("lp-optimal", 24, 24),
		zipfSchedule("lp-optimal", 22, 25),
		zipfSchedule("lp-optimal", 20, 26),
		zipfSchedule("lp-optimal", 18, 27),
		zipfSchedule("lp-optimal", 16, 28),
		zipfSchedule("lp-optimal", 14, 29),
		zipfSchedule("aggressive", 40, 30),
		zipfSchedule("demand-lru", 36, 31),
		zipfSchedule("opt", 12, 32),
	}
	for i, r := range set {
		// References must be computed before any injector installs: the lp
		// fault hook is process-global and would corrupt these solves too.
		want, err := service.ScheduleBody(r, lp.Options{WarmStart: true})
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		reqs = append(reqs, mustMarshal(t, r))
		refs = append(refs, want)
	}
	return reqs, refs
}

// fleetLP sums the verify_failures and cascade_fallbacks counters of the
// fleet's live backends (each backend's /v1/stats counts its own solves).
func fleetLP(fl *chaosFleet) (total service.LPCountersWire) {
	for _, b := range fl.backends {
		b.mu.Lock()
		svc := b.svc
		b.mu.Unlock()
		if svc != nil {
			c := svc.Stats().LP
			total.VerifyFailures += c.VerifyFailures
			total.CascadeFallbacks += c.CascadeFallbacks
		}
	}
	return total
}

// fleetSolverResets sums solver_resets across the fleet's live backends.
func fleetSolverResets(fl *chaosFleet) uint64 {
	var total uint64
	for _, b := range fl.backends {
		b.mu.Lock()
		svc := b.svc
		b.mu.Unlock()
		if svc != nil {
			total += svc.Stats().SolverResets
		}
	}
	return total
}

// TestChaosNumericFaultsInvisible floods every backend's solver with numeric
// faults — every second top-level solve is corrupted, far past the ISSUE's
// 1%-of-solves floor — and requires every client response to stay 200 and
// byte-identical to the clean references, with the damage visible only in
// the counters: verify_failures and cascade_fallbacks must rise, and at
// least one tainted shard solver must have been discarded.
func TestChaosNumericFaultsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	fl := startChaosFleet(t, nil)
	reqs, refs := numericChaosRequests(t)

	before := fleetLP(fl)
	inj := faultinject.NewNumericInjector(2)
	inj.Install()
	defer inj.Uninstall()

	replay(t, fl.url, reqs, refs, 6, 10, nil)
	inj.Uninstall()

	faulted := inj.Miscomputes.Load() + inj.Corruptions.Load() + inj.Singulars.Load()
	if faulted == 0 {
		t.Fatal("no numeric faults were injected — the run proved nothing")
	}
	if inj.Miscomputes.Load() == 0 {
		t.Error("fault rotation never corrupted a reported objective")
	}
	after := fleetLP(fl)
	if after.VerifyFailures == before.VerifyFailures {
		t.Error("corrupted solves left no verify_failures — certificates never caught the damage")
	}
	if after.CascadeFallbacks == before.CascadeFallbacks {
		t.Error("corrupted solves left no cascade_fallbacks — nothing was re-solved")
	}
	if fleetSolverResets(fl) == 0 {
		t.Error("no tainted shard solver was discarded")
	}
	t.Logf("healed %d numeric faults (%d miscomputes, %d corruptions, %d singulars) invisibly: +%d verify_failures, +%d cascade_fallbacks, %d solver resets",
		faulted, inj.Miscomputes.Load(), inj.Corruptions.Load(), inj.Singulars.Load(),
		after.VerifyFailures-before.VerifyFailures,
		after.CascadeFallbacks-before.CascadeFallbacks,
		fleetSolverResets(fl))
}

// TestChaosNumericExhaustionRetried proves the unrecoverable path heals one
// tier up: a cascade exhausted on every rung surfaces from the backend as a
// typed 500, which the front treats as retryable — the client still sees a
// 200 with the clean bytes, and the only traces are a front retry and a
// backend solver reset.
func TestChaosNumericExhaustionRetried(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	fl := startChaosFleet(t, func(o *front.Options) {
		// No organic flakiness in this run: every retry the front counts must
		// come from the injected exhaustion.
		o.MaxAttempts = 4
	})
	req := zipfSchedule("lp-optimal", 34, 99)
	ref, err := service.ScheduleBody(req, lp.Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.NewNumericInjector(1 << 30) // cadence off: exhaustion only
	inj.Install()
	defer inj.Uninstall()
	inj.InjectExhaustion(1)

	resp, payload := postJSON(t, fl.url+"/v1/schedule", mustMarshal(t, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("client saw status %d (%.200s), want the exhaustion absorbed by a retry", resp.StatusCode, payload)
	}
	if !bytes.Equal(payload, ref) {
		t.Fatalf("retried response differs from the clean reference:\n got %s\nwant %s", payload, ref)
	}
	if inj.Exhaustions.Load() != 1 {
		t.Fatalf("exhaustion fault fired %d times, want exactly 1", inj.Exhaustions.Load())
	}
	stats := fl.front.Stats(t.Context())
	if stats.Retries == 0 {
		t.Error("front counted no retries — the typed 500 was never retried")
	}
	if fleetSolverResets(fl) == 0 {
		t.Error("the exhausted backend never reset its shard solver")
	}
}
