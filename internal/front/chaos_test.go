package front_test

// End-to-end chaos tests: a real front tier over three real backends, each
// behind a faultinject.Proxy, with backends killed and restarted and faults
// injected mid-run.  The invariant under test is the tentpole guarantee:
// clients of the front see zero errors and byte-identical responses no
// matter what the fleet does underneath.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pfcache/internal/faultinject"
	"pfcache/internal/front"
	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// chaosBackend is a pcserve-equivalent backend that can be killed and
// restarted on the same address, like a real process under a supervisor.
type chaosBackend struct {
	addr string // fixed after the first start

	mu   sync.Mutex
	svc  *service.Server
	hsrv *http.Server
}

func startChaosBackend(t *testing.T) *chaosBackend {
	t.Helper()
	b := &chaosBackend{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.serve(ln)
	t.Cleanup(b.kill)
	return b
}

func (b *chaosBackend) serve(ln net.Listener) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// A generous queue so chaos load never sheds: every non-200 in these
	// tests must come from an injected fault, not organic overload.
	b.svc = service.NewServer(service.Options{Shards: 2, QueueDepth: 1024, CacheEntries: 128})
	b.hsrv = &http.Server{Handler: b.svc}
	go b.hsrv.Serve(ln)
}

// kill stops the listener and tears down every open connection, exactly what
// clients observe of a SIGKILLed process.
func (b *chaosBackend) kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.hsrv == nil {
		return
	}
	b.hsrv.Close()
	b.svc.Close()
	b.hsrv, b.svc = nil, nil
}

// restart brings a fresh backend up on the same address — with a cold cache
// and cold solvers, as a restarted process would have.
func (b *chaosBackend) restart(t *testing.T) {
	t.Helper()
	b.kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", b.addr)
		if err == nil {
			b.serve(ln)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not re-listen on %s: %v", b.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (b *chaosBackend) url() string { return "http://" + b.addr }

// chaosFleet is three restartable backends, each behind a chaos proxy, with
// a front routing over the proxies.
type chaosFleet struct {
	backends []*chaosBackend
	proxies  []*faultinject.Proxy
	names    []string // the front's name for each proxy, as in X-Backend
	front    *front.Front
	url      string // front base URL
}

// startChaosFleet starts the fleet.  The front knows the backends by the
// quickstart fleet's fixed names, which its client dials through to the
// proxies' loopback ports: the ring places backends by name, so every run
// routes each request to the same backend instead of one drawn by the
// random ports.
func startChaosFleet(t *testing.T, mod func(*front.Options)) *chaosFleet {
	t.Helper()
	fl := &chaosFleet{}
	dial := map[string]string{} // name's host:port -> proxy's host:port
	for i := 0; i < 3; i++ {
		b := startChaosBackend(t)
		p := faultinject.New(b.url())
		t.Cleanup(p.Close)
		fl.backends = append(fl.backends, b)
		fl.proxies = append(fl.proxies, p)
		host := fmt.Sprintf("localhost:%d", 8081+i)
		dial[host] = strings.TrimPrefix(p.URL(), "http://")
		fl.names = append(fl.names, "http://"+host)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := dial[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}
	t.Cleanup(tr.CloseIdleConnections)
	f, fs := newFront(t, fl.names, func(o *front.Options) {
		o.Client = &http.Client{Transport: tr}
		o.MaxAttempts = 4
		o.AttemptTimeout = 10 * time.Second
		o.RequestTimeout = 30 * time.Second
		o.RetryBaseDelay = 5 * time.Millisecond
		o.RetryMaxDelay = 50 * time.Millisecond
		o.BreakerThreshold = 3
		o.BreakerCooldown = 100 * time.Millisecond
		if mod != nil {
			mod(o)
		}
	})
	fl.front, fl.url = f, fs.URL

	// Wait until the front has seen every backend healthy, so the run starts
	// from a known fleet state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fl.front.Stats(t.Context()).HealthyBackends == 3 {
			return fl
		}
		if time.Now().After(deadline) {
			t.Fatal("front never saw all 3 backends healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosRequests is the replayed request set: pairwise-distinct instance
// shapes (distinct n), so backend-side warm-started solvers cannot make a
// replay's LP iteration counts differ from the fresh-solver references.
func chaosRequests(t *testing.T) (reqs [][]byte, refs [][]byte) {
	t.Helper()
	set := []*service.ScheduleRequest{
		zipfSchedule("aggressive", 40, 11),
		zipfSchedule("conservative", 36, 12),
		zipfSchedule("combination", 32, 13),
		zipfSchedule("demand-lru", 28, 14),
		zipfSchedule("lp-optimal", 26, 15),
		zipfSchedule("lp-optimal", 22, 16),
		zipfSchedule("lp-optimal", 18, 17),
		zipfSchedule("opt", 13, 18),
	}
	for i, r := range set {
		want, err := service.ScheduleBody(r, lp.Options{WarmStart: true})
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		reqs = append(reqs, mustMarshal(t, r))
		refs = append(refs, want)
	}
	return reqs, refs
}

// replay drives `iters` rounds of the request set from `workers` concurrent
// clients, checking every response for status 200 and byte-identicality.
// After each completed request it calls tick(completed).
func replay(t *testing.T, url string, reqs, refs [][]byte, workers, iters int, tick func(int)) {
	t.Helper()
	var completed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters*len(reqs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (w + it) % len(reqs)
				resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(reqs[i]))
				if err != nil {
					errs <- fmt.Sprintf("worker %d iter %d: transport error: %v", w, it, err)
					continue
				}
				var body bytes.Buffer
				_, rerr := body.ReadFrom(resp.Body)
				resp.Body.Close()
				switch {
				case rerr != nil:
					errs <- fmt.Sprintf("worker %d iter %d: body read: %v", w, it, rerr)
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Sprintf("worker %d iter %d: status %d: %.200s", w, it, resp.StatusCode, body.String())
				case !bytes.Equal(body.Bytes(), refs[i]):
					errs <- fmt.Sprintf("worker %d iter %d: request %d body differs from reference", w, it, i)
				}
				if tick != nil {
					tick(int(completed.Add(1)))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	n := 0
	for e := range errs {
		n++
		if n <= 10 {
			t.Error(e)
		}
	}
	if n > 10 {
		t.Errorf("... and %d more client-visible errors", n-10)
	}
}

// TestChaosKillRestartMidRun is the headline e2e: three backends serve a
// concurrent replay; one is killed a third of the way in and restarted (cold)
// two thirds in.  Clients must see zero errors and byte-identical bodies.
func TestChaosKillRestartMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	fl := startChaosFleet(t, nil)
	reqs, refs := chaosRequests(t)

	const workers, iters = 8, 15
	total := workers * iters
	var killed, restarted atomic.Bool
	var mu sync.Mutex // serialises kill/restart against each other
	victim := -1      // guarded by mu
	replay(t, fl.url, reqs, refs, workers, iters, func(done int) {
		switch {
		case done >= total/3 && killed.CompareAndSwap(false, true):
			mu.Lock()
			// Kill the backend the front has sent the most requests: the
			// ring decides which backends own the eight request keys, and
			// killing one that owns none of them would test nothing.
			st := fl.front.Stats(t.Context())
			victim = 0
			for i, b := range st.Backends {
				if b.Requests > st.Backends[victim].Requests {
					victim = i
				}
			}
			fl.backends[victim].kill()
			mu.Unlock()
			t.Logf("killed backend %d after %d/%d requests", victim, done, total)
		case done >= 2*total/3 && killed.Load() && restarted.CompareAndSwap(false, true):
			mu.Lock()
			fl.backends[victim].restart(t)
			mu.Unlock()
			t.Logf("restarted backend %d after %d/%d requests", victim, done, total)
		}
	})
	if !killed.Load() || !restarted.Load() {
		t.Fatalf("kill/restart never triggered (killed=%v restarted=%v)", killed.Load(), restarted.Load())
	}

	// The kill must have bitten, one way or the other: either a request hit
	// the dead backend and was retried elsewhere, or the health checker
	// observed the death (and later the revival) and routed around it.
	// Neither signal alone is guaranteed — they race — but both absent means
	// the dead window was never exercised.
	stats := fl.front.Stats(t.Context())
	if stats.Retries == 0 && stats.Backends[victim].Transitions == 0 {
		t.Error("no retries and no health transitions on the killed backend — the kill never bit")
	}
	if stats.Requests != uint64(total) {
		t.Errorf("front counted %d requests, want %d", stats.Requests, total)
	}

	// And the restarted backend must rejoin the healthy set.
	deadline := time.Now().Add(5 * time.Second)
	for fl.front.Stats(t.Context()).HealthyBackends != 3 {
		if time.Now().After(deadline) {
			t.Fatal("restarted backend never rejoined the healthy set")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosInjectedFaultsInvisible floods the proxies with resets, 500s,
// truncations and latency; every client request must still succeed with a
// byte-identical body.
func TestChaosInjectedFaultsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	// Flakiness (not outage) is the regime here: give requests their full
	// candidate walk twice over rather than letting simultaneous fault hits
	// trip every breaker and strand a request with a single short round.
	fl := startChaosFleet(t, func(o *front.Options) {
		o.MaxAttempts = 6
		o.BreakerThreshold = 12
	})
	reqs, refs := chaosRequests(t)

	fl.proxies[2].SetLatency(10 * time.Millisecond)

	// Faults arrive spread across the run — every few completions one more
	// reset, 500 or truncation lands on a rotating proxy — the way a flaky
	// fleet actually fails.  (An all-at-once barrage that outnumbers a
	// request's whole retry budget is an outage, not flakiness; the
	// kill/restart test covers that regime.)
	var injected atomic.Int64
	replay(t, fl.url, reqs, refs, 6, 10, func(done int) {
		if done%6 != 0 {
			return
		}
		k := int(injected.Add(1))
		p := fl.proxies[k%len(fl.proxies)]
		switch (k / len(fl.proxies)) % 3 {
		case 0:
			p.InjectResets(1)
		case 1:
			p.InjectStatus500(1)
		default:
			p.InjectTruncations(1)
		}
	})

	var resets, statuses, truncs int64
	for _, p := range fl.proxies {
		resets += p.Resets.Load()
		statuses += p.Statuses.Load()
		truncs += p.Truncations.Load()
	}
	if resets == 0 || statuses == 0 || truncs == 0 {
		t.Errorf("fault budgets not exercised (resets=%d statuses=%d truncations=%d) — the run proved nothing",
			resets, statuses, truncs)
	}
	t.Logf("survived %d resets, %d injected 500s, %d truncations invisibly", resets, statuses, truncs)
}
