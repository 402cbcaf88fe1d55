// Package front is the fault-tolerant multi-backend tier in front of a
// fleet of pcserve processes (command pcfront).
//
// Schedule requests are routed by consistent-hashing the instance's
// canonical fingerprint across the backends, so the same instance always
// lands on the same backend — keeping that backend's response cache and
// its shard's built models hot — while the surrounding machinery makes a
// single stuck, dead or overloaded backend invisible to clients:
//
//   - every request runs under a deadline, split into bounded attempts;
//   - a failed attempt (connection error, 5xx, truncated body) retries on
//     the next distinct backend in ring order, after an exponential backoff
//     with jitter;
//   - an active health checker polls each backend's /readyz with fail and
//     restore thresholds, steering routing away from dead backends between
//     requests;
//   - a per-backend circuit breaker fences backends that fail real traffic,
//     with a half-open probe after a cooldown;
//   - sweeps fan out per-experiment across the healthy backends and stream
//     each experiment's result as an NDJSON line the moment it completes, so
//     one slow backend or experiment cannot head-of-line-block the rest.
package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pfcache/internal/service"
)

// Options configures a Front.
type Options struct {
	// Backends are the pcserve base URLs (e.g. "http://10.0.0.1:8080").
	Backends []string
	// Replicas is the number of virtual ring points per backend (0 = 64).
	Replicas int

	// HealthInterval is the readiness poll period (0 = 1s); HealthTimeout
	// bounds one probe (0 = HealthInterval); HealthPath is the probed
	// endpoint (empty = "/readyz").
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	HealthPath     string
	// FailThreshold consecutive failed probes mark a backend unhealthy
	// (0 = 3); RestoreThreshold consecutive successes restore it (0 = 2).
	FailThreshold    int
	RestoreThreshold int

	// RequestTimeout is the overall per-request deadline across all retry
	// attempts (0 = 15s).  AttemptTimeout bounds a single attempt (0 = 5s,
	// clamped to the remaining budget).
	RequestTimeout time.Duration
	AttemptTimeout time.Duration
	// MaxAttempts is the total number of tries per request across backends
	// (0 = number of backends, at least 3).
	MaxAttempts int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (0 = 25ms); RetryMaxDelay caps it (0 = 1s).  Actual delays are
	// jittered to half-to-full of the nominal value.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// BreakerThreshold consecutive request failures open a backend's
	// circuit (0 = 5); BreakerCooldown is the open interval before a
	// half-open probe (0 = 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SweepTimeout is the overall deadline of one fanned-out sweep
	// (0 = 10min; experiments are slow compared to schedule requests).
	SweepTimeout time.Duration

	// StatsTimeout bounds each per-backend /v1/stats fetch during stats
	// aggregation (0 = 2s).  The fan-in runs the fetches concurrently, so
	// this is also roughly the worst-case latency one slow backend can add
	// to GET /v1/stats on the front.
	StatsTimeout time.Duration

	// SessionTranscripts bounds the session transcripts the front retains
	// for transparent replay after a backend loses a session (0 = 1024).
	SessionTranscripts int

	// Client overrides the HTTP client used for backend traffic and health
	// probes (nil = a client with sane timeouts).
	Client *http.Client
}

// backend is one pcserve replica plus its tracking state.
type backend struct {
	name string // base URL, also the ring identity
	hc   *healthChecker
	br   *breaker

	requests atomic.Uint64 // attempts sent to this backend
	failures atomic.Uint64 // attempts that failed (network, 5xx, truncation)
}

// Front routes requests across the backends.  It implements http.Handler.
type Front struct {
	opts        Options
	client      *http.Client
	backends    []*backend
	ring        *ring
	mux         *http.ServeMux
	transcripts *transcriptStore

	requests       atomic.Uint64 // schedule requests accepted
	retries        atomic.Uint64 // extra attempts beyond each request's first
	sweeps         atomic.Uint64 // fan-out sweeps served
	rr             atomic.Uint64 // round-robin cursor for non-affine work
	sessionCreates atomic.Uint64 // sessions opened through this front
	sessionReplays atomic.Uint64 // sessions rebuilt on a backend by transcript replay
}

// New builds a front tier over the given backends and starts the health
// checkers.  Close must be called to stop them.
func New(opts Options) (*Front, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("front: at least one backend is required")
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 15 * time.Second
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 5 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = max(3, len(opts.Backends))
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 25 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = time.Second
	}
	if opts.SweepTimeout <= 0 {
		opts.SweepTimeout = 10 * time.Minute
	}
	if opts.StatsTimeout <= 0 {
		opts.StatsTimeout = 2 * time.Second
	}
	if opts.HealthPath == "" {
		opts.HealthPath = "/readyz"
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}

	f := &Front{opts: opts, client: client, mux: http.NewServeMux(),
		transcripts: newTranscriptStore(opts.SessionTranscripts)}
	names := make([]string, len(opts.Backends))
	for i, raw := range opts.Backends {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		if name == "" {
			return nil, fmt.Errorf("front: backend %d has an empty URL", i)
		}
		names[i] = name
		b := &backend{
			name: name,
			hc: newHealthChecker(name+opts.HealthPath, client,
				opts.HealthInterval, opts.HealthTimeout,
				opts.FailThreshold, opts.RestoreThreshold),
			br: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		}
		f.backends = append(f.backends, b)
	}
	f.ring = newRing(names, opts.Replicas)

	f.mux.HandleFunc("POST /v1/schedule", f.handleSchedule)
	f.mux.HandleFunc("POST /v1/session", f.handleSessionCreate)
	f.mux.HandleFunc("POST /v1/session/{id}/extend", f.handleSessionExtend)
	f.mux.HandleFunc("DELETE /v1/session/{id}", f.handleSessionClose)
	f.mux.HandleFunc("POST /v1/sweep", f.handleSweep)
	f.mux.HandleFunc("GET /v1/stats", f.handleStats)
	f.mux.HandleFunc("GET /healthz", f.handleHealth)
	f.mux.HandleFunc("GET /readyz", f.handleReady)

	for _, b := range f.backends {
		b.hc.run()
	}
	return f, nil
}

// Close stops the health checkers.
func (f *Front) Close() {
	for _, b := range f.backends {
		b.hc.close()
	}
}

// ServeHTTP dispatches to the front endpoints, converting handler panics
// into 500s.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("front: internal panic: %v", rec))
		}
	}()
	f.mux.ServeHTTP(w, r)
}

// httpError reports err with the given status as a JSON body, mirroring the
// backend's error shape.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// maxRequestBody mirrors the backends' request-body bound: oversized bodies
// are refused at the edge instead of being proxied inward.
const maxRequestBody = 16 << 20

// bufferedResponse is one backend's reply, fully read into memory.  Reading
// the whole body before touching the client's connection is what lets the
// front retry a mid-body truncation invisibly: nothing is sent downstream
// until a complete, consistent reply is in hand.
type bufferedResponse struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

// errShortBody marks a reply whose body ended before its declared length.
var errShortBody = errors.New("front: backend response truncated")

// attempt sends one request to one backend and reads the reply fully.
// A nil error with status >= 500 is still a failed attempt for the caller.
func (f *Front) attempt(ctx context.Context, b *backend, method, path string, body []byte) (*bufferedResponse, error) {
	actx, cancel := context.WithTimeout(ctx, f.opts.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, b.name+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	b.requests.Add(1)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errShortBody, err)
	}
	if resp.ContentLength >= 0 && int64(len(payload)) != resp.ContentLength {
		return nil, errShortBody
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: payload, backend: b.name}, nil
}

// forward runs the retry loop: try candidates (backend indices in preference
// order) under ctx's deadline, skipping unhealthy/tripped backends while any
// viable one remains, backing off with jitter between attempts.  It returns
// the first complete non-5xx reply.  `retried` reports whether extra
// attempts were spent.
func (f *Front) forward(ctx context.Context, candidates []int, method, path string, body []byte) (*bufferedResponse, bool, error) {
	var lastErr error
	attempts := 0
	retried := false
	// Round 0 respects health and breaker state; if that filters everyone
	// out (mass outage, cold breakers), a final unfiltered round gives the
	// request its last chance instead of failing without trying.
	for round := 0; round < 2 && attempts < f.opts.MaxAttempts; round++ {
		for _, idx := range candidates {
			if attempts >= f.opts.MaxAttempts {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, retried, fmt.Errorf("front: request deadline exhausted after %d attempts: %w (last: %v)", attempts, err, lastErr)
			}
			b := f.backends[idx]
			if round == 0 {
				if !b.hc.healthy.Load() {
					continue
				}
				if !b.br.allow() {
					continue
				}
			}
			if attempts > 0 {
				retried = true
				f.retries.Add(1)
				f.backoff(ctx, attempts-1)
			}
			attempts++
			resp, err := f.attempt(ctx, b, method, path, body)
			if err != nil {
				b.failures.Add(1)
				b.br.onFailure()
				lastErr = err
				continue
			}
			if resp.status >= 500 {
				// The backend answered but could not serve (shed, panic,
				// internal error): a failure for the breaker, a retryable
				// event for the request.
				b.failures.Add(1)
				b.br.onFailure()
				lastErr = fmt.Errorf("front: %s answered %d: %s", b.name, resp.status, strings.TrimSpace(string(resp.body)))
				continue
			}
			b.br.onSuccess()
			return resp, retried, nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("front: no backends available")
	}
	return nil, retried, fmt.Errorf("front: all %d attempts failed: %w", attempts, lastErr)
}

// backoff sleeps the jittered exponential delay for the given retry number,
// or returns early when ctx ends.
func (f *Front) backoff(ctx context.Context, retry int) {
	d := f.opts.RetryBaseDelay << uint(min(retry, 20))
	if d > f.opts.RetryMaxDelay {
		d = f.opts.RetryMaxDelay
	}
	// Jitter into [d/2, d): desynchronises a thundering herd of retries
	// after a backend death.
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// writeBuffered relays a buffered backend reply to the client, tagging which
// backend served it.
func writeBuffered(w http.ResponseWriter, resp *bufferedResponse) {
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if xc := resp.header.Get("X-Cache"); xc != "" {
		w.Header().Set("X-Cache", xc)
	}
	w.Header().Set("X-Backend", resp.backend)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

func (f *Front) handleSchedule(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("front: request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("front: reading request body: %w", err))
		return
	}
	// Decode and build the instance locally: it validates the request at
	// the edge (bad requests never consume a backend attempt) and yields
	// the canonical fingerprint the ring routes by.
	var req service.ScheduleRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("front: bad request body: %w", err))
		return
	}
	if req.Strategy == "" {
		httpError(w, http.StatusBadRequest, errors.New("front: strategy must be set"))
		return
	}
	in, err := req.BuildInstance()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	f.requests.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), f.opts.RequestTimeout)
	defer cancel()
	// The original raw bytes are forwarded (not a re-marshalling), so the
	// backend computes exactly the cache key a direct client would produce.
	resp, _, err := f.forward(ctx, f.ring.order(in.Fingerprint()), "POST", "/v1/schedule", raw)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusBadGateway, err)
		return
	}
	writeBuffered(w, resp)
}

// healthyOrder returns backend indices for non-affine work (sweeps, stats):
// healthy backends first, rotated by the round-robin cursor for spread, then
// the unhealthy ones as a last resort.
func (f *Front) healthyOrder(shift uint64) []int {
	var healthy, down []int
	for i, b := range f.backends {
		if b.hc.healthy.Load() {
			healthy = append(healthy, i)
		} else {
			down = append(down, i)
		}
	}
	if len(healthy) > 1 {
		k := int(shift % uint64(len(healthy)))
		healthy = append(healthy[k:], healthy[:k]...)
	}
	return append(healthy, down...)
}

// sweepLine is one NDJSON line of a fanned-out sweep: the experiment, the
// backend that ran it, and either its sweep result (the same SweepResponse
// JSON a direct /v1/sweep returns, compacted) or an error.
type sweepLine struct {
	ID      string          `json:"id"`
	Backend string          `json:"backend,omitempty"`
	Sweep   json.RawMessage `json:"sweep,omitempty"`
	Error   string          `json:"error,omitempty"`
}

func (f *Front) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req service.SweepRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("front: request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("front: bad request body: %w", err))
		return
	}
	exps, err := service.ResolveExperiments(req.IDs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	f.sweeps.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), f.opts.SweepTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex // one experiment's line at a time
	emit := func(line sweepLine) {
		wmu.Lock()
		defer wmu.Unlock()
		json.NewEncoder(w).Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Fan out one single-experiment sweep per experiment, spread round-robin
	// over the healthy backends, each with the full retry machinery.  Lines
	// stream in completion order: a slow experiment (or a slow backend)
	// delays only its own line.
	var wg sync.WaitGroup
	for _, e := range exps {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			one := req
			one.IDs = []string{id}
			body, merr := json.Marshal(&one)
			if merr != nil {
				emit(sweepLine{ID: id, Error: merr.Error()})
				return
			}
			// The cursor alone spreads the fan-out: each goroutine draws a
			// distinct consecutive shift.  (Adding the loop index on top
			// would advance the shift by two per experiment, which for an
			// even healthy count degenerates to one backend.)
			resp, _, ferr := f.forward(ctx, f.healthyOrder(f.rr.Add(1)), "POST", "/v1/sweep", body)
			if ferr != nil {
				emit(sweepLine{ID: id, Error: ferr.Error()})
				return
			}
			if resp.status != http.StatusOK {
				emit(sweepLine{ID: id, Backend: resp.backend,
					Error: fmt.Sprintf("backend answered %d: %s", resp.status, strings.TrimSpace(string(resp.body)))})
				return
			}
			var compact bytes.Buffer
			if cerr := json.Compact(&compact, resp.body); cerr != nil {
				emit(sweepLine{ID: id, Backend: resp.backend, Error: cerr.Error()})
				return
			}
			emit(sweepLine{ID: id, Backend: resp.backend, Sweep: compact.Bytes()})
		}(e.ID)
	}
	wg.Wait()
}

func (f *Front) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReady: the front is ready when at least one backend is healthy.
func (f *Front) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, b := range f.backends {
		if b.hc.healthy.Load() {
			fmt.Fprintln(w, "ok")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "no healthy backends")
}

func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(f.Stats(r.Context()))
}
