package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync/atomic"
	"time"

	"pfcache/internal/experiments"
	"pfcache/internal/lp"
	"pfcache/internal/opt"
)

// Options configures a Server.
type Options struct {
	// Shards is the number of worker shards (0 = one per CPU).
	Shards int
	// QueueDepth bounds each shard's backlog; a full queue sheds further
	// requests with 503 + Retry-After instead of queueing unboundedly
	// (0 = a small default).
	QueueDepth int
	// CacheEntries bounds the schedule-response LRU cache (0 disables it).
	CacheEntries int
	// ScheduleTimeout bounds one schedule computation server-side; a request
	// exceeding it fails with 504 (0 = no server-imposed deadline — client
	// disconnects still cancel).
	ScheduleTimeout time.Duration
	// Solver is the simplex implementation for schedule and session
	// requests (zero value = lp.MethodRevised).  Sweeps name their own.
	Solver lp.Method
	// Pricing is the revised simplex's entering-column rule for schedule
	// and session requests (zero value = lp.PricingSteepestEdge).  Sweeps
	// pin their own rule — see experiments.Config.
	Pricing lp.Pricing
	// Basis is the revised simplex's basis representation for schedule and
	// session requests (zero value = lp.BasisLU).
	Basis lp.BasisMethod
	// Workers is the experiment pool size of sweeps whose request leaves
	// workers at 0 (0 = one worker per CPU).
	Workers int
	// SessionEntries bounds the number of live planning sessions; beyond it
	// the least-recently-used session is dropped (0 = 256).
	SessionEntries int
	// SessionTTL is a session's idle lifetime; one untouched for longer is
	// expired (0 = 15 minutes).
	SessionTTL time.Duration
}

// Server is the sharded sweep service.  It implements http.Handler.
//
// Schedule, session and sweep requests run side by side without a lock
// between them: each sweep runs on its own experiments.Config with fresh
// counter sinks, so its body counts its own solver work exactly, while
// schedules and sessions count theirs in their shard's sinks.  /v1/stats
// sums the shard sinks and the work of finished sweeps.
type Server struct {
	opts     Options
	pool     *shardPool
	cache    *lruCache
	flight   *flightGroup
	sessions *sessionStore
	mux      *http.ServeMux

	// sweepLP and sweepOpt hold the counters of every finished sweep.
	sweepLP  lp.Stats
	sweepOpt opt.Stats

	ready    atomic.Bool // shards started; flips /readyz to 200
	draining atomic.Bool // drain begun; flips /readyz back to 503

	computed atomic.Uint64 // schedule computations actually performed
	sweeps   atomic.Uint64
	canceled atomic.Uint64 // requests abandoned by their client
	timeouts atomic.Uint64 // requests that hit the server-side deadline
	panics   atomic.Uint64 // handler panics converted to 500s

	sessCreates  atomic.Uint64 // sessions opened
	sessExtends  atomic.Uint64 // session extensions served
	sessCloses   atomic.Uint64 // sessions explicitly closed
	sessRebuilds atomic.Uint64 // extensions answered by a cold transcript replay
}

// NewServer builds a server and starts its shard goroutines.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:     opts,
		pool:     newShardPool(opts.Shards, opts.QueueDepth),
		cache:    newLRUCache(opts.CacheEntries),
		flight:   newFlightGroup(),
		sessions: newSessionStore(opts.SessionEntries, opts.SessionTTL),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/session/{id}/extend", s.handleSessionExtend)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionClose)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.ready.Store(true)
	return s
}

// ServeHTTP dispatches to the service endpoints.  A panic escaping a handler
// is converted into a 500 (and counted) instead of killing the connection's
// goroutine with a stack trace as the only evidence.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("service: internal panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips the server to draining: /readyz answers 503 so load
// balancers and front tiers stop routing here, while in-flight and
// still-arriving requests are served normally.  The caller is expected to
// stop the listener (http.Server.Shutdown) after the traffic moves away,
// then Close the server.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the shard goroutines.  In-flight requests complete first; no
// new requests may be served afterwards.
func (s *Server) Close() { s.pool.close() }

// Stats returns a snapshot of the service counters, embedding the LP-solver
// and exact-search counters of this server's work — every shard's schedule
// and session solves plus every finished sweep — so a live server's solver
// work is visible without running a sweep.  The counters sum, except opt's
// peak_table and workers, which are the largest values seen.
func (s *Server) Stats() StatsResponse {
	var lps lp.Stats
	var opts opt.Stats
	for _, sh := range s.pool.shards {
		lps.Add(sh.lp.Snapshot())
		opts.Add(sh.opt.Snapshot())
	}
	lps.Add(s.sweepLP.Snapshot())
	opts.Add(s.sweepOpt.Snapshot())
	return StatsResponse{
		Shards:             s.pool.size(),
		CacheEntries:       s.cache.len(),
		CacheHits:          s.cache.hits.Load(),
		CacheMisses:        s.cache.misses.Load(),
		Coalesced:          s.flight.coalesced.Load(),
		Evictions:          s.cache.evictions.Load(),
		Computed:           s.computed.Load(),
		Sweeps:             s.sweeps.Load(),
		Shed:               s.pool.shed.Load(),
		Panics:             s.pool.panics.Load() + s.panics.Load(),
		Canceled:           s.canceled.Load(),
		Timeouts:           s.timeouts.Load(),
		Draining:           s.draining.Load(),
		SolverResets:       s.pool.resets.Load(),
		Sessions:           s.sessions.len(),
		SessionCreates:     s.sessCreates.Load(),
		SessionExtends:     s.sessExtends.Load(),
		SessionCloses:      s.sessCloses.Load(),
		SessionEvictions:   s.sessions.evictions.Load(),
		SessionExpirations: s.sessions.expirations.Load(),
		SessionRebuilds:    s.sessRebuilds.Load(),
		LP:                 lpCountersWire(lps.Snapshot()),
		Opt:                optCountersWire(opts.Snapshot()),
	}
}

// httpError reports err with the given status as a JSON body.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeBody decodes a bounded JSON request body, distinguishing "too large"
// (413, the body exceeded maxRequestBody) from "malformed" (400).
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(dst)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("service: request body exceeds %d bytes", tooLarge.Limit))
		return false
	}
	httpError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
	return false
}

// scheduleKey is the cache/coalescing key of a schedule request: the
// strategy, the response shape, and the full canonical instance encoding
// (not its hash, so distinct instances can never collide in the cache).
func scheduleKey(req *ScheduleRequest, canonical []byte) string {
	b := make([]byte, 0, len(req.Strategy)+3+len(canonical))
	b = append(b, req.Strategy...)
	b = append(b, '|')
	if req.IncludeSchedule {
		b = append(b, 's')
	}
	b = append(b, '|')
	b = append(b, canonical...)
	return string(b)
}

// ScheduleBody computes the marshalled response body for a schedule request,
// bypassing cache, shards and HTTP.  It is the sequential reference the
// end-to-end tests compare the served bytes against.
func ScheduleBody(req *ScheduleRequest, opts lp.Options) ([]byte, error) {
	in, err := req.BuildInstance()
	if err != nil {
		return nil, err
	}
	resp, err := ComputeSchedule(context.Background(), in, req.Strategy, req.IncludeSchedule, nil, opts, opt.Options{})
	if err != nil {
		return nil, err
	}
	return marshalBody(resp)
}

// marshalBody renders a schedule response exactly as the handler writes it.
func marshalBody(resp *ScheduleResponse) ([]byte, error) {
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// maxRequestBody caps request bodies: far above any realistic instance spec
// (an explicit million-request sequence fits comfortably), low enough that a
// hostile client cannot drive the decoder to exhaust memory.
const maxRequestBody = 16 << 20

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Strategy == "" {
		httpError(w, http.StatusBadRequest, errors.New("service: strategy must be set"))
		return
	}
	in, err := req.BuildInstance()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if s.opts.ScheduleTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.ScheduleTimeout)
		defer cancel()
	}

	// A request whose deadline has already passed (or whose client is gone)
	// fails up front rather than racing a fast computation to the line.
	if err := ctx.Err(); err != nil {
		s.writeScheduleError(w, ctx, err)
		return
	}

	// Encode the instance once; the bytes feed the cache key and, hashed,
	// the shard selection.
	canonical := in.AppendCanonical(make([]byte, 0, 64+4*in.N()))
	key := scheduleKey(&req, canonical)
	if body, ok := s.cache.get(key); ok {
		writeCached(w, body, "hit")
		return
	}
	body, err, coalesced := s.flight.do(ctx, key, func(fctx context.Context) ([]byte, error) {
		// A duplicate may have finished between the cache lookup above and
		// winning this flight slot (its flight is deleted only after its
		// cache.put); re-checking here keeps the "duplicates never
		// re-solve" guarantee airtight.
		if b, ok := s.cache.peek(key); ok {
			return b, nil
		}
		var resp *ScheduleResponse
		err := s.pool.run(fctx, fnvSum(canonical), func(tctx context.Context, sh *shard) (bool, error) {
			// Each shard's batch keeps per-pattern warm bases; WarmStart
			// lets the next same-shaped lp-optimal instance on this shard
			// skip phase one (and a repeated instance — a cache miss after
			// eviction — skip the model rebuild and the solve's pivots
			// entirely).
			var cerr error
			resp, cerr = ComputeSchedule(tctx, in, req.Strategy, req.IncludeSchedule, sh.batch,
				lp.Options{Method: s.opts.Solver, Pricing: s.opts.Pricing,
					Basis: s.opts.Basis, WarmStart: true, Stats: &sh.lp},
				opt.Options{Stats: &sh.opt})
			if cerr != nil {
				// A numerical failure taints the batch even though the request
				// failed: whatever state drove the cascade to exhaustion must
				// not seed the next request's warm start or replay its
				// recorded factorizations.
				return numericFailure(cerr), cerr
			}
			// A solve the cascade had to downgrade succeeded, but the batch
			// that produced the failure is suspect; discard it.
			return resp.downgrades > 0, nil
		})
		if err != nil {
			return nil, err
		}
		s.computed.Add(1)
		b, merr := marshalBody(resp)
		if merr != nil {
			return nil, merr
		}
		s.cache.put(key, b)
		return b, nil
	})
	if err != nil {
		s.writeScheduleError(w, ctx, err)
		return
	}
	status := "miss"
	if coalesced {
		status = "coalesced"
	}
	writeCached(w, body, status)
}

// writeScheduleError maps a schedule computation failure to its HTTP shape:
// overload is 503 with a Retry-After hint, a server-side deadline is 504, a
// client disconnect is logged as a counter (the peer is gone; the status is
// moot), a recovered panic or an exhausted solve cascade is 500 (this
// replica's solver failed; another replica — or this one, after its shard
// solver is replaced — may well succeed, so front tiers retry it), and
// anything else is a 422 from the computation itself.
func (s *Server) writeScheduleError(w http.ResponseWriter, ctx context.Context, err error) {
	var pe *PanicError
	switch {
	case errors.Is(err, ErrShardBusy):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		httpError(w, http.StatusGatewayTimeout, errors.New("service: schedule deadline exceeded"))
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		httpError(w, statusClientClosedRequest, errors.New("service: request canceled"))
	case errors.As(err, &pe):
		httpError(w, http.StatusInternalServerError, err)
	case numericFailure(err):
		httpError(w, http.StatusInternalServerError, err)
	default:
		httpError(w, http.StatusUnprocessableEntity, err)
	}
}

// numericFailure reports whether err is a numerical-robustness failure of the
// LP solver — a cascade that ran out of engines, a pivot budget exhausted, or
// a result the certificate check rejected — as opposed to a problem with the
// request itself.  These taint the shard solver and surface as retryable
// 500s rather than 422s: the request is fine, this solver instance is not.
func numericFailure(err error) bool {
	var (
		ce *lp.CascadeExhaustedError
		pb *lp.PivotBudgetError
		ve *lp.VerificationError
	)
	return errors.As(err, &ce) || errors.As(err, &pb) || errors.As(err, &ve)
}

// statusClientClosedRequest is nginx's conventional status for "the client
// went away before the response": never seen by that client, but visible in
// logs and to proxies that time out more patiently than their callers.
const statusClientClosedRequest = 499

// writeCached writes a stored response body; the cache status travels in a
// header so hit, miss and coalesced bodies stay byte-identical.
func writeCached(w http.ResponseWriter, body []byte, status string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", status)
	w.Write(body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Malformed sweeps are the client's fault (400), not a failed run (422).
	if _, err := ResolveExperiments(req.IDs); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := lp.ParseMethod(solverName(req.Solver)); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	cfg := s.sweepConfig()
	resp, err := RunSweepWith(cfg, &req)
	s.sweepLP.Add(cfg.LPStats.Snapshot())
	s.sweepOpt.Add(cfg.OptStats.Snapshot())
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.sweeps.Add(1)
	w.Header().Set("Content-Type", "application/json")
	EncodeSweep(w, resp)
}

// sweepConfig is the base configuration of a sweep on this server: the
// server's experiment pool size, and fresh sinks whose totals the sweep
// reports before they are added to the server's.
func (s *Server) sweepConfig() experiments.Config {
	return experiments.Config{Workers: s.opts.Workers, LPStats: new(lp.Stats), OptStats: new(opt.Stats)}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []entry
	for _, e := range experiments.All() {
		out = append(out, entry{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// handleHealth is liveness: the process is up and serving HTTP.  It stays
// 200 through drain — a draining process is alive — so orchestrators do not
// kill a server that is deliberately finishing its work.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReady is readiness: 200 only when the shards are warm and the
// server is not draining.  Front tiers and load balancers route on this.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// fnvSum hashes the canonical instance bytes for shard selection; it is the
// same FNV-1a that core.Instance.Fingerprint computes, without re-encoding
// the instance.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
