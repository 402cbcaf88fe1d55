package service

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
)

// This file is the session mode of /v1/schedule: a client whose reference
// trace evolves opens a session over its current instance, then extends the
// trace one suffix at a time, and each extension is re-planned incrementally
// — the session's LP model grows in place (lpmodel.Model.Extend) and the
// dual simplex re-optimises from the previous optimal basis (lp.Options.Dual)
// instead of rebuilding and re-solving the whole program.  Extensions that
// outgrow the model (brand-new blocks), numeric taints, evictions and
// restarts all fall back to a cold rebuild of the full trace.  The responses
// are assembled by the same code path as one-shot lp-optimal requests, and
// every session solve runs under the verification cascade, so a session
// serves a plan cost-equivalent to what a cold /v1/schedule of the full
// extended trace would: the same certified LP bound and the same stall.  (On
// a degenerate LP the warm solve may reach a different equal-cost optimal
// vertex, so the fetch-by-fetch schedule detail may differ between two plans
// of identical certified cost.)

// errUnknownSession marks a session ID the store does not hold — never
// created here, closed, evicted or expired.  It surfaces as a 404, which a
// session-aware front tier treats as "replay the transcript".
var errUnknownSession = errors.New("service: unknown session")

// defaultSessionEntries bounds the live sessions when Options.SessionEntries
// is zero; defaultSessionTTL is the idle lifetime when Options.SessionTTL is.
const (
	defaultSessionEntries = 256
	defaultSessionTTL     = 15 * time.Minute
)

// session is one evolving-trace planning session: the creation-time instance,
// the transcript of accepted extensions, and the LP model and dedicated
// solver that carry the warm state from solve to solve.  Every operation for
// a session ID hashes to the same shard, and all fields below hash are
// touched only on that shard's goroutine, so the struct needs no lock.
type session struct {
	id   string
	hash uint64

	base *core.Instance // immutable snapshot of the creation instance
	ext  []core.BlockID // accepted extensions in order: the replay transcript
	// regrow re-derives the instance from the full extended trace the way a
	// cold request would (same disk-assignment strategy and seed), so an
	// extension introducing brand-new blocks can rebuild transparently.  It is
	// nil when the session was created from an explicit instance description:
	// its disk layout is given verbatim and cannot be invented for new blocks,
	// so such extensions are rejected instead.
	regrow *ScheduleRequest

	model  *lpmodel.Model
	solver *lp.Solver
}

// rebuildFrom reconstructs the session's model for its full transcript — the
// base instance, every accepted extension, plus extra (the extension being
// applied, when it forces a structural rebuild) — and solves it cold with a
// brand-new solver, so nothing from before the rebuild survives.  It is the
// create path (empty transcript), the recovery path after a numeric taint,
// and the growth path for extensions naming new blocks: the incremental path
// is an acceleration only, and replaying the transcript cold re-derives the
// plan a cold request for the same trace would serve.
func (sess *session) rebuildFrom(ctx context.Context, extra []core.BlockID, opts lp.Options) (*lpmodel.Fractional, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var in *core.Instance
	if sess.regrow != nil {
		rg := *sess.regrow
		rg.Seq = make([]int, 0, len(sess.base.Seq)+len(sess.ext)+len(extra))
		for _, b := range sess.base.Seq {
			rg.Seq = append(rg.Seq, int(b))
		}
		for _, b := range sess.ext {
			rg.Seq = append(rg.Seq, int(b))
		}
		for _, b := range extra {
			rg.Seq = append(rg.Seq, int(b))
		}
		var err error
		if in, err = rg.BuildInstance(); err != nil {
			return nil, err
		}
	} else {
		in = sess.base.Clone()
		seq := make(core.Sequence, 0, len(sess.base.Seq)+len(sess.ext)+len(extra))
		seq = append(append(append(seq, sess.base.Seq...), sess.ext...), extra...)
		in.Seq = seq
	}
	m, err := lpmodel.Build(in)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	solver := lp.NewSolver()
	frac, err := m.SolveWith(solver, opts)
	if err != nil {
		return nil, err
	}
	sess.model, sess.solver = m, solver
	return frac, nil
}

// sessionStore is the bounded LRU+TTL registry of live sessions.
type sessionStore struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	evictions   atomic.Uint64 // sessions dropped to respect the LRU bound
	expirations atomic.Uint64 // sessions dropped for exceeding the idle TTL
}

// sessionEntry is one LRU node: the session plus its last-touched time.
type sessionEntry struct {
	sess *session
	last time.Time
}

func newSessionStore(max int, ttl time.Duration) *sessionStore {
	if max <= 0 {
		max = defaultSessionEntries
	}
	if ttl <= 0 {
		ttl = defaultSessionTTL
	}
	return &sessionStore{
		max:     max,
		ttl:     ttl,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the live session for id, touching it most-recently-used.  A
// session idle past the TTL is expired on the spot and reported missing.
func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[id]
	if !ok {
		return nil, false
	}
	e := el.Value.(*sessionEntry)
	if time.Since(e.last) > st.ttl {
		st.order.Remove(el)
		delete(st.entries, id)
		st.expirations.Add(1)
		return nil, false
	}
	e.last = time.Now()
	st.order.MoveToFront(el)
	return e.sess, true
}

// put registers a session (replacing any same-ID predecessor), evicting the
// least-recently-used sessions beyond the bound and any that sit expired at
// the cold end — so idle sessions are reclaimed even when nobody asks for
// them again.
func (st *sessionStore) put(sess *session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	for el := st.order.Back(); el != nil; el = st.order.Back() {
		e := el.Value.(*sessionEntry)
		if now.Sub(e.last) <= st.ttl {
			break
		}
		st.order.Remove(el)
		delete(st.entries, e.sess.id)
		st.expirations.Add(1)
	}
	if el, ok := st.entries[sess.id]; ok {
		el.Value.(*sessionEntry).sess = sess
		el.Value.(*sessionEntry).last = now
		st.order.MoveToFront(el)
		return
	}
	for st.order.Len() >= st.max {
		oldest := st.order.Back()
		st.order.Remove(oldest)
		delete(st.entries, oldest.Value.(*sessionEntry).sess.id)
		st.evictions.Add(1)
	}
	st.entries[sess.id] = st.order.PushFront(&sessionEntry{sess: sess, last: now})
}

// remove drops the session for id, reporting whether it was live.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[id]
	if !ok {
		return false
	}
	st.order.Remove(el)
	delete(st.entries, id)
	return true
}

// len returns the number of live sessions.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}

// newSessionID draws a random 128-bit hex session identifier.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// sessionLPOptions is the solver configuration of every session solve: the
// server's engines under the verification cascade, like any served solve,
// counted in the sinks of the shard the session lives on.
func (s *Server) sessionLPOptions(sh *shard) lp.Options {
	return lp.Options{Method: s.opts.Solver, Cascade: true, Stats: &sh.lp}
}

// sessionCtx applies the server-side schedule deadline to a session request.
func (s *Server) sessionCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.ScheduleTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.ScheduleTimeout)
	}
	return r.Context(), func() {}
}

// sessionResponse assembles the schedule response served for a session's
// current trace, through the same helpers as the one-shot lp-optimal path.
func sessionResponse(ctx context.Context, m *lpmodel.Model, frac *lpmodel.Fractional, includeSchedule bool) (*ScheduleResponse, error) {
	resp := responseHeader(m.In, "lp-optimal")
	sched, err := lpSchedule(resp, m, frac)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := finishSchedule(resp, m.In, "lp-optimal", sched, includeSchedule); err != nil {
		return nil, err
	}
	return resp, nil
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Strategy != "" && req.Strategy != "lp-optimal" {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("service: sessions serve the lp-optimal strategy, not %q", req.Strategy))
		return
	}
	in, err := req.BuildInstance()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id := req.Session
	if id == "" {
		if id, err = newSessionID(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}

	ctx, cancel := s.sessionCtx(r)
	defer cancel()
	if err := ctx.Err(); err != nil {
		s.writeScheduleError(w, ctx, err)
		return
	}

	sess := &session{id: id, hash: fnvSum([]byte(id)), base: in.Clone()}
	if req.Instance == "" {
		rg := req.ScheduleRequest
		rg.Seq, rg.Workload = nil, nil
		sess.regrow = &rg
	}
	var out *SessionResponse
	err = s.pool.run(ctx, sess.hash, func(tctx context.Context, sh *shard) (bool, error) {
		frac, cerr := sess.rebuildFrom(tctx, nil, s.sessionLPOptions(sh))
		if cerr != nil {
			return false, cerr
		}
		resp, cerr := sessionResponse(tctx, sess.model, frac, req.IncludeSchedule)
		if cerr != nil {
			return false, cerr
		}
		out = &SessionResponse{Session: id, Length: sess.model.In.N(), Result: resp}
		return false, nil
	})
	if err != nil {
		s.writeScheduleError(w, ctx, err)
		return
	}
	s.sessions.put(sess)
	s.sessCreates.Add(1)
	writeJSON(w, out)
}

func (s *Server) handleSessionExtend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req SessionExtendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("service: extension must name at least one request"))
		return
	}
	blocks := make([]core.BlockID, len(req.Requests))
	for i, b := range req.Requests {
		if b < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("service: request %d: negative block %d", i, b))
			return
		}
		blocks[i] = core.BlockID(b)
	}
	sess, ok := s.sessions.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("%w %q", errUnknownSession, id))
		return
	}

	ctx, cancel := s.sessionCtx(r)
	defer cancel()
	if err := ctx.Err(); err != nil {
		s.writeScheduleError(w, ctx, err)
		return
	}

	var out *SessionResponse
	err := s.pool.run(ctx, sess.hash, func(tctx context.Context, sh *shard) (bool, error) {
		rebuilt := false
		var frac *lpmodel.Fractional
		var serr error
		// Extend validates every request before mutating anything, so a
		// rejected extension leaves the session exactly as it was.
		if eerr := sess.model.Extend(blocks...); eerr != nil {
			if !errors.Is(eerr, lpmodel.ErrExtendRebuild) || sess.regrow == nil {
				return false, eerr
			}
			// The extension names blocks the model has no variables for, so it
			// is not expressible as in-place growth.  The trace still evolves:
			// the instance is re-derived from the full extended trace exactly
			// as a cold request would build it, and the session continues from
			// the cold solve.
			rebuilt = true
			s.sessRebuilds.Add(1)
			if frac, serr = sess.rebuildFrom(tctx, blocks, s.sessionLPOptions(sh)); serr != nil {
				s.sessions.remove(sess.id)
				return false, serr
			}
			sess.ext = append(sess.ext, blocks...)
		} else {
			sess.ext = append(sess.ext, blocks...)
			frac, serr = sess.model.SolveIncremental(sess.solver, s.sessionLPOptions(sh))
			switch {
			case serr == nil && frac.Downgrades == 0:
				// The common case: a clean (usually warm) incremental solve.
			case serr != nil && !numericFailure(serr):
				return false, serr
			default:
				// The incremental solve failed numerically, or succeeded only
				// by cascading down the engine ladder: the model and solver
				// that were live during the failure are suspect, so the
				// session is rebuilt from its transcript and the request is
				// answered from the cold solve — the same plan, re-derived
				// from scratch.
				rebuilt = true
				s.sessRebuilds.Add(1)
				if frac, serr = sess.rebuildFrom(tctx, nil, s.sessionLPOptions(sh)); serr != nil {
					// Even the cold replay failed: the session is unusable.
					s.sessions.remove(sess.id)
					return false, serr
				}
			}
		}
		resp, cerr := sessionResponse(tctx, sess.model, frac, req.IncludeSchedule)
		if cerr != nil {
			return false, cerr
		}
		out = &SessionResponse{Session: sess.id, Length: sess.model.In.N(), Rebuilt: rebuilt, Result: resp}
		return false, nil
	})
	if err != nil {
		s.writeScheduleError(w, ctx, err)
		return
	}
	s.sessExtends.Add(1)
	writeJSON(w, out)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	closed := s.sessions.remove(id)
	if closed {
		s.sessCloses.Add(1)
	}
	writeJSON(w, &SessionCloseResponse{Session: id, Closed: closed})
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
