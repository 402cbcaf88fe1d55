package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers the traced run adds.  The client stamps every request with its id;
// the front's backend transport forwards the id and the attempt's span id,
// so the backend's span can name its parent.
const (
	headerRequest = "X-Bench-Request"
	headerParent  = "X-Bench-Parent"
)

// span is one timed interval at a layer boundary.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Req    uint64    `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Tag qualifies the span: the request kind, or the X-Cache status of a
	// backend's reply.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record stores a finished span, assigning it an id when it has none.
func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanRef is what the front's wrapper stores in the request context.
type spanRef struct{ req, id uint64 }

type spanRefKey struct{}

// requestID parses the client's request id header (0 when absent: health
// probes and stats reads are not traced).
func requestID(h http.Header) uint64 {
	id, _ := strconv.ParseUint(h.Get(headerRequest), 10, 64)
	return id
}

// routeTag names the kind of request a path and method address.
func routeTag(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/schedule":
		return kindSchedule
	case r.URL.Path == "/v1/sweep":
		return kindSweep
	case r.URL.Path == "/v1/session":
		return kindCreate
	case r.Method == http.MethodDelete:
		return kindClose
	}
	return kindExtend
}

// wrapFront records a front.serve span around Front.ServeHTTP and stores
// the request id and span id in the request context for the transport.
func (t *tracer) wrapFront(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := requestID(r.Header)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanRefKey{}, spanRef{req, id})))
		t.record(span{ID: id, Req: req, Name: "front.serve", Start: start, End: time.Now(), Tag: routeTag(r)})
	})
}

// wrapServer records a service.serve span around Server.ServeHTTP, tagged
// with the reply's X-Cache status.
func (t *tracer) wrapServer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := requestID(r.Header)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(headerParent), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		tag := w.Header().Get("X-Cache")
		if tag == "" {
			tag = routeTag(r)
		}
		t.record(span{Parent: parent, Req: req, Name: "service.serve", Start: start, End: time.Now(), Tag: tag})
	})
}

// tracingTransport records a front.attempt span for every backend request
// the front makes on behalf of a traced client request; it ends when the
// front has read the reply body.
type tracingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanRefKey{}).(spanRef)
	if !ok {
		return tt.base.RoundTrip(r)
	}
	id := tt.t.newID()
	r = r.Clone(r.Context())
	r.Header.Set(headerRequest, strconv.FormatUint(ref.req, 10))
	r.Header.Set(headerParent, strconv.FormatUint(id, 10))
	s := span{ID: id, Parent: ref.id, Req: ref.req, Name: "front.attempt", Start: time.Now(), Tag: routeTag(r)}
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		s.End = time.Now()
		tt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = time.Now()
		b.t.record(b.s)
	})
	return err
}

// selfTime is a span's duration minus the part of its interval covered by
// the union of its children's intervals (children may nest or overlap, and
// may stick out of the parent; only the overlap with the parent counts).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				covered += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.dur() - covered
}

// selfTimes returns the self time of every span named name whose tag is in
// tags (all tags when empty), with children being its direct child spans.
func selfTimes(spans []span, name string, tags ...string) []time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name != name || !hasTag(s.Tag, tags) {
			continue
		}
		out = append(out, selfTime(s, children[s.ID]))
	}
	return out
}

// durations returns the durations of every span named name with a tag in
// tags (all tags when empty).
func durations(spans []span, name string, tags ...string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name && hasTag(s.Tag, tags) {
			out = append(out, s.dur())
		}
	}
	return out
}

func hasTag(tag string, tags []string) bool {
	if len(tags) == 0 {
		return true
	}
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}
