package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pfcache/internal/front"
	"pfcache/internal/service"
)

// sample is the outcome of one request the clients sent.
type sample struct {
	op     *op
	id     uint64        // request id, carried in the traced run's headers
	start  time.Duration // since the phase began
	lat    time.Duration
	status int // 0 = transport error
	failed bool
	cache  string // X-Cache
	// body is kept for the correctness checks: always for session and sweep
	// ops, and for schedule ops only when it differs from the first body
	// seen for the same request (bodyStore holds that one).
	body []byte
}

// bodyStore keeps the first response body per distinct schedule request.
type bodyStore struct {
	mu    sync.Mutex
	first map[int][]byte
}

// note records body for ref and returns it when it must be kept on the
// sample: the first body of a ref lives in the store, later identical bodies
// are dropped, and differing ones stay with their sample.
func (b *bodyStore) note(ref int, body []byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, ok := b.first[ref]
	if !ok {
		b.first[ref] = body
		return nil
	}
	if bytes.Equal(prev, body) {
		return nil
	}
	return body
}

// phase is one closed-loop run of a request list against a stack, with the
// counter and resource windows around it.
type phase struct {
	samples []sample
	bodies  *bodyStore
	elapsed time.Duration
	cpu     time.Duration // process user+sys
	// Heap and GC figures from runtime/metrics over the window.
	peakHeap uint64
	allocs   uint64
	gcCycles uint64
	// /v1/stats of the front and of every backend just before and after.
	frontBefore, frontAfter *front.StatsResponse
	backBefore, backAfter   []service.StatsResponse
	// ranOut reports that a client exhausted the pre-built list early.
	ranOut bool
}

// loadGen sends a workload's requests to a stack.
type loadGen struct {
	st     *stack
	w      *workloadDef
	tr     *tracer // nil = untraced
	nextID *atomic.Uint64
}

// newClient returns a client holding at most one connection, so the
// workload's clients never use more connections than there are clients.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
		DisableCompression: true}, Timeout: 2 * time.Minute}
}

// send issues one op and reads the whole reply.
func (d *loadGen) send(c *http.Client, o *op, origin time.Time) (sample, []byte) {
	s := sample{op: o, id: d.nextID.Add(1)}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, d.st.entry+o.path, body)
	if err != nil {
		s.failed = true
		return s, nil
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if d.tr != nil {
		req.Header.Set(headerRequest, strconv.FormatUint(s.id, 10))
	}
	t0 := time.Now()
	s.start = t0.Sub(origin)
	resp, err := c.Do(req)
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
		s.cache = resp.Header.Get("X-Cache")
	}
	s.lat = time.Since(t0)
	if d.tr != nil {
		d.tr.record(span{Name: "client.request", Req: s.id, Start: t0, End: t0.Add(s.lat), Tag: o.kind})
	}
	if err != nil || s.status != http.StatusOK {
		s.failed = true
		msg := string(bytes.TrimSpace(payload))
		if err != nil {
			msg = err.Error()
		}
		fmt.Fprintf(os.Stderr, "servebench: %s %s %s failed: status %d: %s\n",
			d.w.name, o.method, o.path, s.status, msg)
	}
	return s, payload
}

// run drives list with the workload's clients until deadline (or until the
// list is used up), keeping the bodies the checks need.  The last client
// loops the workload's sweep instead when it has one.
func (d *loadGen) run(list []script, deadline time.Time, sweeps int) *phase {
	p := &phase{bodies: &bodyStore{first: map[int][]byte{}}}
	var cursor atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	origin := time.Now()
	for ci := 0; ci < d.w.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var local []sample
			if d.w.sweep != nil && ci == d.w.clients-1 {
				local = d.sweepLoop(c, origin, deadline, sweeps)
			} else {
				local = d.scriptLoop(c, list, &cursor, origin, deadline, p)
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	p.elapsed = time.Since(origin)
	p.ranOut = cursor.Load() > int64(len(list)) && time.Now().Before(deadline)
	return p
}

// scriptLoop is one closed-loop client drawing scripts from the shared
// cursor.  A failed op ends its script: later ops of a session depend on it.
func (d *loadGen) scriptLoop(c *http.Client, list []script, cursor *atomic.Int64, origin, deadline time.Time, p *phase) []sample {
	var out []sample
	for time.Now().Before(deadline) {
		i := int(cursor.Add(1)) - 1
		if i >= len(list) {
			return out
		}
		for _, o := range list[i] {
			if !time.Now().Before(deadline) {
				break
			}
			s, body := d.send(c, o, origin)
			if !s.failed {
				switch o.kind {
				case kindSchedule:
					s.body = p.bodies.note(o.ref, body)
				case kindExtend:
					s.body = body
				}
			}
			out = append(out, s)
			if s.failed {
				break
			}
		}
	}
	return out
}

// sweepLoop runs sweeps back to back with a pause of twice the last sweep's
// duration, so sweeps hold the server about a third of the time.  sweeps > 0
// runs exactly that many (the warm-up); otherwise it runs until deadline.
func (d *loadGen) sweepLoop(c *http.Client, origin, deadline time.Time, sweeps int) []sample {
	var out []sample
	o := &op{kind: kindSweep, method: "POST", path: "/v1/sweep", body: mustJSON(d.w.sweep)}
	for n := 0; ; n++ {
		if sweeps > 0 && n >= sweeps {
			return out
		}
		if sweeps == 0 && !time.Now().Before(deadline) {
			return out
		}
		s, body := d.send(c, o, origin)
		if !s.failed {
			s.body = body
		}
		out = append(out, s)
		if sweeps > 0 {
			continue
		}
		pause := time.NewTimer(2 * s.lat)
		remaining := time.NewTimer(time.Until(deadline))
		select {
		case <-pause.C:
		case <-remaining.C:
		}
		pause.Stop()
		remaining.Stop()
	}
}

// warm runs the workload's warm-up list (and warm-up sweeps) to completion.
func (d *loadGen) warm() *phase {
	return d.run(d.w.warm, time.Now().Add(time.Hour), d.w.sweepWarm)
}

// timed runs the timed phase: counters, CPU and heap are captured around the
// closed loop, and nothing else runs in the process meanwhile.
func (d *loadGen) timed(length time.Duration) (*phase, error) {
	fb, bb, err := d.st.snapshot()
	if err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	cpu0 := cpuTime()
	m0 := readRuntime()
	p := d.run(d.w.timed, time.Now().Add(length), 0)
	m1 := readRuntime()
	p.cpu = cpuTime() - cpu0
	p.peakHeap = hs.stop()
	p.allocs = m1.allocs - m0.allocs
	p.gcCycles = m1.gcCycles - m0.gcCycles
	p.frontBefore, p.backBefore = fb, bb
	if p.frontAfter, p.backAfter, err = d.st.snapshot(); err != nil {
		return nil, err
	}
	return p, nil
}

// snapshot reads /v1/stats of the front (when there is one) and of every
// backend, over HTTP like any operator would.
func (st *stack) snapshot() (*front.StatsResponse, []service.StatsResponse, error) {
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	get := func(url string, dst any) error {
		resp, err := c.Get(url + "/v1/stats")
		if err != nil {
			return fmt.Errorf("servebench: reading stats: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("servebench: %s/v1/stats answered %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(dst)
	}
	var fs *front.StatsResponse
	if st.frontLn != nil {
		fs = &front.StatsResponse{}
		if err := get(st.entry, fs); err != nil {
			return nil, nil, err
		}
	}
	bs := make([]service.StatsResponse, len(st.backends))
	for i, l := range st.backends {
		if err := get("http://"+l.addr(), &bs[i]); err != nil {
			return nil, nil, err
		}
	}
	return fs, bs, nil
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are cumulative runtime/metrics readings.
type runtimeCounters struct {
	allocs, gcCycles uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapSampler polls the heap in use (live and not yet swept objects) and
// keeps its maximum.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// waitReady polls the entry's /readyz until it answers 200.
func (st *stack) waitReady(ctx context.Context) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for {
		resp, err := c.Get(st.entry + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("servebench: stack never became ready: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
