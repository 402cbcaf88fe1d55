package main

import (
	"math/rand/v2"
	"net/http"
	"testing"
	"time"
)

// smallMix is a front-mix-like workload of cheap greedy requests with
// duplicates, so a one-second closed loop exercises hits and misses.
func smallMix() *workloadDef {
	rng := rand.New(rand.NewPCG(5, 5))
	var pool []*op
	for i := 0; i < 40; i++ {
		req := frontMixItem(rng, int64(100+i), i, classSingle)
		pool = append(pool, scheduleOp(req, i))
	}
	w := &workloadDef{name: "test-mix", viaFront: true, primary: kindSchedule, clients: 2}
	for i := 0; i < 20; i++ {
		w.warm = append(w.warm, script{pool[i%len(pool)]})
	}
	for i := 0; i < 5000; i++ {
		w.timed = append(w.timed, script{pool[rng.IntN(len(pool))]})
	}
	return w
}

// TestTracedClosedLoop drives a short traced phase through the front and
// checks the answers, the counter windows and the span tree.
func TestTracedClosedLoop(t *testing.T) {
	w := smallMix()
	tr := &tracer{}
	b := &bench{w: w, seconds: 1}
	st, d, _, err := b.setup(stackConfig{wrapServer: tr.wrapServer, wrapFront: tr.wrapFront,
		wrapBackend: func(rt http.RoundTripper) http.RoundTripper { return &tracingTransport{t: tr, base: rt} }})
	if err != nil {
		t.Fatal(err)
	}
	d.tr = tr
	p, err := d.timed(time.Second)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 || failures(p) != 0 {
		t.Fatalf("%d samples, %d failed", len(p.samples), failures(p))
	}
	if mism, err := b.check(p); err != nil || mism != 0 {
		t.Fatalf("check: %d mismatches, err %v", mism, err)
	}
	bd := deltas(p.backBefore, p.backAfter)
	if got := bd.hits + bd.misses; got != uint64(len(p.samples)) {
		t.Errorf("backends saw %d schedule lookups, clients sent %d", got, len(p.samples))
	}

	spans := tr.snapshot()
	byID := map[uint64]span{}
	perReq := map[uint64]map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]int{}
		}
		perReq[s.Req][s.Name]++
	}
	for _, s := range p.samples {
		names := perReq[s.id]
		if names["client.request"] != 1 || names["front.serve"] != 1 || names["front.attempt"] != 1 || names["service.serve"] != 1 {
			t.Fatalf("request %d has spans %v, want one of each layer", s.id, names)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "front.attempt":
			if byID[s.Parent].Name != "front.serve" {
				t.Errorf("attempt %d has parent %q", s.ID, byID[s.Parent].Name)
			}
		case "service.serve":
			if byID[s.Parent].Name != "front.attempt" {
				t.Errorf("backend span %d has parent %q", s.ID, byID[s.Parent].Name)
			}
		}
	}

	rp := newReplayer()
	rp.replay(p.samples, func(s sample) []byte {
		if s.body != nil {
			return s.body
		}
		return p.bodies.first[s.op.ref]
	})
	misses := 0
	for _, s := range p.samples {
		if s.cache == "miss" {
			misses++
		}
	}
	if rp.lt.replayed != misses || rp.lt.agreed != misses {
		t.Errorf("replayed %d, agreed %d, want every one of the %d misses", rp.lt.replayed, rp.lt.agreed, misses)
	}
}
