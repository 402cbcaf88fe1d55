package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// checker holds the reference answers the served bodies are checked
// against.  References are computed after the timed window, never inside.
type checker struct {
	workload string
	refs     map[int][]byte // schedule ref -> ScheduleBody reference
	refErrs  map[int]error
	sweep    *service.SweepResponse
}

// lpOptsReference are the solver options of the schedule reference: those
// the front tests compare served bytes against.
func lpOptsReference() lp.Options { return lp.Options{WarmStart: true} }

// refWorkers bounds the goroutines computing references.
const refWorkers = 2

// scheduleRefs computes service.ScheduleBody(req, lp.Options{WarmStart:
// true}) — the reference the front tests use — for every distinct request
// the phases sent.
func (c *checker) scheduleRefs(phases ...*phase) {
	reqs := map[int]*service.ScheduleRequest{}
	for _, p := range phases {
		for _, s := range p.samples {
			if s.op.kind == kindSchedule {
				if _, done := c.refs[s.op.ref]; !done {
					reqs[s.op.ref] = s.op.sched
				}
			}
		}
	}
	keys := make([]int, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	bodies := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	inParallel(len(keys), func(i int) {
		bodies[i], errs[i] = service.ScheduleBody(reqs[keys[i]], lpOptsReference())
	})
	for i, k := range keys {
		if errs[i] != nil {
			c.refErrs[k] = errs[i]
			continue
		}
		c.refs[k] = bodies[i]
	}
}

// inParallel runs fn(0..n-1) on refWorkers goroutines and waits for all.
func inParallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// checkPhase marks every sample whose answer disagrees with its reference as
// failed, reports each mismatch, and returns the number of mismatches.
func (c *checker) checkPhase(p *phase) int {
	mismatches := 0
	fail := func(s *sample, format string, args ...any) {
		s.failed = true
		mismatches++
		fmt.Fprintf(os.Stderr, "servebench: %s: wrong answer: %s\n", c.workload, fmt.Sprintf(format, args...))
	}
	lastStep := map[*sessionPlan]int{}
	for i := range p.samples {
		s := &p.samples[i]
		if !s.failed && s.op.kind == kindExtend && s.op.step > lastStep[s.op.sess] {
			lastStep[s.op.sess] = s.op.step
		}
	}
	var sessions []*sample
	for i := range p.samples {
		s := &p.samples[i]
		if s.failed {
			continue
		}
		switch s.op.kind {
		case kindSchedule:
			got := s.body
			if got == nil {
				got = p.bodies.first[s.op.ref]
			}
			want, ok := c.refs[s.op.ref]
			if !ok {
				fail(s, "request %d was served but its reference failed: %v", s.op.ref, c.refErrs[s.op.ref])
				continue
			}
			if !bytes.Equal(got, want) {
				fail(s, "request %d (%s): body differs from service.ScheduleBody: %s",
					s.op.ref, s.op.sched.Strategy, firstDiff(got, want))
			}
		case kindExtend:
			if s.op.step == lastStep[s.op.sess] {
				sessions = append(sessions, s)
			}
		case kindSweep:
			if err := sameTables(s.body, c.sweep); err != nil {
				fail(s, "sweep: %v", err)
			}
		}
	}
	// Session checks: the last extend of every session against a cold
	// one-shot lp-optimal solve of the same full trace.
	errs := make([]error, len(sessions))
	inParallel(len(sessions), func(i int) { errs[i] = checkSession(sessions[i]) })
	for i, s := range sessions {
		if errs[i] != nil {
			fail(s, "session %s step %d: %v", s.op.sess.id, s.op.step, errs[i])
		}
	}
	return mismatches
}

// checkSession compares one served session plan with the cold reference.
func checkSession(s *sample) error {
	p := s.op.sess
	seq := p.fullSeq(s.op.step)
	var got service.SessionResponse
	if err := json.Unmarshal(s.body, &got); err != nil {
		return fmt.Errorf("decoding the session reply: %w", err)
	}
	if got.Session != p.id || got.Length != len(seq) {
		return fmt.Errorf("reply names session %q at length %d, want %q at %d", got.Session, got.Length, p.id, len(seq))
	}
	gotResult, err := json.Marshal(got.Result)
	if err != nil {
		return err
	}
	want, err := service.ScheduleBody(&service.ScheduleRequest{Strategy: "lp-optimal", Seq: seq,
		K: p.create.K, F: p.create.F, Disks: p.create.Disks}, lp.Options{})
	if err != nil {
		return fmt.Errorf("cold reference: %w", err)
	}
	return planEquivalent(gotResult, want)
}

// planEquivalent is the session rule of the service tests: the header and
// the certified costs must match exactly, the LP bound to 1e-6 relative, and
// the program shape exactly.  Vertex-dependent detail (fetch times, offset,
// effort counters) may differ between equal-cost optima.
func planEquivalent(gotRaw, wantRaw []byte) error {
	var got, want map[string]any
	if err := json.Unmarshal(gotRaw, &got); err != nil {
		return err
	}
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		return err
	}
	gotLP, ok1 := got["lp"].(map[string]any)
	wantLP, ok2 := want["lp"].(map[string]any)
	if !ok1 || !ok2 {
		return fmt.Errorf("missing lp block (served %v, reference %v)", ok1, ok2)
	}
	gb, _ := gotLP["lower_bound"].(float64)
	wb, _ := wantLP["lower_bound"].(float64)
	for _, field := range []string{"key", "strategy", "n", "k", "f", "disks", "blocks", "cold_misses", "stall", "elapsed"} {
		if !reflect.DeepEqual(got[field], want[field]) {
			return fmt.Errorf("%s = %v, cold reference has %v (lp.lower_bound %v, reference %v)",
				field, got[field], want[field], gb, wb)
		}
	}
	if math.Abs(gb-wb) > 1e-6*(1+math.Abs(wb)) {
		return fmt.Errorf("lp.lower_bound = %v, cold reference has %v", gb, wb)
	}
	for _, field := range []string{"variables", "constraints"} {
		if !reflect.DeepEqual(gotLP[field], wantLP[field]) {
			return fmt.Errorf("lp.%s = %v, cold reference has %v", field, gotLP[field], wantLP[field])
		}
	}
	return nil
}

// sweepRef runs the workload's sweep in-process for the table check.
func (c *checker) sweepRef(req *service.SweepRequest) error {
	ref, err := service.RunSweep(req)
	if err != nil {
		return fmt.Errorf("servebench: reference sweep: %w", err)
	}
	c.sweep = ref
	return nil
}

// sameTables compares a served sweep's tables, wall times aside, with the
// reference sweep's.
func sameTables(body []byte, ref *service.SweepResponse) error {
	var got service.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding the sweep reply: %w", err)
	}
	if len(got.Results) != len(ref.Results) {
		return fmt.Errorf("%d tables, reference has %d", len(got.Results), len(ref.Results))
	}
	for i := range got.Results {
		g, w := got.Results[i], ref.Results[i]
		g.Seconds, w.Seconds = 0, 0
		gb, err := json.Marshal(g)
		if err != nil {
			return err
		}
		wb, err := json.Marshal(w)
		if err != nil {
			return err
		}
		if !bytes.Equal(gb, wb) {
			return fmt.Errorf("table %s differs from the in-process sweep: %s", w.ID, firstDiff(gb, wb))
		}
	}
	return nil
}

// firstDiff describes where two bodies first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	snip := func(b []byte) string {
		lo, hi := max(i-40, 0), min(i+40, len(b))
		return string(b[lo:hi])
	}
	return fmt.Sprintf("at byte %d: served %q, reference %q", i, snip(got), snip(want))
}
