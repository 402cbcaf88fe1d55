package service

import (
	"fmt"

	"pfcache/internal/core"
	"pfcache/internal/workload"
)

// generate builds the request sequence described by the spec.  The workload
// generators panic on invalid parameters (they are library entry points with
// programmer-error semantics); the recover converts those panics into request
// errors so a malformed HTTP request cannot take the service down.
func generate(spec *WorkloadSpec) (seq core.Sequence, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: invalid workload spec: %v", r)
		}
	}()
	switch spec.Kind {
	case "uniform":
		return workload.Uniform(spec.N, spec.Blocks, spec.Seed), nil
	case "zipf":
		s := spec.S
		if s == 0 {
			s = 1.1
		}
		return workload.Zipf(spec.N, spec.Blocks, s, spec.Seed), nil
	case "scan":
		return workload.SequentialScan(spec.N, spec.Blocks), nil
	case "loop":
		return workload.Loop(spec.Blocks, spec.Repeats), nil
	case "phased":
		return workload.Phased(spec.Phases, spec.PerPhase, spec.Blocks, spec.Overlap, spec.Seed), nil
	case "interleaved":
		return workload.Interleaved(spec.N, spec.Streams, spec.StreamLen), nil
	case "mixed":
		return workload.Mixed(spec.N, spec.Blocks, spec.ScanBlocks, spec.Burst, spec.Seed), nil
	}
	return nil, fmt.Errorf("service: unknown workload kind %q", spec.Kind)
}

// The sizes a request controls are capped before anything is allocated from
// them: a generator allocates its whole sequence up front and the strategies
// allocate per cache location and per disk, so one large number in a tiny
// body would otherwise exhaust memory, which no recover can catch.
// maxRequests ties generated sequences to explicit ones: each element of a
// JSON array takes at least two bytes ("0,"), so a body within
// maxRequestBody carries at most maxRequestBody/2 requests.  maxCache and
// maxDisks sit far above every instance the strategies are meant for; the
// lp-optimal model alone holds k + D - 1 initial cache locations, and at
// k = 2^23 it no longer fits in memory even for a six-request sequence.
// maxFetch caps F for the costs' sake: a schedule's stall is at most a few
// fetch times per request, so with n ≤ maxRequests = 2^23 and
// F ≤ maxFetch = 2^20, n·F ≤ 2^43 and the reported stall and elapsed time
// (n + stall) stay far inside int64.
const (
	maxRequests = maxRequestBody / 2
	maxCache    = 1 << 12
	maxDisks    = 1 << 6
	maxFetch    = 1 << 20
)

// checkSizes rejects a request whose sizes exceed the caps above.  Each size
// is a product a*b, compared without being formed so that it cannot
// overflow.
func (r *ScheduleRequest) checkSizes() error {
	var w WorkloadSpec
	if r.Workload != nil {
		w = *r.Workload
	}
	for _, c := range [...]struct {
		name  string
		a, b  int
		limit int
	}{
		{"seq length", len(r.Seq), 1, maxRequests},
		{"n", w.N, 1, maxRequests},
		{"blocks", w.Blocks, 1, maxRequests},
		{"streams", w.Streams, 1, maxRequests},
		{"blocks × repeats", w.Blocks, w.Repeats, maxRequests},
		{"phases × per_phase", w.Phases, w.PerPhase, maxRequests},
		{"k", r.K, 1, maxCache},
		{"disks", r.Disks, 1, maxDisks},
		{"f", r.F, 1, maxFetch},
	} {
		if c.a > 0 && c.b > c.limit/c.a {
			return fmt.Errorf("service: %s exceeds the limit %d", c.name, c.limit)
		}
	}
	return nil
}

// BuildInstance materialises the instance a schedule request describes and
// validates it.
func (r *ScheduleRequest) BuildInstance() (*core.Instance, error) {
	sources := 0
	if r.Instance != "" {
		sources++
	}
	if len(r.Seq) > 0 {
		sources++
	}
	if r.Workload != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("service: exactly one of instance, seq or workload must be set (got %d)", sources)
	}

	if r.Instance != "" {
		in, err := workload.ParseString(r.Instance)
		if err != nil {
			return nil, err
		}
		// The text carries its own k, F and disks.
		if err := (&ScheduleRequest{K: in.K, F: in.F, Disks: in.Disks}).checkSizes(); err != nil {
			return nil, err
		}
		return in, nil
	}
	if err := r.checkSizes(); err != nil {
		return nil, err
	}

	var seq core.Sequence
	if len(r.Seq) > 0 {
		seq = make(core.Sequence, len(r.Seq))
		for i, b := range r.Seq {
			seq[i] = core.BlockID(b)
		}
	} else {
		var err error
		if seq, err = generate(r.Workload); err != nil {
			return nil, err
		}
	}

	disks := r.Disks
	if disks == 0 {
		disks = 1
	}
	in := &core.Instance{Seq: seq, K: r.K, F: r.F, Disks: disks}
	if disks > 1 {
		strategy, err := workload.ParseAssignment(r.Assign)
		if err != nil {
			return nil, err
		}
		in.DiskOf = workload.AssignDisks(seq, disks, strategy, r.AssignSeed)
	}
	for _, b := range r.InitialCache {
		in.InitialCache = append(in.InitialCache, core.BlockID(b))
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("service: invalid instance: %w", err)
	}
	return in, nil
}
