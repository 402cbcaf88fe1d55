package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/parallel"
	"pfcache/internal/service"
	"pfcache/internal/sim"
	"pfcache/internal/single"
)

// layerTimes collects the replay's per-layer measurements.
type layerTimes struct {
	buildInstance, canonical   []time.Duration
	modelBuild, solve, extract []time.Duration
	extend, resolve            []time.Duration
	simRun, encode             []time.Duration
	singleRun, parallelRun     []time.Duration
	optSearch                  []time.Duration
	candidates                 []int
	optExpanded, optGenerated  int
	optDominance, optLandmark  int
	sweep                      map[string][]time.Duration
	compute                    map[uint64]time.Duration // request id -> replayed compute
	// replayed counts replayed ops, replayFails those the replay could not
	// compute, and agreed the schedule replays whose bytes equal the served
	// body.
	replayed, agreed, replayFails int
}

// replayer re-runs served requests sequentially through the packages'
// public functions, in the order service.ComputeSchedule and the session
// handlers call them, timing each call.
type replayer struct {
	lt      *layerTimes
	batches []*lpmodel.ModelBatch // one per shard, chosen by Fingerprint() % shards
	opts    lp.Options
	models  map[string]*sessionState
}

type sessionState struct {
	m      *lpmodel.Model
	solver *lp.Solver
}

func newReplayer() *replayer {
	so := serverOptions()
	r := &replayer{
		lt: &layerTimes{sweep: map[string][]time.Duration{}, compute: map[uint64]time.Duration{}},
		opts: lp.Options{Method: so.Solver, Pricing: so.Pricing, Basis: so.Basis,
			WarmStart: true, Cascade: true},
		models: map[string]*sessionState{},
	}
	for i := 0; i < so.Shards; i++ {
		r.batches = append(r.batches, lpmodel.NewModelBatch())
	}
	return r
}

// timeIt runs fn and appends its duration to dst.
func timeIt(dst *[]time.Duration, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	*dst = append(*dst, d)
	return d
}

// replay re-runs the computed requests of a traced phase: schedule misses
// in the order the backends began serving them, and every session op.  A
// replayed schedule body is compared with the served one; disagreement is
// reported (the shard batches saw a different request interleaving), not
// counted as a failure.  served returns the body a schedule sample received.
func (r *replayer) replay(samples []sample, served func(sample) []byte) {
	var todo []sample
	for _, s := range samples {
		if s.failed {
			continue
		}
		switch {
		case s.op.kind == kindSchedule && s.cache == "miss":
			todo = append(todo, s)
		case s.op.kind == kindCreate || s.op.kind == kindExtend:
			todo = append(todo, s)
		}
	}
	sort.SliceStable(todo, func(i, j int) bool { return todo[i].start < todo[j].start })
	for _, s := range todo {
		var body []byte
		var total time.Duration
		var err error
		switch s.op.kind {
		case kindSchedule:
			body, total, err = r.schedule(s.op.sched)
		case kindCreate:
			body, total, err = r.sessionCreate(s.op.sess)
		case kindExtend:
			body, total, err = r.sessionExtend(s.op.sess, s.op.step)
		}
		r.lt.replayed++
		if err != nil {
			r.lt.replayFails++
			continue
		}
		r.lt.compute[s.id] = total
		if s.op.kind == kindSchedule && bytes.Equal(body, served(s)) {
			r.lt.agreed++
		}
	}
}

// schedule mirrors the one-shot compute path: build the instance,
// canonicalize, run the strategy, simulate, encode.
func (r *replayer) schedule(req *service.ScheduleRequest) ([]byte, time.Duration, error) {
	lt := r.lt
	var total time.Duration
	var in *core.Instance
	var err error
	total += timeIt(&lt.buildInstance, func() { in, err = req.BuildInstance() })
	if err != nil {
		return nil, total, err
	}
	// The handler encodes the instance once for the cache key and hashes
	// those bytes for the shard; the response header then fingerprints it.
	var fp uint64
	var resp *service.ScheduleResponse
	total += timeIt(&lt.canonical, func() {
		h := fnv.New64a()
		h.Write(in.AppendCanonical(make([]byte, 0, 64+4*in.N())))
		fp = h.Sum64()
		resp = responseHeader(in, req.Strategy)
	})
	var sched *core.Schedule
	switch req.Strategy {
	case "opt":
		var res *opt.Result
		total += timeIt(&lt.optSearch, func() { res, err = opt.Optimal(in, opt.Options{}) })
		if err != nil {
			return nil, total, err
		}
		lt.optExpanded += res.StatesExpanded
		lt.optGenerated += res.StatesGenerated
		lt.optDominance += res.PrunedByDominance
		lt.optLandmark += res.LandmarkHits
		sched = res.Schedule
		resp.Opt = &service.OptInfo{
			Expanded: res.StatesExpanded, Generated: res.StatesGenerated,
			PrunedByBound: res.PrunedByBound, DuplicateHits: res.DuplicateHits,
			PrunedByDominance: res.PrunedByDominance, LandmarkHits: res.LandmarkHits,
			PeakTable: res.PeakTableSize, SeedAlgorithm: res.SeedAlgorithm,
			SeedStall: res.SeedStall, SeedOptimal: res.SeedOptimal,
		}
	case "lp-optimal":
		mb := r.batches[fp%uint64(len(r.batches))]
		var m *lpmodel.Model
		var frac *lpmodel.Fractional
		total += timeIt(&lt.modelBuild, func() { m, err = mb.Model(in) })
		if err != nil {
			return nil, total, err
		}
		total += timeIt(&lt.solve, func() { frac, err = m.SolveBatch(mb.LP(), r.opts) })
		if err != nil {
			return nil, total, err
		}
		var d time.Duration
		sched, d, err = r.extract(resp, m, frac)
		total += d
		if err != nil {
			return nil, total, err
		}
	default:
		var d time.Duration
		sched, d, err = r.greedy(in, req.Strategy)
		total += d
		if err != nil {
			return nil, total, err
		}
	}
	body, d, err := r.finish(resp, in, sched, req.IncludeSchedule)
	return body, total + d, err
}

// greedy runs a greedy strategy the way the service resolves its name.
func (r *replayer) greedy(in *core.Instance, name string) (*core.Schedule, time.Duration, error) {
	var sched *core.Schedule
	var err error
	if in.Disks == 1 {
		if a, e := single.ByName(name); e == nil {
			d := timeIt(&r.lt.singleRun, func() { sched, err = a.Run(in) })
			return sched, d, err
		}
	}
	a, err := parallel.ByName(name)
	if err != nil {
		return nil, 0, err
	}
	d := timeIt(&r.lt.parallelRun, func() { sched, err = a.Run(in) })
	return sched, d, err
}

// extract rounds the fractional solution and fills the response's LP block.
func (r *replayer) extract(resp *service.ScheduleResponse, m *lpmodel.Model, frac *lpmodel.Fractional) (*core.Schedule, time.Duration, error) {
	var res *lpmodel.PlanResult
	var err error
	d := timeIt(&r.lt.extract, func() { res, err = lpmodel.Extract(m, frac) })
	if err != nil {
		return nil, d, err
	}
	r.lt.candidates = append(r.lt.candidates, res.CandidatesTried)
	resp.LP = &service.LPInfo{
		LowerBound: res.LowerBound, Integral: res.Integral, Offset: res.Offset,
		Variables: res.LPVariables, Constraints: res.LPConstraints,
		Iterations: res.LPIterations, Candidates: res.CandidatesTried,
	}
	return res.Schedule, d, nil
}

// finish simulates the schedule and encodes the response.
func (r *replayer) finish(resp *service.ScheduleResponse, in *core.Instance, sched *core.Schedule, includeSchedule bool) ([]byte, time.Duration, error) {
	var res *sim.Result
	var err error
	total := timeIt(&r.lt.simRun, func() { res, err = sim.Run(in, sched, sim.Options{}) })
	if err != nil {
		return nil, total, err
	}
	resp.Stall, resp.Elapsed, resp.FetchCount, resp.ExtraCache = res.Stall, res.Elapsed, res.FetchCount, res.ExtraCache
	if includeSchedule {
		resp.Schedule = make([]service.FetchWire, 0, sched.Len())
		for _, f := range sched.Fetches {
			resp.Schedule = append(resp.Schedule, service.FetchWire{Disk: f.Disk, After: f.After,
				MinTime: f.MinTime, Block: int(f.Block), Evict: int(f.Evict), EvictAtEnd: int(f.EvictAtEnd)})
		}
	}
	var body []byte
	total += timeIt(&r.lt.encode, func() { body, err = json.Marshal(resp) })
	return append(body, '\n'), total, err
}

// responseHeader fills the instance summary the way the service does.
func responseHeader(in *core.Instance, strategy string) *service.ScheduleResponse {
	return &service.ScheduleResponse{
		Key: fmt.Sprintf("%016x", in.Fingerprint()), Strategy: strategy,
		N: in.N(), K: in.K, F: in.F, Disks: in.Disks,
		Blocks: len(in.Blocks()), ColdMisses: in.ColdMisses(),
	}
}

// sessionOpts is the solver configuration of session solves.
func (r *replayer) sessionOpts() lp.Options {
	return lp.Options{Method: r.opts.Method, Pricing: r.opts.Pricing, Basis: r.opts.Basis, Cascade: true}
}

// sessionCreate mirrors session creation: build the instance and the model,
// solve cold with a fresh solver, extract, simulate, encode.
func (r *replayer) sessionCreate(p *sessionPlan) ([]byte, time.Duration, error) {
	lt := r.lt
	var total time.Duration
	var in *core.Instance
	var err error
	total += timeIt(&lt.buildInstance, func() { in, err = p.create.BuildInstance() })
	if err != nil {
		return nil, total, err
	}
	st := &sessionState{solver: lp.NewSolver()}
	total += timeIt(&lt.modelBuild, func() { st.m, err = lpmodel.Build(in) })
	if err != nil {
		return nil, total, err
	}
	var frac *lpmodel.Fractional
	total += timeIt(&lt.solve, func() { frac, err = st.m.SolveWith(st.solver, r.sessionOpts()) })
	if err != nil {
		return nil, total, err
	}
	r.models[p.id] = st
	body, d, err := r.sessionAnswer(st.m, frac)
	return body, total + d, err
}

// sessionExtend mirrors one extend: grow the model in place, re-solve warm
// with the dual simplex, extract, simulate, encode.
func (r *replayer) sessionExtend(p *sessionPlan, step int) ([]byte, time.Duration, error) {
	st, ok := r.models[p.id]
	if !ok {
		return nil, 0, fmt.Errorf("servebench: replaying an extend of unknown session %s", p.id)
	}
	var total time.Duration
	var err error
	total += timeIt(&r.lt.extend, func() { err = st.m.Extend(core.BlockID(p.steps[step-1])) })
	if err != nil {
		return nil, total, err
	}
	var frac *lpmodel.Fractional
	total += timeIt(&r.lt.resolve, func() { frac, err = st.m.SolveIncremental(st.solver, r.sessionOpts()) })
	if err != nil {
		return nil, total, err
	}
	body, d, err := r.sessionAnswer(st.m, frac)
	return body, total + d, err
}

func (r *replayer) sessionAnswer(m *lpmodel.Model, frac *lpmodel.Fractional) ([]byte, time.Duration, error) {
	var resp *service.ScheduleResponse
	d := timeIt(&r.lt.canonical, func() { resp = responseHeader(m.In, "lp-optimal") })
	sched, d2, err := r.extract(resp, m, frac)
	if err != nil {
		return nil, d + d2, err
	}
	body, d3, err := r.finish(resp, m.In, sched, false)
	return body, d + d2 + d3, err
}

// sweeps times service.RunSweep on each experiment ID alone, sequentially,
// reps times.
func (r *replayer) sweeps(ids []string, reps int) error {
	for rep := 0; rep < reps; rep++ {
		for _, id := range ids {
			var err error
			dst := r.lt.sweep[id]
			timeIt(&dst, func() { _, err = service.RunSweep(&service.SweepRequest{IDs: []string{id}, Workers: 1}) })
			r.lt.sweep[id] = dst
			if err != nil {
				return fmt.Errorf("servebench: replaying sweep %s: %w", id, err)
			}
		}
	}
	return nil
}
