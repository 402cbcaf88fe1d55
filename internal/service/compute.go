package service

import (
	"context"
	"fmt"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/parallel"
	"pfcache/internal/sim"
	"pfcache/internal/single"
)

// ComputeSchedule runs one strategy on one instance and assembles the
// response.  It is the single code path behind the HTTP handler, the shards
// and the tests: responses are byte-identical no matter which of them asks.
// mb may be nil (the model is built fresh and a pooled solver is drawn for
// LP work); shards pass their owned lpmodel.ModelBatch, so LP requests on
// one shard reuse the model storage and the solver buffers.  The model is
// built afresh and the LP solve starts cold either way, which is what makes
// the bytes the same.
//
// lpOpts configures the lp-optimal strategy's solves and optOpts the opt
// strategy's exact search; their Stats fields name the sinks the work is
// counted in.
//
// ctx bounds the computation: it is checked before each expensive stage
// (exact search, LP build/solve/extract, simulation), so a canceled request
// stops consuming its shard at the next stage boundary.  The solver cores
// themselves are not interruptible mid-pivot; the stage checks bound the
// overshoot to one engine call.
func ComputeSchedule(ctx context.Context, in *core.Instance, strategy string, includeSchedule bool, mb *lpmodel.ModelBatch, lpOpts lp.Options, optOpts opt.Options) (*ScheduleResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := responseHeader(in, strategy)

	var sched *core.Schedule
	switch strategy {
	case "opt":
		res, err := opt.Optimal(in, optOpts)
		if err != nil {
			return nil, err
		}
		sched = res.Schedule
		resp.Opt = &OptInfo{
			Expanded:      res.StatesExpanded,
			Generated:     res.StatesGenerated,
			DuplicateHits: res.DuplicateHits,
			PeakTable:     res.PeakTableSize,
		}
	case "lp-optimal":
		var m *lpmodel.Model
		var frac *lpmodel.Fractional
		var err error
		// A revised solve runs under the verification cascade: the result is
		// checked against the independent optimality certificate, and a
		// numerical failure re-solves down the engine ladder instead of being
		// cached, replicated and frozen into benchmark tables.  The response
		// is byte-identical with or without the batch (the lp.Batch
		// contract), which only changes what is reused, never what is
		// computed.
		if mb != nil {
			m, err = mb.Model(in)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			frac, err = m.SolveBatch(mb.LP(), lpOpts)
		} else {
			m, err = lpmodel.Build(in)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			frac, err = m.SolveWith(nil, lpOpts)
		}
		if err != nil {
			return nil, err
		}
		if sched, err = lpSchedule(resp, m, frac); err != nil {
			return nil, err
		}
	default:
		var err error
		sched, err = greedySchedule(in, strategy)
		if err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := finishSchedule(resp, in, strategy, sched, includeSchedule); err != nil {
		return nil, err
	}
	return resp, nil
}

// responseHeader fills the instance-summary fields of a fresh response.
func responseHeader(in *core.Instance, strategy string) *ScheduleResponse {
	return &ScheduleResponse{
		Key:        fmt.Sprintf("%016x", in.Fingerprint()),
		Strategy:   strategy,
		N:          in.N(),
		K:          in.K,
		F:          in.F,
		Disks:      in.Disks,
		Blocks:     len(in.Blocks()),
		ColdMisses: in.ColdMisses(),
	}
}

// lpSchedule extracts the integral schedule from a solved model, filling the
// LP block of the response; the caller simulates the schedule like any other
// strategy's.  It is shared between the one-shot lp-optimal path and the
// session path, so both assemble byte-identical responses from the same
// fractional solution.
func lpSchedule(resp *ScheduleResponse, m *lpmodel.Model, frac *lpmodel.Fractional) (*core.Schedule, error) {
	resp.downgrades = frac.Downgrades
	res, err := lpmodel.Extract(m, frac)
	if err != nil {
		return nil, err
	}
	resp.LP = &LPInfo{
		LowerBound:  res.LowerBound,
		Integral:    res.Integral,
		Offset:      res.Offset,
		Variables:   res.LPVariables,
		Constraints: res.LPConstraints,
		Iterations:  res.LPIterations,
		Candidates:  res.CandidatesTried,
	}
	return res.Schedule, nil
}

// finishSchedule simulates sched on in, filling the executed-cost fields and
// (when requested) the fetch list.
func finishSchedule(resp *ScheduleResponse, in *core.Instance, strategy string, sched *core.Schedule, includeSchedule bool) error {
	res, err := sim.Run(in, sched, sim.Options{})
	if err != nil {
		return fmt.Errorf("service: %s schedule is infeasible: %w", strategy, err)
	}
	resp.Stall = res.Stall
	resp.Elapsed = res.Elapsed
	resp.FetchCount = res.FetchCount
	resp.ExtraCache = res.ExtraCache

	if includeSchedule {
		resp.Schedule = make([]FetchWire, 0, sched.Len())
		for _, f := range sched.Fetches {
			resp.Schedule = append(resp.Schedule, FetchWire{
				Disk:       f.Disk,
				After:      f.After,
				MinTime:    f.MinTime,
				Block:      int(f.Block),
				Evict:      int(f.Evict),
				EvictAtEnd: int(f.EvictAtEnd),
			})
		}
	}
	return nil
}

// greedySchedule resolves a non-LP, non-exact strategy the same way the
// pcsim CLI does: single-disk instances try the single-disk registry first
// and fall back to the parallel suite (which accepts D == 1).
func greedySchedule(in *core.Instance, strategy string) (*core.Schedule, error) {
	if in.Disks == 1 {
		if a, err := single.ByName(strategy); err == nil {
			return a.Run(in)
		}
	}
	a, err := parallel.ByName(strategy)
	if err != nil {
		return nil, fmt.Errorf("service: unknown strategy %q for a %d-disk instance", strategy, in.Disks)
	}
	return a.Run(in)
}
