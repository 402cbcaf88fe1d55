package service

import (
	"encoding/json"
	"io"
	"strings"

	"pfcache/internal/experiments"
	"pfcache/internal/lp"
	"pfcache/internal/opt"
)

// ResolveExperiments maps a sweep request's IDs to experiments (the whole
// suite when the list is empty).
func ResolveExperiments(ids []string) ([]experiments.Experiment, error) {
	if len(ids) == 0 {
		return experiments.All(), nil
	}
	var out []experiments.Experiment
	for _, id := range ids {
		e, err := experiments.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// RunSweep executes the requested experiments and packages their tables with
// the process-wide LP and exact-search counters, exactly as `pcbench -json`
// reports them: pcbench builds its output through this function, so the CLI
// and the /v1/sweep endpoint cannot drift apart.
//
// The run mutates process-wide state (the experiment pool size, the selected
// simplex engines) and attributes lp/opt counter growth to itself; the
// caller is responsible for exclusion against other solver work (the server
// holds its sweep lock, the CLI is single-purpose).  Partial results are
// returned alongside the error when individual experiments fail.
func RunSweep(req *SweepRequest) (*SweepResponse, error) {
	exps, err := ResolveExperiments(req.IDs)
	if err != nil {
		return nil, err
	}
	method, err := lp.ParseMethod(solverName(req.Solver))
	if err != nil {
		return nil, err
	}
	experiments.SetSolverMethod(method)
	if req.Pricing != "" {
		pricing, err := lp.ParsePricing(req.Pricing)
		if err != nil {
			return nil, err
		}
		experiments.SetPricing(pricing)
	} else {
		experiments.ResetPricing()
	}
	if req.Basis != "" {
		basis, err := lp.ParseBasis(req.Basis)
		if err != nil {
			return nil, err
		}
		experiments.SetBasis(basis)
	} else {
		experiments.ResetBasis()
	}
	experiments.SetWorkers(req.Workers)
	// Start each sweep from an empty batch pool: no built model, warm basis
	// or recorded symbolic factorization carries over from earlier work, so
	// the batch counters below are attributable to this sweep and a recorded
	// single-worker sweep reproduces them exactly.
	experiments.ResetBatches()

	// The embedded counters are the sweep's own work: a before/after
	// snapshot difference rather than a reset-then-read, so a live server's
	// process-wide counters (exposed on /v1/stats) stay monotonic across
	// sweeps.  The caller's exclusion guarantee is what makes the
	// difference attributable to this sweep alone.
	lpBefore := lp.StatsSnapshot()
	optBefore := opt.StatsSnapshot()
	results, runErr := experiments.RunAll(exps)

	resp := &SweepResponse{
		Solver:  method.String(),
		Pricing: experiments.SolverPricing().String(),
		Basis:   experiments.SolverBasis().String(),
		Results: make([]TableWire, 0, len(results)),
		LP:      lpCountersWire(lpCountersDiff(lp.StatsSnapshot(), lpBefore)),
		Opt:     optCountersWire(optCountersDiff(opt.StatsSnapshot(), optBefore)),
	}
	for _, r := range results {
		// One failed experiment must not hide the others' tables; failed
		// entries have a nil table and are skipped, mirroring pcbench.
		if r.Table == nil {
			continue
		}
		t := TableWire{
			ID:      r.Experiment.ID,
			Title:   r.Experiment.Title,
			Note:    r.Table.Note,
			Headers: r.Table.Headers,
			Rows:    r.Table.Rows,
		}
		if !req.Stable {
			t.Seconds = r.Elapsed.Seconds()
		}
		resp.Results = append(resp.Results, t)
	}
	return resp, runErr
}

// lpCountersDiff returns the counter growth between two snapshots (the
// counters are monotonic, so the difference is well defined).
func lpCountersDiff(after, before lp.Counters) lp.Counters {
	return lp.Counters{
		Solves:           after.Solves - before.Solves,
		Iterations:       after.Iterations - before.Iterations,
		Phase1Pivots:     after.Phase1Pivots - before.Phase1Pivots,
		PricingPasses:    after.PricingPasses - before.PricingPasses,
		Refactorizations: after.Refactorizations - before.Refactorizations,
		EtaColumns:       after.EtaColumns - before.EtaColumns,
		LUFills:          after.LUFills - before.LUFills,
		WarmStarts:       after.WarmStarts - before.WarmStarts,
		VerifiedSolves:   after.VerifiedSolves - before.VerifiedSolves,
		VerifyFailures:   after.VerifyFailures - before.VerifyFailures,
		CascadeFallbacks: after.CascadeFallbacks - before.CascadeFallbacks,
		SymbolicReuses:   after.SymbolicReuses - before.SymbolicReuses,
		NumericRefactors: after.NumericRefactors - before.NumericRefactors,
		DualPivots:       after.DualPivots - before.DualPivots,
		FTUpdates:        after.FTUpdates - before.FTUpdates,
	}
}

// optCountersDiff returns the counter growth between two snapshots.
// PeakTable and Workers are running maxima, not sums, so their differences
// would be meaningless: the after-values are reported as is (for a fresh
// process — the CLI, the trajectory files — they equal the sweep's own peaks).
func optCountersDiff(after, before opt.Counters) opt.Counters {
	return opt.Counters{
		Searches:          after.Searches - before.Searches,
		Expanded:          after.Expanded - before.Expanded,
		Generated:         after.Generated - before.Generated,
		PrunedByBound:     after.PrunedByBound - before.PrunedByBound,
		DuplicateHits:     after.DuplicateHits - before.DuplicateHits,
		PrunedByDominance: after.PrunedByDominance - before.PrunedByDominance,
		LandmarkHits:      after.LandmarkHits - before.LandmarkHits,
		PeakTable:         after.PeakTable,
		Workers:           after.Workers,
		WorkerExpanded:    after.WorkerExpanded - before.WorkerExpanded,
	}
}

// solverName defaults an empty solver field to the production method.
func solverName(s string) string {
	if s == "" {
		return "revised"
	}
	return s
}

// EncodeSweep writes the sweep response in the trajectory JSON format:
// two-space indentation plus a trailing newline, byte-identical to what
// `pcbench -json` prints and what BENCH_*.json files record.
func EncodeSweep(w io.Writer, resp *SweepResponse) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}
