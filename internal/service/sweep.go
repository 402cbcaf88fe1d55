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
// the sweep's LP and exact-search counters, exactly as `pcbench -json`
// reports them: pcbench builds its output through this code, so the CLI and
// the /v1/sweep endpoint cannot drift apart.  It runs the suite's default
// configuration; see RunSweepWith.
func RunSweep(req *SweepRequest) (*SweepResponse, error) {
	return RunSweepWith(experiments.Config{}, req)
}

// RunSweepWith is RunSweep on top of base, with the request's choices
// applied by SweepConfig.  The sweep counts its solver work in base's sinks,
// or in fresh ones when they are nil, and reports the sinks' totals, so a
// sweep given fresh sinks reports exactly its own work however much other
// solver work runs beside it.  Nothing it touches is shared with other
// sweeps or with schedule traffic — each run owns its configuration, sinks
// and batch pool — so callers need no exclusion.  Partial results are
// returned alongside the error when individual experiments fail.
func RunSweepWith(base experiments.Config, req *SweepRequest) (*SweepResponse, error) {
	exps, err := ResolveExperiments(req.IDs)
	if err != nil {
		return nil, err
	}
	cfg, err := SweepConfig(base, req)
	if err != nil {
		return nil, err
	}
	if cfg.LPStats == nil {
		cfg.LPStats = new(lp.Stats)
	}
	if cfg.OptStats == nil {
		cfg.OptStats = new(opt.Stats)
	}
	results, runErr := experiments.RunAll(cfg, exps)

	resp := &SweepResponse{
		Solver:  cfg.Method.String(),
		Pricing: cfg.SolverPricing().String(),
		Basis:   cfg.SolverBasis().String(),
		Results: make([]TableWire, 0, len(results)),
		LP:      lpCountersWire(cfg.LPStats.Snapshot()),
		Opt:     optCountersWire(cfg.OptStats.Snapshot()),
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

// SweepConfig applies a sweep request's solver, pricing and basis choices to
// base, and its worker count when nonzero.
func SweepConfig(base experiments.Config, req *SweepRequest) (experiments.Config, error) {
	cfg := base
	var err error
	if cfg.Method, err = lp.ParseMethod(solverName(req.Solver)); err != nil {
		return cfg, err
	}
	if req.Pricing != "" {
		pricing, err := lp.ParsePricing(req.Pricing)
		if err != nil {
			return cfg, err
		}
		cfg.Pricing = &pricing
	}
	if req.Basis != "" {
		basis, err := lp.ParseBasis(req.Basis)
		if err != nil {
			return cfg, err
		}
		cfg.Basis = &basis
	}
	if req.Workers != 0 {
		cfg.Workers = req.Workers
	}
	return cfg, nil
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
