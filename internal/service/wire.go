package service

import (
	"pfcache/internal/lp"
	"pfcache/internal/opt"
	"pfcache/internal/report"
)

// WorkloadSpec describes a generated request sequence.  Kind selects the
// generator of package workload; the other fields parameterise it (unused
// fields are ignored by the selected kind).
type WorkloadSpec struct {
	// Kind is one of "uniform", "zipf", "scan", "loop", "phased",
	// "interleaved" or "mixed".
	Kind string `json:"kind"`
	// N is the number of requests (uniform, zipf, scan, interleaved, mixed).
	N int `json:"n,omitempty"`
	// Blocks is the number of distinct blocks (uniform, zipf, scan; the loop
	// length for "loop"; the random-region size for "mixed"; the per-phase
	// working-set size for "phased").
	Blocks int `json:"blocks,omitempty"`
	// S is the Zipf exponent ("zipf" only).
	S float64 `json:"s,omitempty"`
	// Seed seeds the random generators (uniform, zipf, phased, mixed).
	Seed int64 `json:"seed,omitempty"`
	// Repeats is the number of passes for "loop".
	Repeats int `json:"repeats,omitempty"`
	// Phases and PerPhase shape the "phased" workload; Overlap is the number
	// of blocks consecutive working sets share.
	Phases   int `json:"phases,omitempty"`
	PerPhase int `json:"per_phase,omitempty"`
	Overlap  int `json:"overlap,omitempty"`
	// Streams and StreamLen shape the "interleaved" workload.
	Streams   int `json:"streams,omitempty"`
	StreamLen int `json:"stream_len,omitempty"`
	// ScanBlocks and Burst shape the "mixed" workload.
	ScanBlocks int `json:"scan_blocks,omitempty"`
	Burst      int `json:"burst,omitempty"`
}

// ScheduleRequest asks the service for one schedule.  Exactly one instance
// source must be set: Instance (the pfcache text format), Seq (an explicit
// reference sequence) or Workload (a generated sequence).
type ScheduleRequest struct {
	// Strategy names the algorithm: any name accepted by single.ByName for
	// single-disk instances (aggressive, conservative, combination,
	// delay:auto, delay:<d>, online:<w>, demand-min, demand-lru,
	// demand-fifo), any name accepted by parallel.ByName (lp-optimal,
	// aggressive, conservative, demand), or "opt" for the exact search.
	Strategy string `json:"strategy"`

	// Instance is a whole instance in the pfcache text format ("pfcache-
	// instance v1"); when set it carries k, F, disks and the sequence, and
	// the fields below are ignored.
	Instance string `json:"instance,omitempty"`

	// Seq is an explicit reference sequence of block IDs.
	Seq []int `json:"seq,omitempty"`
	// Workload generates the reference sequence instead of Seq.
	Workload *WorkloadSpec `json:"workload,omitempty"`

	// K, F and Disks shape the instance built from Seq or Workload.
	K     int `json:"k,omitempty"`
	F     int `json:"f,omitempty"`
	Disks int `json:"disks,omitempty"`
	// Assign selects the block-to-disk assignment for Disks > 1: "stripe"
	// (default), "partition" or "random" (seeded by AssignSeed).
	Assign     string `json:"assign,omitempty"`
	AssignSeed int64  `json:"assign_seed,omitempty"`
	// InitialCache lists blocks resident before the first request.
	InitialCache []int `json:"initial_cache,omitempty"`

	// IncludeSchedule adds the fetch list to the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
}

// FetchWire is one fetch operation of a schedule.  Block IDs are plain
// integers; -1 is "no block" (a fetch into a free cache location).
type FetchWire struct {
	Disk       int `json:"disk"`
	After      int `json:"after"`
	MinTime    int `json:"min_time,omitempty"`
	Block      int `json:"block"`
	Evict      int `json:"evict"`
	EvictAtEnd int `json:"evict_at_end"`
}

// LPInfo reports the linear-programming work behind an lp-optimal schedule.
type LPInfo struct {
	LowerBound  float64 `json:"lower_bound"`
	Integral    bool    `json:"integral"`
	Offset      float64 `json:"offset"`
	Variables   int     `json:"variables"`
	Constraints int     `json:"constraints"`
	Iterations  int     `json:"iterations"`
	Candidates  int     `json:"candidates"`
}

// OptInfo reports the exact-search work behind an opt schedule.
type OptInfo struct {
	Expanded          int    `json:"expanded"`
	Generated         int    `json:"generated"`
	PrunedByBound     int    `json:"pruned_by_bound"`
	DuplicateHits     int    `json:"duplicate_hits"`
	PrunedByDominance int    `json:"pruned_by_dominance"`
	LandmarkHits      int    `json:"landmark_hits"`
	PeakTable         int    `json:"peak_table"`
	SeedAlgorithm     string `json:"seed_algorithm,omitempty"`
	SeedStall         int    `json:"seed_stall"`
	SeedOptimal       bool   `json:"seed_optimal"`
}

// ScheduleResponse is the outcome of one schedule request.  Responses are
// deterministic functions of the request, so the cache can replay them
// byte-identically.
type ScheduleResponse struct {
	// Key is the canonical instance fingerprint (hex), the value the service
	// shards and caches by (combined with the strategy).
	Key      string `json:"key"`
	Strategy string `json:"strategy"`

	// Instance summary.
	N          int `json:"n"`
	K          int `json:"k"`
	F          int `json:"f"`
	Disks      int `json:"disks"`
	Blocks     int `json:"blocks"`
	ColdMisses int `json:"cold_misses"`

	// Executed cost of the schedule.
	Stall      int `json:"stall"`
	Elapsed    int `json:"elapsed"`
	FetchCount int `json:"fetch_count"`
	ExtraCache int `json:"extra_cache"`

	Schedule []FetchWire `json:"schedule,omitempty"`
	LP       *LPInfo     `json:"lp,omitempty"`
	Opt      *OptInfo    `json:"opt,omitempty"`

	// downgrades counts the cascade rungs the LP solve abandoned before
	// verifying.  Deliberately unexported: a recovered response must stay
	// byte-identical to a clean one on the wire, and the field only exists so
	// the shard layer can discard a solver that needed recovering.
	downgrades int
}

// SessionCreateRequest opens a planning session (POST /v1/session) over an
// instance described exactly like a one-shot schedule request.  Sessions
// serve the lp-optimal strategy (Strategy may be left empty).  Session
// optionally pins the session identifier — clients normally leave it empty
// and use the server-assigned ID, while a session-aware front tier sets it
// so a transcript replayed onto another backend keeps the client's handle.
type SessionCreateRequest struct {
	ScheduleRequest
	Session string `json:"session,omitempty"`
}

// SessionExtendRequest appends requests to a session's trace
// (POST /v1/session/{id}/extend) and asks for the re-planned schedule.
type SessionExtendRequest struct {
	// Requests are the appended block references, in order.  They must name
	// blocks of the session's instance (referenced or initially cached): a
	// block the built program has never seen would need a rebuild with a disk
	// assignment the session cannot invent, and is rejected as a client error.
	Requests []int `json:"requests"`

	// IncludeSchedule adds the fetch list to the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
}

// SessionResponse answers a session create or extend: the session handle,
// the current trace length, and the schedule response for the full trace so
// far — assembled by the same code as a one-shot lp-optimal request for that
// trace.  Rebuilt reports that this answer came from a cold transcript
// replay (a numeric taint forced the session to discard its warm state); the
// result is the same either way, only the path to it differs.
type SessionResponse struct {
	Session string            `json:"session"`
	Length  int               `json:"length"`
	Rebuilt bool              `json:"rebuilt,omitempty"`
	Result  *ScheduleResponse `json:"result"`
}

// SessionCloseResponse answers DELETE /v1/session/{id}.  Closed is false
// when the session was already gone (closed, evicted or expired) — closing
// is idempotent, so that is a 200, not an error.
type SessionCloseResponse struct {
	Session string `json:"session"`
	Closed  bool   `json:"closed"`
}

// TableWire is the wire form of one experiment result table.  Its JSON tags
// are the stable BENCH_*.json trajectory format.
type TableWire struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Seconds float64    `json:"seconds,omitempty"`
}

// Table converts the wire table back into a renderable report.Table; the
// experiment ID and title become the table title, mirroring how pcbench
// labels its text output.
func (t *TableWire) Table() *report.Table {
	return &report.Table{
		Title:   t.ID + ": " + t.Title,
		Note:    t.Note,
		Headers: t.Headers,
		Rows:    t.Rows,
	}
}

// LPCountersWire mirrors lp.Counters with the stable JSON names of the
// trajectory format.
type LPCountersWire struct {
	Solves           uint64 `json:"solves"`
	Iterations       uint64 `json:"iterations"`
	Phase1Pivots     uint64 `json:"phase1_pivots"`
	PricingPasses    uint64 `json:"pricing_passes"`
	Refactorizations uint64 `json:"refactorizations"`
	EtaColumns       uint64 `json:"eta_columns"`
	LUFills          uint64 `json:"lu_fills"`
	WarmStarts       uint64 `json:"warm_starts"`
	VerifiedSolves   uint64 `json:"verified_solves"`
	VerifyFailures   uint64 `json:"verify_failures"`
	CascadeFallbacks uint64 `json:"cascade_fallbacks"`
	SymbolicReuses   uint64 `json:"symbolic_reuses"`
	NumericRefactors uint64 `json:"numeric_refactors"`
	DualPivots       uint64 `json:"dual_pivots"`
	// FTUpdates is always 0: the solver no longer has a Forrest–Tomlin
	// update.  The field stays until the trajectory format drops it.
	FTUpdates uint64 `json:"ft_updates"`
}

// lpCountersWire converts an lp.Counters snapshot to its wire form.
func lpCountersWire(c lp.Counters) LPCountersWire {
	return LPCountersWire{
		Solves:           c.Solves,
		Iterations:       c.Iterations,
		Phase1Pivots:     c.Phase1Pivots,
		PricingPasses:    c.PricingPasses,
		Refactorizations: c.Refactorizations,
		EtaColumns:       c.EtaColumns,
		LUFills:          c.LUFills,
		WarmStarts:       c.WarmStarts,
		VerifiedSolves:   c.VerifiedSolves,
		VerifyFailures:   c.VerifyFailures,
		CascadeFallbacks: c.CascadeFallbacks,
		SymbolicReuses:   c.SymbolicReuses,
		NumericRefactors: c.NumericRefactors,
		DualPivots:       c.DualPivots,
	}
}

// optCountersWire converts an opt.Counters snapshot to its wire form.
func optCountersWire(c opt.Counters) OptCountersWire {
	w := OptCountersWire{
		Searches:          c.Searches,
		Expanded:          c.Expanded,
		Generated:         c.Generated,
		PrunedByBound:     c.PrunedByBound,
		DuplicateHits:     c.DuplicateHits,
		PrunedByDominance: c.PrunedByDominance,
		LandmarkHits:      c.LandmarkHits,
		PeakTable:         c.PeakTable,
	}
	if c.Searches > 0 {
		w.Workers = 1
	}
	return w
}

// OptCountersWire mirrors opt.Counters with the stable JSON names of the
// trajectory format.
type OptCountersWire struct {
	Searches          uint64 `json:"searches"`
	Expanded          uint64 `json:"expanded"`
	Generated         uint64 `json:"generated"`
	PrunedByBound     uint64 `json:"pruned_by_bound"`
	DuplicateHits     uint64 `json:"duplicate_hits"`
	PrunedByDominance uint64 `json:"pruned_by_dominance"`
	LandmarkHits      uint64 `json:"landmark_hits"`
	PeakTable         uint64 `json:"peak_table"`
	// Workers is 1 when the block counted any search, else 0, and
	// WorkerExpanded is always 0: every search runs on one goroutine.  Both
	// stay until the trajectory format drops them.
	Workers        uint64 `json:"workers"`
	WorkerExpanded uint64 `json:"worker_expanded"`
}

// SweepRequest runs named experiments.  An empty IDs list runs the whole
// suite.
type SweepRequest struct {
	IDs []string `json:"ids,omitempty"`
	// Stable omits per-experiment wall times so repeated sweeps are
	// byte-identical (the -stable flag of pcbench).
	Stable bool `json:"stable,omitempty"`
	// Workers is the experiment pool size (0 = one per CPU, 1 = sequential).
	Workers int `json:"workers,omitempty"`
	// Solver selects the simplex implementation ("revised" or "flat";
	// default "revised").
	Solver string `json:"solver,omitempty"`
	// Pricing overrides the revised simplex's entering-column rule
	// ("steepest-edge" or "dantzig"); empty keeps the suite's pinned
	// reproduction rule (dantzig — see experiments.Config).
	Pricing string `json:"pricing,omitempty"`
	// Basis overrides the revised simplex's basis representation ("lu" or
	// "eta"); empty keeps the suite's pinned reproduction representation
	// (eta — see experiments.Config).
	Basis string `json:"basis,omitempty"`
}

// SweepResponse is the result of a sweep.  Its encoding (see EncodeSweep) is
// byte-identical to `pcbench -json` output for the same configuration.
type SweepResponse struct {
	Solver  string      `json:"solver"`
	Pricing string      `json:"pricing"`
	Basis   string      `json:"basis"`
	Results []TableWire `json:"results"`
	// Timings carries ns/op wall-clock figures for the named Go benchmarks
	// of this revision (scripts/bench.sh fills it via `pcbench -timings`).
	// It is informational: cmd/benchdiff never compares it.
	Timings map[string]float64 `json:"timings,omitempty"`
	LP      LPCountersWire     `json:"lp"`
	Opt     OptCountersWire    `json:"opt"`
}

// StatsResponse reports service-level counters (GET /v1/stats), including
// the LP-solver and exact-search counters of the server's work — the same
// blocks `pcbench -json` embeds, so a live server's solver work is
// observable without running a sweep.
type StatsResponse struct {
	Shards       int    `json:"shards"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	Coalesced    uint64 `json:"coalesced"`
	Evictions    uint64 `json:"evictions"`
	Computed     uint64 `json:"computed"`
	Sweeps       uint64 `json:"sweeps"`

	// Robustness counters: requests shed on a full shard queue (503s),
	// panics recovered into errors, requests abandoned by their client, and
	// requests that hit the server-side schedule deadline.
	Shed     uint64 `json:"shed"`
	Panics   uint64 `json:"panics"`
	Canceled uint64 `json:"canceled"`
	Timeouts uint64 `json:"timeouts"`
	Draining bool   `json:"draining"`

	// Session counters: live sessions, lifecycle events, sessions dropped by
	// the LRU bound or the idle TTL, and extensions that had to discard their
	// warm state and replay the transcript cold (session_rebuilds).
	Sessions           int    `json:"sessions"`
	SessionCreates     uint64 `json:"session_creates"`
	SessionExtends     uint64 `json:"session_extends"`
	SessionCloses      uint64 `json:"session_closes"`
	SessionEvictions   uint64 `json:"session_evictions"`
	SessionExpirations uint64 `json:"session_expirations"`
	SessionRebuilds    uint64 `json:"session_rebuilds"`

	// SolverResets counts shard solvers discarded after a numerical failure
	// (a solve that needed the verification cascade, a cascade exhaustion,
	// or a recovered panic): the next request on that shard starts from a
	// fresh solver instead of possibly-poisoned warm state.  The lp block's
	// verify_failures / cascade_fallbacks counters record the failures
	// themselves.
	SolverResets uint64 `json:"solver_resets"`

	LP  LPCountersWire  `json:"lp"`
	Opt OptCountersWire `json:"opt"`
}
