// Package lp is a small linear-programming solver built for the
// prefetching/caching linear programs of Section 3 of the paper.
//
// The paper's parallel-disk algorithm needs "an optimal solution of the
// relaxed linear program", which it treats as a black box.  Because this
// repository uses only the Go standard library, the solver is implemented
// here from scratch: a two-phase primal simplex method over problems of the
// form
//
//	minimize    c'x
//	subject to  a_i'x {<=,=,>=} b_i     for every constraint i
//	            x >= 0
//
// Phase one minimises the sum of artificial variables to find a basic
// feasible solution (detecting infeasibility), phase two optimises the real
// objective (detecting unboundedness).
//
// # The revised simplex and its inner engines
//
// The production implementation (Options.Method == MethodRevised, the
// default) is a revised simplex.  The constraint matrix is kept in a
// read-only compressed sparse column form built once per Problem (with a CSR
// twin for row reads, see sparse.go); slack and artificial columns are
// singletons handled symbolically.  Its two inner engines are selectable:
//
// Pricing (Options.Pricing, pricing.go).  The default PricingSteepestEdge is
// a projected steepest edge: the entering column maximises rc_j^2 / gamma_j,
// where gamma_j approximates the projected column norm 1 + |B^-1 A_j|^2
// through Devex-style reference weights.  The engine maintains the whole
// reduced-cost vector incrementally from the pivot row (one BTRAN of the
// leaving row's unit vector, whose support assembles the pivot row sparsely
// through the CSR view), so a pivot costs one FTRAN, one BTRAN and a pass
// over the pivot row's fill — there is no per-pivot duals solve and no
// per-pivot repricing.  The entering column's exact weight is read off its
// FTRAN each pivot; when the stored weight has drifted beyond seDriftRatio
// the whole reference framework resets to unit weights (the Devex fallback).
// Maintained reduced costs are confirmed against freshly computed duals
// before optimality is declared, so incremental round-off can never
// terminate a solve early.  The leaving row breaks ratio-test ties towards
// basic artificials and then the largest pivot element (ratioTestSE).
// PricingDantzig keeps the PR-1/PR-2 rule — most negative reduced cost over
// a candidate list, duals recomputed per pivot — as the reference
// implementation and the rule the experiment suite pins for reproducing the
// committed BENCH_*.json schedule values.  Both rules fall back to Bland's
// rule after a run of degenerate pivots, which guarantees termination.
//
// Basis (Options.Basis, lu.go/eta.go).  The default BasisLU factorizes the
// basis as a sparse LU: right-looking Gaussian elimination with
// Markowitz-style pivoting (minimum-count column from a bucket queue,
// minimum-row-count row within threshold partial pivoting at luPivotRel),
// BTRAN/FTRAN solved against the triangular factors directly, and fill-in
// tracked in Solution.LUFills.  Between refactorizations each pivot appends
// its FTRAN'd column as a product-form update in U-space — the
// untriangularised form of the Forrest–Tomlin column update — so the factors
// stay frozen and the update file stays short (refactorization every
// RefactorEvery pivots, or earlier when B·xB drifts from b beyond
// tolerance).  BasisEta keeps the PR-2 representation — a pure product-form
// eta file rebuilt from scratch at every refactorization — as the reference;
// on the experiment-sized LPs the LU factors hold an order of magnitude
// fewer nonzeros than the reinversion's eta columns, which is where most of
// the revised path's speedup over PR-2 comes from.
//
// # Crash start
//
// A cold start installs an identity basis: the slack of every <= row, and
// for = and >= rows an artificial that phase one must price out.  On the
// BasisLU engine an = or >= row that holds a unit column singleton — a
// structural column whose only nonzero is exactly +1, in that row — starts
// with that column basic instead, at b_i (non-negative after the row
// normalisation); with several, the lowest index wins.  Such a column is the
// row's unit vector, so the basis is still the identity, the empty LU and
// update-eta factors stay exact, and no initial factorization runs.  The
// row's artificial keeps its column index, nonbasic at zero (phase one may
// still price it back in), so WarmBasis snapshots, installBasisDual's column
// arithmetic and the artificial column range are unchanged.  Which column
// serves which row is a property of the matrix: it is found once when the
// CSC form is built (Problem.CrashColumn reports it), not per solve.
//
// The paper's model is full of such rows: each interval's per-disk fetch
// balance holds that disk's scratch column (the idle fetch of Lemma 3), with
// cost 0 and coefficient +1.  At serving size most of a cold solve is phase
// one spent pricing out exactly those rows' artificials; with the crash,
// BenchmarkRevisedSolveServeSize (n=40, D=3) takes 460 pivots, 333 of them
// in phase one, instead of 1,261 and 992.
//
// BasisEta keeps the identity start.  It is the engine the experiment suite
// pins (with PricingDantzig) and the cascade's Dantzig+eta reference rung.
// The committed BENCH rows were recorded from its identity start, and a
// crash start lands some degenerate E2/E7 programs on other optimal
// vertices, whose rounded schedules differ; it also keeps the reference rung
// independent of the crash.
//
// # Warm starts
//
// A solve can start from the optimal basis of an earlier solve instead of
// the phase-1 crash basis: Solver.SolveFrom replays an explicit WarmBasis
// snapshot (captured via Options.CaptureBasis into Solution.Basis), and
// Options.WarmStart replays the Solver's own last optimal basis.  The
// snapshot transfers only when the target problem has the same shape (rows,
// variables, constraint senses), refactorizes without going singular, and
// yields a primal feasible point; otherwise the solve silently cold-starts,
// so warm starting is always safe to request.  On the identical problem a
// warm start terminates without a single pivot at the donor's vertex — the
// contract the E8 row loop (lower-bound solve then planning solve of the
// same instance) and the service shards rely on, and what makes warm-started
// sweeps solve in half the pivots of cold ones.
//
// # Dual re-optimization
//
// Warm starts as described above require the donor basis to be primal
// feasible on the target problem, which a grown problem never satisfies.
// Options.Dual (dual.go) covers exactly that shape: when a problem is
// extended in place by appended rows and columns (Problem.AddVariable,
// AddConstraint, ExtendConstraint on old rows gaining only new columns), the
// old optimal basis B extends to B' = [[B, 0], [C, S]] with the new rows'
// cold-start columns in S (slacks, artificials and crash unit columns, all
// unit vectors).  When the crash columns cost nothing, as the paper model's
// scratch columns do, B' keeps every old column's reduced cost — the
// transplant is dual feasible by construction — while the appended rows may
// violate primal feasibility.  Solver.SolveDualFrom transplants the
// snapshot (installBasisDual accepts donor artificials and skips the
// primal-feasibility gate installBasis enforces), runs dual
// simplex pivots that drive out the worst primal violation per pivot while
// keeping reduced costs non-negative, and finishes with an ordinary primal
// phase that prices in the appended columns — the only ones that can carry
// negative reduced costs.  A stalled dual phase (dualStallWindow pivots
// without violation progress), an exhausted budget or any non-optimal exit
// abandons the transplant for the cold two-phase primal start, so Dual is
// always safe to request; under Options.Cascade the result additionally
// passes the independent certificate like any other solve.
//
// Solution and the Stats sinks count DualPivots alongside the primal
// counters, so pcbench's trajectory files record how much of a sweep's
// work the incremental path saved.
//
// The PR-1 flat-tableau implementation survives behind MethodFlat — one
// contiguous row-major []float64 with the artificial columns as a trailing
// index range — as the middle rung of the property-test lattice (revised vs
// flat vs the retired dense reference) and as the automatic fallback should
// a refactorization ever go numerically singular.
//
// # Batched solving
//
// A sweep solves many LPs that share one structure: the same constraint
// pattern with different numbers, or literally the same Problem solved
// twice (the E8 lower-bound-then-plan loop, a service shard's repeated
// instance).  Batch (batch.go) amortises everything such solves can share,
// at three layers:
//
// Symbolic factorization (lusym.go).  Factorizing a basis decomposes into a
// symbolic phase — the Markowitz pivot order and the fill pattern, which
// depend only on the nonzero structure — and the numeric elimination.  Every
// BasisLU factorization records its skeleton (pivot order, per-step target
// columns, update and fill keep/drop decisions) into a per-Solver cache
// keyed by (problem pattern fingerprint, basis fingerprint); the next
// factorization of the same pattern pair replays the recording against the
// new values instead of re-running pivot selection.  The replay re-verifies
// every value-dependent decision it replays (threshold pivot-row election,
// update predicates, drop-tolerance calls) and falls back to a full
// factorization on the first mismatch, so a passing replay is bit-identical
// to what a fresh factorization would compute — reuse changes cost, never
// bytes.  Solution.NumericRefactors counts refactorizations attempted
// through the cache and Solution.SymbolicReuses the successful replays.
//
// Pattern identity (fingerprint.go).  Problem.PatternFingerprint hashes the
// structural identity of a problem: variable and constraint counts, each
// constraint's coefficient positions, and — because they decide the
// slack/artificial column layout and signs in standard form — the bounds
// structure: every constraint's effective sense and right-hand-side sign.
// Two problems with identical coefficient positions but different fixed/free
// row structure therefore never alias one cached symbolic analysis.
//
// Arenas and warm state (batch.go).  A Batch owns one Solver — tableau
// scratch, eta/LU storage, candidate lists, all sized by the first solve and
// reused allocation-free — plus per-pattern slots holding a warm basis and a
// dual-certificate arena.  Batch.Solve warm-starts a member only when the
// caller opted in (Options.WarmStart) or the problem is the same unmutated
// Problem the member last solved; otherwise the solve is cold and
// bit-identical to the same solve on a fresh Solver, which is what keeps
// recorded benchmark tables independent of batching.  BatchSolve sweeps a
// whole problem list, surviving failed members without corrupting the
// arenas of the rest.  In steady state a batched solve performs exactly two
// allocations (the Solution and its X vector), a property
// scripts/allocguard.sh pins.  Batching composes with the cascade: a
// downgraded solve poisons the member's warm basis and the solver's whole
// symbolic cache, since skeletons recorded under suspect numerics must not
// vouch for later solves.
//
// # Verified solves and the engine cascade
//
// Verify (verify.go) checks a finished Solution against its Problem as an
// independent certificate: primal feasibility of X (variable bounds and
// per-constraint residuals, relative to 1+|b_i|), the reported objective
// against a recomputation c'x, and — for Optimal solutions, whose duals the
// revised solver captures at termination — dual feasibility of the priced
// reduced costs.  A failure is a *VerificationError naming the first check
// that failed ("bounds", "primal-residual", "objective",
// "dual-feasibility") and by how much.  The checks use only the Problem's
// own data, never the solver's factorization, so a corrupted basis inverse
// cannot vouch for itself.
//
// Options.Cascade (cascade.go) turns a solve into a self-healing ladder.
// Every Optimal result must pass Verify before it is returned; a failed
// certificate, a singular refactorization, or an exhausted per-rung pivot
// budget abandons the rung and re-solves one rung down — first the
// configured engines cold (discarding a possibly poisoned warm basis), then
// the reference engines (PricingDantzig over BasisEta) cold, finally
// MethodFlat.  Infeasible/Unbounded are accepted only from the final rung,
// since a damaged factorization can misreport either.  Solution.Downgrades
// records how many rungs were abandoned (0 = first try verified), and the
// VerifiedSolves/VerifyFailures/CascadeFallbacks counters of the caller's
// Stats sink make silent corruption observable.  If every rung fails, the solve returns
// *CascadeExhaustedError wrapping the last rung's error.  Without Cascade, a
// solve that exceeds Options.MaxIterations reports StatusIterLimit, and
// asking for more iterations than the budget allows yields
// *PivotBudgetError.
//
// The cascade's healing is exact, not approximate: rung 1 re-runs the same
// engines from a cold start, which is bit-identical to an unfaulted cold
// solve, so callers that cache or compare response bytes (the service tier)
// serve the same bytes whether or not a fault was healed.  SetFaultHook
// (fault.go) is the test-only seam that lets internal/faultinject corrupt
// factorizations, reported objectives and refactorizations on chosen rungs
// to prove exactly that.
//
// Every working buffer of all engines lives on a reusable Solver, so
// repeated solves — the experiment sweeps solve hundreds of similar-sized
// programs — run without allocating in steady state.  The package-level
// Solve draws Solvers from an internal pool; Solution carries pivot,
// pricing-pass, refactorization, eta-column, LU-fill, warm-start and
// allocation counters.
//
// # Counters
//
// A solve adds its counters to the Stats sink its Options.Stats names, and
// a solve without a sink is not counted; there is no package-level tally.
// The sink belongs to whoever reports the work: an experiment sweep passes
// fresh sinks down through experiments.Config, so its JSON block (pcbench's
// trajectory files, /v1/sweep bodies) counts exactly its own solves however
// much else the process is solving, and each pcserve shard owns a sink that
// /v1/stats sums with the sweeps'.  Sinks are atomic, so solves on several
// goroutines may share one, and their sums do not depend on the order the
// solves finish in.
//
// Numbers are float64 with explicit tolerances; the prefetching LPs are
// small and well scaled, and the experiment harness cross-checks the LP
// results against an exhaustive search, so this precision is sufficient.
package lp
