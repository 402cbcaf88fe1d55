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
// # The revised simplex and its engine
//
// The production implementation (Options.Method == MethodRevised, the
// default) is a revised simplex.  The constraint matrix is kept in a
// read-only compressed sparse column form built once per Problem (with a CSR
// twin for row reads, see sparse.go); slack and artificial columns are
// singletons handled symbolically.  It has one engine: steepest-edge pricing
// over a sparse LU basis.  Options.Pricing and Options.Basis are ignored;
// they stay only because the serving benchmark sets them.
//
// Pricing (pricing.go).  The entering-column rule is a projected steepest
// edge: the entering column maximises rc_j^2 / gamma_j,
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
// After a run of degenerateSwitchSE (1,000) degenerate pivots pricing falls
// back to Bland's rule, paired with the smallest-index ratio test, which
// guarantees termination; the window is long because the paper's LPs run
// long degenerate stretches that are not cycles.  The flat path prices with
// Dantzig's rule (most negative reduced cost over a candidate list) and
// falls back to Bland after degenerateSwitch (50).  Solution.BlandIterations
// and the BlandPivots counter report how many pivots Bland priced.
//
// Basis (lu.go/eta.go).  The basis is factorized as a sparse LU:
// right-looking Gaussian elimination with
// Markowitz-style pivoting (minimum-count column from a bucket queue,
// minimum-row-count row within threshold partial pivoting at luPivotRel),
// BTRAN/FTRAN solved against the triangular factors directly, and fill-in
// tracked in Solution.LUFills.  Between refactorizations each pivot appends
// its FTRAN'd column as a product-form update in U-space — the
// untriangularised form of the Forrest–Tomlin column update — so the factors
// stay frozen and the update file stays short (refactorization every
// RefactorEvery pivots, or earlier when B·xB drifts from b beyond
// tolerance).  On the experiment-sized LPs the LU factors hold an order of
// magnitude fewer nonzeros than a product-form eta file rebuilt from scratch
// at every refactorization.
//
// A pivot pays only for the nonzeros it touches, and computes the
// same numbers as walking everything (Hall & McKinnon, "Hyper-sparsity in
// the revised simplex method", 2005).  FTRAN and BTRAN walk only the LU's
// step lists (luFactor.listSteps): the steps with L multipliers, and those
// with off-diagonal U entries or a diagonal other than 1.  On lp-cold about
// 338 of the U factor's ~666 steps and 515 of the L factor's are identities
// (slack, artificial and unit crash columns), and skipping them leaves every
// vector bit for bit as the full walk leaves it.  The steepest-edge engine's
// rho = B^-T e_r, the BTRAN'd leaving row (about 37 nonzeros in 670 rows),
// starts from a unit vector, so btranRow runs the update etas newest-first
// while keeping the short list of rows where rho may be nonzero, and skips
// the dot of any eta whose off-pivot rows (a row bitset per eta, written by
// pivot) hold none of them: about 7 of 46 etas are dotted.
// The LU part then runs only the live steps, those whose pivot row is on
// that list or which a nonzero result of an earlier step feeds (the factors'
// patterns, transposed at each factorization, say which), in the order btran
// runs them.  Rho then equals the plain BTRAN's up to the sign of zero
// entries, which the pivot-row assembly skips either way.  The candidate
// refill tests rc alone, because the engine keeps every basic column's rc at
// exactly 0.  TestSparseSolvesMatchFullWalks compares every such solve with
// the full walks, and checks the rc invariant at every refill.
//
// # Crash start
//
// The textbook cold start installs an identity basis: the slack of every <=
// row, and for = and >= rows an artificial that phase one must price out.
// The revised method's crash start changes that: an = or >= row that holds
// a unit column singleton — a structural column whose only nonzero is
// exactly +1, in that row — starts with that column basic instead, at b_i
// (non-negative after the row normalisation); with several, the lowest
// index wins.  Such a column is the
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
// cost 0 and coefficient +1.  At serving size most of a cold solve was phase
// one spent pricing out exactly those rows' artificials.
//
// A cold start then runs a second, triangular pass (after Bixby's crash
// basis), for the zero-RHS balance rows the unit pass leaves on their
// artificial (Σf − Σe = 0, Σe = 0).  In row order, each = row with b_i = 0
// that still holds its artificial takes the lowest-index nonbasic
// structural column with a ±1 entry in the row and no entry in a row this
// pass claimed before it (Problem.TriangularCrashColumn; the table is built
// with the CSC form, so a solve allocates nothing for it).  The claimed
// columns form a lower triangular block with a ±1 diagonal beside the
// singleton basics, so the basis is nonsingular, and because every claimed
// row's b_i is 0 each claimed column is basic at exactly 0: the basic values
// are those of the unit crash, feasible and unchanged.  The basis is no
// longer the identity, so one factorization replaces the empty LU.  On
// lp-cold's 126 instances the unit pass leaves about 206 zero-valued
// artificials per solve (and 9 positive ones); the triangular pass claims
// about 172 of them, which phase one would otherwise swap out one
// degenerate pivot at a time.  With the crash,
// BenchmarkRevisedSolveServeSize (n=40, D=3) takes 359 pivots, 150 of them
// in phase one, instead of 1,261 and 992 from the identity start, and 460
// and 333 with the unit pass alone under the former 50-pivot Bland window
// on steepest edge.  Its time moved less than its pivots: the pivots the
// crash removes are phase one's cheapest, on a near-identity basis, the
// crashed phase one ends on another vertex from which phase two takes 209
// pivots instead of 127, each reading a denser BTRAN'd row, and the crash
// basis is factored before the first pivot, so every solve walked all of
// the factor's steps, identities included.  The sparse solves of Basis took
// its time from a median of 17.8 ms to 13.0 ms with the same 359 pivots
// (five alternating runs on 2 vCPUs).
//
// The triangular pass runs on the cold path only.  A dual transplant keeps
// load's columns in the appended rows (see Dual re-optimization), and
// SolveFrom replaces the whole basis.  The flat path keeps the identity
// start, which keeps the cascade's reference rung independent of the crash;
// the crash tests use it as their oracle.
//
// # Warm starts
//
// Every solve starts cold unless its caller hands it a basis: the answer of
// Solve depends only on the problem and the options, never on what the
// Solver solved before.  A caller that wants a warm start asks for it
// explicitly: Solver.SolveFrom replays a WarmBasis snapshot (captured via
// Options.CaptureBasis into Solution.Basis) instead of the phase-1 crash
// basis.  The snapshot transfers only when the target problem has the same
// shape (rows, variables, constraint senses), refactorizes without going
// singular, and yields a primal feasible point; otherwise the solve silently
// cold-starts, so warm starting is always safe to request.  On a degenerate
// problem a warm start may end on another optimal vertex than a cold solve,
// which is why the one-shot paths never warm-start.  Options.WarmStart is
// ignored; it is kept only because the serving benchmark still sets it.
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
// violate primal feasibility.  The argument needs S to be unit vectors,
// which is why the transplant never installs the triangular crash: a
// triangular column may have entries in the old rows, which breaks the
// block form, and may have a cost, which moves the old columns' reduced
// costs.  Solver.SolveDualFrom transplants the snapshot (installBasisDual
// accepts donor artificials and skips the primal-feasibility gate
// installBasis enforces), runs dual simplex pivots that drive out the worst
// primal violation per pivot while keeping reduced costs non-negative
// (ratio ties go to the largest pivot element, as in the primal
// ratioTestSE), and finishes with an ordinary primal phase that prices in
// the appended columns — the only ones that can carry
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
// A sweep solves many LPs of similar size.  Batch (batch.go) owns one Solver
// — tableau scratch, eta/LU storage, candidate lists, all sized by the first
// solve and reused allocation-free — plus one arena for the solutions' dual
// certificates, so in steady state a batched solve performs exactly two
// allocations (the Solution and its X vector), a property
// scripts/allocguard.sh pins.  A batched solve is cold and bit-identical to
// the same solve on a fresh Solver, whatever the batch solved before; that
// keeps recorded benchmark tables and served bytes independent of batching.
// A solution's certificate lives in the arena until the next solve through
// the batch, so it must be verified before then.
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
// budget abandons the rung and re-solves one rung down — first the revised
// method cold (discarding a possibly poisoned warm basis), then MethodFlat,
// the independent reference.  Infeasible/Unbounded are accepted only from the final rung,
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
// engine from a cold start, which is bit-identical to an unfaulted cold
// solve, so callers that cache or compare response bytes (the service tier)
// serve the same bytes whether or not a fault was healed.  SetFaultHook
// (fault.go) is the test-only seam that lets internal/faultinject corrupt
// factorizations, reported objectives and refactorizations on chosen rungs
// to prove exactly that.
//
// Every working buffer of both implementations lives on a reusable Solver, so
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
