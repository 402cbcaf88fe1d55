// Package service exposes the prefetching/caching algorithms and the
// experiment suite as a long-lived HTTP/JSON service (command pcserve).
//
// Three request families are served:
//
//   - POST /v1/schedule computes one schedule: the request names an instance
//     (an explicit reference sequence, a generated workload, or the pfcache
//     text format) and a strategy (aggressive, conservative, delay:<d>,
//     delay:auto, combination, demand-*, lp-optimal, opt, ...), and the
//     response carries the schedule, its stall/elapsed time and the
//     solver/search counters of the computation.
//   - POST /v1/sweep runs whole named experiments (E1-E8, A1, A2) through
//     experiments.RunAll and streams exactly the JSON that `pcbench -json`
//     emits; pcbench itself builds its -json output through RunSweep, so the
//     CLI and the service are thin clients of one code path.
//   - The session family serves evolving traces incrementally.  POST
//     /v1/session opens a session over an instance and returns its plan plus
//     a session ID; POST /v1/session/{id}/extend appends requests to the
//     trace and re-plans; DELETE /v1/session/{id} closes it.  A session owns
//     a live LP model and solver pinned to one shard: an extension grows the
//     model in place (lpmodel.Model.Extend) and re-optimises with the dual
//     simplex from the previous optimal basis (lp.Options.Dual) instead of
//     rebuilding, which is what makes per-step re-planning O(pivots changed)
//     rather than O(whole program).  Extensions naming brand-new blocks,
//     numeric taints, evictions and restarts all fall back transparently to
//     a cold rebuild of the session's full transcript.  Sessions live in a
//     bounded LRU with an idle TTL; every session solve runs under the
//     verification cascade, so an extension's plan is cost-equivalent —
//     same certified LP bound, same stall — to a cold /v1/schedule of the
//     full extended trace.  An unknown, closed or expired session ID is a
//     404, which a session-aware front tier treats as "replay the
//     transcript onto a fresh session".
//
// Internally, schedule requests are sharded by the instance's canonical
// fingerprint (core.Instance.Fingerprint) onto a fixed set of worker shards.
// Each shard processes its requests serially on one goroutine and owns a
// reusable lpmodel.ModelBatch: the built LP models of its recent instances
// and one lp.Solver whose arenas are sized once and reused allocation-free.
// Requests for the same instance always hash to the same shard, so a
// repeated instance (a cache miss after eviction) skips the model rebuild;
// its solve still starts cold, so it is served the bytes of its first
// answer.  Across shards nothing is shared, so no tableau is ever touched
// by two concurrent solves.  A shard's batch lives until a solve on it is tainted
// (see below); only then is it discarded wholesale.  In front of the shards
// sit a bounded LRU cache keyed by the canonical instance encoding plus the
// strategy (so repeated requests are answered from memory, byte-identically)
// and an in-flight table that coalesces duplicate concurrent requests into a
// single computation.
//
// Sweeps run beside schedule and session traffic, and beside each other,
// with no lock between them.  A sweep runs on its own experiments.Config —
// engines, worker count, batch pool and fresh lp/opt counter sinks — so the
// counter blocks in its output count exactly its own work and stay
// byte-reproducible however busy the server is.  Schedules and sessions
// count their work in their shard's sinks; /v1/stats reports the sum of the
// shards' sinks and of every finished sweep's.
//
// The service is hardened for fleet use behind a front tier (internal/front,
// command pcfront):
//
//   - Request contexts thread from the HTTP handler through the coalescing
//     table and shard queues into the solver loop, so a disconnected client
//     or an expired deadline cancels the work it queued; a coalesced
//     follower's cancellation only detaches that follower, and the shared
//     computation itself stops when its last waiter is gone.
//   - Shard queues are bounded; beyond the configured depth requests shed
//     with 503 and a Retry-After hint instead of queueing unboundedly, and a
//     server-side ScheduleTimeout maps to 504.
//   - Solver panics are recovered per-request into 500s (and counted), so
//     one poisoned instance cannot take the process down.
//   - lp-optimal solves run with the solver's verification cascade
//     (lp.Options.Cascade): every served LP solution carries a passed
//     certificate, and a solve damaged by numeric faults re-solves itself
//     down the engine ladder, byte-identically to a clean solve.  A shard
//     whose solve was downgraded — or whose solver panicked — discards its
//     whole batch for a fresh one (counted in /v1/stats as solver_resets):
//     the models and solver buffers that were live during the failure are
//     suspect, so latent corruption never carries into later requests.  A cascade exhausted on every rung
//     surfaces as a typed 500 carrying the lp.CascadeExhaustedError text,
//     which the front tier treats as retryable; failures are never cached.
//     The lp block of /v1/stats exposes verified_solves, verify_failures
//     and cascade_fallbacks for dashboards to alarm on.  Its
//     symbolic_reuses, numeric_refactors and ft_updates fields are always
//     0, kept for the wire format.
//   - Request bodies are bounded (413 beyond 16 MiB), and /healthz
//     (liveness: always 200 while the process runs) is split from /readyz
//     (readiness: 503 after BeginDrain), which lets a supervisor drain a
//     replica before stopping it.
package service
