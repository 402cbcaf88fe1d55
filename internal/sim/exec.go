package sim

import (
	"fmt"

	"pfcache/internal/core"
)

// Options controls schedule execution.
type Options struct {
	// Trace records an event log in the result.
	Trace bool
	// DropRedundantFetches silently skips fetches whose block is already
	// resident (in cache or in flight) at initiation time instead of
	// reporting an error.  The number of skipped fetches is reported in
	// Result.DroppedFetches.
	DropRedundantFetches bool
}

// EventKind classifies trace events.
type EventKind int

// Event kinds recorded in the execution trace.
const (
	EventServe      EventKind = iota // a request was served
	EventStall                       // the processor stalled
	EventFetchStart                  // a fetch was initiated (and its eviction performed)
	EventFetchEnd                    // a fetch completed (block became resident)
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventServe:
		return "serve"
	case EventStall:
		return "stall"
	case EventFetchStart:
		return "fetch-start"
	case EventFetchEnd:
		return "fetch-end"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one entry of the execution trace.
type Event struct {
	// Time is the wall-clock time at which the event happened.
	Time int
	// Kind classifies the event.
	Kind EventKind
	// Request is the 0-based request position for serve and stall events,
	// and the cursor position for fetch events.
	Request int
	// Block is the block involved (served, fetched or arriving).
	Block core.BlockID
	// Evict is the block evicted for fetch-start events, or NoBlock.
	Evict core.BlockID
	// Disk is the disk involved for fetch events.
	Disk int
	// Duration is the stall length for stall events.
	Duration int
}

// String renders the event.
func (e Event) String() string {
	switch e.Kind {
	case EventServe:
		return fmt.Sprintf("t=%d serve r%d=%v", e.Time, e.Request+1, e.Block)
	case EventStall:
		return fmt.Sprintf("t=%d stall %d before r%d", e.Time, e.Duration, e.Request+1)
	case EventFetchStart:
		if e.Evict != core.NoBlock {
			return fmt.Sprintf("t=%d disk%d fetch %v evict %v", e.Time, e.Disk, e.Block, e.Evict)
		}
		return fmt.Sprintf("t=%d disk%d fetch %v", e.Time, e.Disk, e.Block)
	case EventFetchEnd:
		return fmt.Sprintf("t=%d disk%d loaded %v", e.Time, e.Disk, e.Block)
	default:
		return fmt.Sprintf("t=%d %v", e.Time, e.Kind)
	}
}

// Result reports the cost and resource usage of an executed schedule.
type Result struct {
	// Stall is the total processor stall time.
	Stall int
	// Elapsed is the elapsed time: the number of requests plus Stall.
	Elapsed int
	// Requests is the number of requests served.
	Requests int
	// FetchCount is the number of fetch operations performed.
	FetchCount int
	// MaxResident is the maximum number of cache locations in use at any
	// instant (resident blocks plus reserved locations of in-flight fetches).
	MaxResident int
	// ExtraCache is max(0, MaxResident - k): the number of memory locations
	// used beyond the nominal cache size.
	ExtraCache int
	// PerRequestStall[i] is the stall time incurred immediately before
	// serving request i.
	PerRequestStall []int
	// DroppedFetches counts redundant fetches skipped under
	// Options.DropRedundantFetches.
	DroppedFetches int
	// Events is the execution trace (only when Options.Trace is set).
	Events []Event
}

// Error types reported by the executor.

// MissingBlockError reports that a requested block was not resident and no
// pending fetch could deliver it, i.e. the schedule is infeasible.
type MissingBlockError struct {
	Request int
	Block   core.BlockID
}

func (e *MissingBlockError) Error() string {
	return fmt.Sprintf("request %d: block %v is not in cache and no pending fetch delivers it", e.Request+1, e.Block)
}

// EvictAbsentError reports an eviction of a block that is not resident.
type EvictAbsentError struct {
	FetchIndex int
	Block      core.BlockID
}

func (e *EvictAbsentError) Error() string {
	return fmt.Sprintf("fetch %d: evicted block %v is not in cache", e.FetchIndex, e.Block)
}

// RedundantFetchError reports a fetch of a block that is already resident or
// already being fetched.
type RedundantFetchError struct {
	FetchIndex int
	Block      core.BlockID
}

func (e *RedundantFetchError) Error() string {
	return fmt.Sprintf("fetch %d: block %v is already resident or in flight", e.FetchIndex, e.Block)
}

// queuedFetch is a fetch together with its index in the original schedule.
type queuedFetch struct {
	core.Fetch
	index int
}

// inflight describes the fetch currently executing on a disk.
type inflight struct {
	active     bool
	block      core.BlockID
	done       int
	evictAtEnd core.BlockID
	index      int
}

// executor holds the mutable state of one schedule execution.
type executor struct {
	in   *core.Instance
	opts Options

	queues  [][]queuedFetch // per-disk pending fetches, in order
	qpos    []int           // next queue index per disk
	flights []inflight      // per-disk in-flight fetch

	cache map[core.BlockID]bool

	pinned bool // the schedule carries wall-clock MinTime pins

	time   int
	served int
	stall  int

	res Result

	kept []bool // kept[i] reports whether schedule fetch i was executed
}

// Run executes the schedule on the instance and returns its cost, or an error
// if the schedule is infeasible.
func Run(in *core.Instance, sched *core.Schedule, opts Options) (*Result, error) {
	if err := validate(in, sched); err != nil {
		return nil, err
	}
	ex := newExecutor(in, sched, opts)
	if err := ex.run(); err != nil {
		return nil, err
	}
	return &ex.res, nil
}

// validate checks the instance and the schedule before an execution: the
// executor indexes its per-disk queues by each fetch's disk.
func validate(in *core.Instance, sched *core.Schedule) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("invalid instance: %w", err)
	}
	if err := sched.Validate(in); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	return nil
}

// Sanitize validates the instance and the schedule as Run does, executes the
// schedule with redundant fetches dropped, and returns a copy of the
// schedule containing only the fetches that were actually executed, together
// with the run's Result (DroppedFetches counts the dropped fetches).  It is
// used to clean up schedules produced by the linear-programming rounding,
// which may contain fetches of blocks that are already resident (such
// fetches never help and never hurt the stall time, so removing them is
// always safe).  A dropped fetch takes no disk time, so on a schedule whose
// fetches are in anchor order on each disk, as the rounding's are, the
// Result's cost is the clean copy's: the same stall, elapsed time, fetch
// count and residency a Run of the copy reports.
func Sanitize(in *core.Instance, sched *core.Schedule) (*core.Schedule, *Result, error) {
	if err := validate(in, sched); err != nil {
		return nil, nil, err
	}
	ex := newExecutor(in, sched, Options{DropRedundantFetches: true})
	if err := ex.run(); err != nil {
		return nil, nil, err
	}
	out := &core.Schedule{}
	for i, f := range sched.Fetches {
		if ex.kept[i] {
			out.Append(f)
		}
	}
	return out, &ex.res, nil
}

func newExecutor(in *core.Instance, sched *core.Schedule, opts Options) *executor {
	ex := &executor{
		in:      in,
		opts:    opts,
		queues:  make([][]queuedFetch, in.Disks),
		qpos:    make([]int, in.Disks),
		flights: make([]inflight, in.Disks),
		cache:   make(map[core.BlockID]bool, in.K),
		kept:    make([]bool, len(sched.Fetches)),
	}
	for i, f := range sched.Fetches {
		ex.queues[f.Disk] = append(ex.queues[f.Disk], queuedFetch{Fetch: f, index: i})
		if f.MinTime > 0 {
			ex.pinned = true
		}
	}
	for _, b := range in.InitialCache {
		ex.cache[b] = true
	}
	ex.res.PerRequestStall = make([]int, in.N())
	ex.res.MaxResident = len(in.InitialCache)
	return ex
}

// resident returns the number of cache locations currently in use.
func (ex *executor) resident() int {
	n := len(ex.cache)
	for d := range ex.flights {
		if ex.flights[d].active {
			n++
		}
	}
	return n
}

// noteResidency records the current residency in Result.MaxResident.
func (ex *executor) noteResidency() {
	if r := ex.resident(); r > ex.res.MaxResident {
		ex.res.MaxResident = r
	}
}

func (ex *executor) event(e Event) {
	if ex.opts.Trace {
		e.Time = ex.time
		ex.res.Events = append(ex.res.Events, e)
	}
}

// deliver completes every in-flight fetch whose completion time has been
// reached.
func (ex *executor) deliver() error {
	for d := range ex.flights {
		fl := &ex.flights[d]
		if !fl.active || fl.done > ex.time {
			continue
		}
		fl.active = false
		ex.cache[fl.block] = true
		ex.event(Event{Kind: EventFetchEnd, Request: ex.served, Block: fl.block, Disk: d})
		if fl.evictAtEnd != core.NoBlock {
			if !ex.cache[fl.evictAtEnd] {
				return &EvictAbsentError{FetchIndex: fl.index, Block: fl.evictAtEnd}
			}
			delete(ex.cache, fl.evictAtEnd)
		}
	}
	return nil
}

// startEligible initiates every fetch that is eligible (anchor reached, disk
// idle), in schedule order per disk.
func (ex *executor) startEligible() error {
	for d := range ex.queues {
		for !ex.flights[d].active && ex.qpos[d] < len(ex.queues[d]) {
			qf := ex.queues[d][ex.qpos[d]]
			if qf.After > ex.served || qf.MinTime > ex.time {
				break
			}
			ex.qpos[d]++
			if ex.cache[qf.Block] || ex.blockInFlight(qf.Block) {
				if ex.opts.DropRedundantFetches {
					ex.res.DroppedFetches++
					continue
				}
				return &RedundantFetchError{FetchIndex: qf.index, Block: qf.Block}
			}
			if qf.Evict != core.NoBlock {
				if !ex.cache[qf.Evict] {
					return &EvictAbsentError{FetchIndex: qf.index, Block: qf.Evict}
				}
				delete(ex.cache, qf.Evict)
			}
			ex.flights[d] = inflight{
				active:     true,
				block:      qf.Block,
				done:       ex.time + ex.in.F,
				evictAtEnd: qf.EvictAtEnd,
				index:      qf.index,
			}
			ex.kept[qf.index] = true
			ex.res.FetchCount++
			ex.event(Event{Kind: EventFetchStart, Request: ex.served, Block: qf.Block, Evict: qf.Evict, Disk: d})
			ex.noteResidency()
		}
	}
	return nil
}

func (ex *executor) blockInFlight(b core.BlockID) bool {
	for d := range ex.flights {
		if ex.flights[d].active && ex.flights[d].block == b {
			return true
		}
	}
	return false
}

// diskFetching returns the disk currently fetching block b, or -1.
func (ex *executor) diskFetching(b core.BlockID) int {
	for d := range ex.flights {
		if ex.flights[d].active && ex.flights[d].block == b {
			return d
		}
	}
	return -1
}

// reachable reports whether a pending (not yet started) fetch for block b can
// still be started given that the cursor is stuck at the current position:
// the fetch and every fetch queued ahead of it on the same disk must have
// their request-count anchor satisfied already (wall-clock lower bounds are
// satisfied simply by letting time pass).
func (ex *executor) reachable(b core.BlockID) bool {
	for d := range ex.queues {
		for i := ex.qpos[d]; i < len(ex.queues[d]); i++ {
			qf := ex.queues[d][i]
			if qf.After > ex.served {
				break
			}
			if qf.Block == b {
				return true
			}
		}
	}
	return false
}

// earliestTimeGate returns the smallest wall-clock lower bound, strictly in
// the future, among the fetches at the head of their disk queues whose
// request-count anchor is already satisfied.  It returns -1 if there is none.
func (ex *executor) earliestTimeGate() int {
	best := -1
	for d := range ex.queues {
		if ex.flights[d].active || ex.qpos[d] >= len(ex.queues[d]) {
			continue
		}
		qf := ex.queues[d][ex.qpos[d]]
		if qf.After > ex.served || qf.MinTime <= ex.time {
			continue
		}
		if best == -1 || qf.MinTime < best {
			best = qf.MinTime
		}
	}
	return best
}

// earliestCompletion returns the earliest completion time among in-flight
// fetches, or -1 if no fetch is in flight.
func (ex *executor) earliestCompletion() int {
	best := -1
	for d := range ex.flights {
		if ex.flights[d].active && (best == -1 || ex.flights[d].done < best) {
			best = ex.flights[d].done
		}
	}
	return best
}

func (ex *executor) run() error {
	n := ex.in.N()
	ex.noteResidency()
	for {
		if err := ex.deliver(); err != nil {
			return err
		}
		if err := ex.startEligible(); err != nil {
			return err
		}
		if ex.served == n {
			break
		}
		b := ex.in.Seq[ex.served]
		if ex.cache[b] {
			ex.event(Event{Kind: EventServe, Request: ex.served, Block: b})
			ex.time++
			ex.served++
			continue
		}
		// The requested block is missing: stall until it arrives, letting
		// in-flight fetches progress and starting newly startable fetches as
		// disks become idle.
		if d := ex.diskFetching(b); d >= 0 {
			next := ex.flights[d].done
			if ex.pinned {
				// A schedule with wall-clock pins (MinTime) encodes an exact
				// execution plan: a fetch may be pinned to start mid-stall,
				// possibly right after another disk's completion frees its
				// disk.  Advance through intermediate completions and time
				// gates so those initiations happen at their pinned times
				// instead of being lumped together at b's delivery.  Unpinned
				// schedules take the single jump, as before.
				if ec := ex.earliestCompletion(); ec < next {
					next = ec
				}
				if gate := ex.earliestTimeGate(); gate > ex.time && gate < next {
					next = gate
				}
			}
			ex.addStall(next - ex.time)
			ex.time = next
			continue
		}
		if !ex.reachable(b) {
			return &MissingBlockError{Request: ex.served, Block: b}
		}
		done := ex.earliestCompletion()
		if done < 0 {
			// Nothing is in flight, so the fetch chain leading to b must be
			// waiting on a wall-clock lower bound: idle until the earliest
			// such bound (this counts as stall).
			gate := ex.earliestTimeGate()
			if gate <= ex.time {
				return &MissingBlockError{Request: ex.served, Block: b}
			}
			ex.addStall(gate - ex.time)
			ex.time = gate
			continue
		}
		ex.addStall(done - ex.time)
		ex.time = done
	}
	ex.res.Stall = ex.stall
	ex.res.Requests = n
	ex.res.Elapsed = n + ex.stall
	ex.res.ExtraCache = ex.res.MaxResident - ex.in.K
	if ex.res.ExtraCache < 0 {
		ex.res.ExtraCache = 0
	}
	return nil
}

func (ex *executor) addStall(d int) {
	if d <= 0 {
		return
	}
	ex.stall += d
	ex.res.PerRequestStall[ex.served] += d
	ex.event(Event{Kind: EventStall, Request: ex.served, Duration: d})
}
