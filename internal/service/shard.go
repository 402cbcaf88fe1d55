package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
)

// ErrShardBusy is returned by shardPool.run when the selected shard's queue
// is full: the pool sheds the request instead of queueing unboundedly, and
// the HTTP layer translates it into 503 + Retry-After.
var ErrShardBusy = errors.New("service: shard queue full")

// PanicError wraps a panic recovered from a shard task.  The worker survives
// (the panic is confined to the one request); the value travels to the
// caller as an ordinary error.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("service: panic during compute: %v", e.Value)
}

// shardTask is one queued unit of work.  ctx is the computation's context
// (the flight context for coalesced schedule requests): a task whose context
// is already dead when a worker picks it up is skipped without touching the
// batch, so canceled requests release their shard in queue-drain time, not
// solve time.  fn's first result is the taint verdict: true means the batch
// suffered a numerical failure during the task (even a recovered one) and
// must be discarded.
type shardTask struct {
	ctx  context.Context
	fn   func(ctx context.Context, sh *shard) (taint bool, err error)
	err  error
	done chan struct{}
}

// shard is one worker of the service: a goroutine draining a bounded task
// queue, owning a reusable lpmodel.ModelBatch — built models and solver
// buffers — as the scratch state of its computations.  Requests for the same
// instance always hash to the same shard, so a hot instance lands on the
// shard whose batch has already built its model, instead of re-allocating
// tableaus across the process.  The shard's schedule and session work is
// counted in its own sinks, which /v1/stats sums across shards.
type shard struct {
	tasks chan *shardTask
	batch *lpmodel.ModelBatch // touched only on the shard's goroutine
	lp    lp.Stats
	opt   opt.Stats
}

// shardPool is a fixed set of shards plus the goroutine lifecycle around
// them.
type shardPool struct {
	shards []*shard
	wg     sync.WaitGroup

	shed    atomic.Uint64 // tasks rejected because a queue was full
	panics  atomic.Uint64 // panics recovered from tasks
	skipped atomic.Uint64 // tasks dropped because their context died in queue
	resets  atomic.Uint64 // shard batches discarded after a numerical failure
}

// newShardPool starts n shard goroutines (n <= 0 means one per CPU), each
// with a queue of depth queueDepth (<= 0 means a small default).  The queue
// bound is the load-shedding point: when a shard is queueDepth requests
// behind, further work for it is rejected with ErrShardBusy.
func newShardPool(n, queueDepth int) *shardPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if queueDepth <= 0 {
		queueDepth = defaultQueueDepth
	}
	p := &shardPool{shards: make([]*shard, n)}
	for i := range p.shards {
		s := &shard{
			tasks: make(chan *shardTask, queueDepth),
			batch: lpmodel.NewModelBatch(),
		}
		p.shards[i] = s
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range s.tasks {
				p.runTask(s, task)
			}
		}()
	}
	return p
}

// defaultQueueDepth bounds each shard's backlog.  A full queue means the
// shard is this many solves behind; shedding there keeps worst-case queueing
// latency proportional to the bound instead of to the burst size.
const defaultQueueDepth = 64

// runTask executes one task on the worker goroutine, converting a panic in
// the computation into an error for the caller so a poisoned instance kills
// one request, not the shard.  A task that taints its batch — a numerical
// failure, even one the cascade recovered from, or a panic that may have
// left batch state half-written — gets the whole batch discarded: built
// models and solver buffers alike, since either may carry the damage.  The
// next request on this shard starts from fresh buffers, at the cost of
// re-allocating and rebuilding once.
func (p *shardPool) runTask(s *shard, t *shardTask) {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			t.err = &PanicError{Value: r}
			p.discardBatch(s)
		}
	}()
	if err := t.ctx.Err(); err != nil {
		p.skipped.Add(1)
		t.err = err
		return
	}
	taint, err := t.fn(t.ctx, s)
	t.err = err
	if taint {
		p.discardBatch(s)
	}
}

// discardBatch replaces the shard's batch with a fresh one, the shard's
// recovery from a numeric failure or a panic.  Only the shard's own
// goroutine calls it, so no locking is needed.
func (p *shardPool) discardBatch(s *shard) {
	s.batch = lpmodel.NewModelBatch()
	p.resets.Add(1)
}

// size returns the number of shards.
func (p *shardPool) size() int { return len(p.shards) }

// run executes fn on the shard selected by hash and waits for it to
// complete or for ctx to end.  fn runs on the shard's goroutine and may use
// the shard's batch and sinks.  When the shard's queue is full the task is
// rejected immediately with ErrShardBusy (load shedding); when ctx ends
// first, run returns ctx's error while the queued task drains as a cheap
// no-op (the worker re-checks ctx before touching the batch).
func (p *shardPool) run(ctx context.Context, hash uint64, fn func(context.Context, *shard) (bool, error)) error {
	s := p.shards[hash%uint64(len(p.shards))]
	t := &shardTask{ctx: ctx, fn: fn, done: make(chan struct{})}
	select {
	case s.tasks <- t:
	case <-ctx.Done():
		return ctx.Err()
	default:
		p.shed.Add(1)
		return ErrShardBusy
	}
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops every shard goroutine and waits for in-flight tasks to
// finish.  run must not be called after close.
func (p *shardPool) close() {
	for _, s := range p.shards {
		close(s.tasks)
	}
	p.wg.Wait()
}
