package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestShardPoolSheds proves the bounded queue: with one shard whose worker
// is blocked and whose queue is full, the next request is rejected with
// ErrShardBusy instead of queueing, and the shed counter records it.
func TestShardPoolSheds(t *testing.T) {
	p := newShardPool(1, 1)
	defer p.close()

	block := make(chan struct{})
	executing := make(chan struct{})
	go p.run(context.Background(), 0, func(context.Context, *shard) (bool, error) {
		close(executing)
		<-block
		return false, nil
	})
	<-executing // the worker is now busy

	// Fill the single queue slot, then wait until the slot is visibly
	// occupied (the worker is still blocked, so it cannot drain it).
	queued := make(chan error, 1)
	go func() {
		queued <- p.run(context.Background(), 0, func(context.Context, *shard) (bool, error) { return false, nil })
	}()
	for len(p.shards[0].tasks) != 1 {
		time.Sleep(time.Millisecond)
	}

	err := p.run(context.Background(), 0, func(context.Context, *shard) (bool, error) { return false, nil })
	if !errors.Is(err, ErrShardBusy) {
		t.Fatalf("full queue returned %v, want ErrShardBusy", err)
	}
	if p.shed.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", p.shed.Load())
	}

	close(block)
	if err := <-queued; err != nil {
		t.Errorf("queued request failed after the worker unblocked: %v", err)
	}
}

// TestShardPoolRecoversPanic proves a panicking computation costs one
// request, not the worker: the panic comes back as a *PanicError and the
// same shard serves the next request normally.
func TestShardPoolRecoversPanic(t *testing.T) {
	p := newShardPool(1, 4)
	defer p.close()

	err := p.run(context.Background(), 0, func(context.Context, *shard) (bool, error) {
		panic("poisoned instance")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic surfaced as %v, want *PanicError", err)
	}
	if p.panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", p.panics.Load())
	}

	ran := false
	if err := p.run(context.Background(), 0, func(context.Context, *shard) (bool, error) {
		ran = true
		return false, nil
	}); err != nil || !ran {
		t.Errorf("shard did not survive the panic: ran=%v err=%v", ran, err)
	}
}

// TestShardPoolSkipsDeadTasks proves a canceled request releases its shard
// in queue-drain time: a task whose context is already dead when the worker
// reaches it is dropped without running.
func TestShardPoolSkipsDeadTasks(t *testing.T) {
	p := newShardPool(1, 4)
	defer p.close()

	block := make(chan struct{})
	executing := make(chan struct{})
	go p.run(context.Background(), 0, func(context.Context, *shard) (bool, error) {
		close(executing)
		<-block
		return false, nil
	})
	<-executing

	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	resc := make(chan error, 1)
	go func() {
		resc <- p.run(ctx, 0, func(context.Context, *shard) (bool, error) {
			ran <- struct{}{}
			return false, nil
		})
	}()
	// Cancel once the task visibly sits in the queue behind the blocker; the
	// caller returns immediately with the context error.
	for len(p.shards[0].tasks) != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-resc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller got %v, want context.Canceled", err)
	}

	close(block)
	// Drain: run one more task through the shard; by the time it executes,
	// the dead task must have been skipped, not run.
	if err := p.run(context.Background(), 0, func(context.Context, *shard) (bool, error) { return false, nil }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
		t.Error("task with a dead context was executed")
	default:
	}
	if p.skipped.Load() != 1 {
		t.Errorf("skipped counter = %d, want 1", p.skipped.Load())
	}
}

// TestFlightSurvivesLeaderCancel is the coalescing-under-cancellation
// regression test: a coalesced follower whose leader's request context is
// canceled must still receive the result — the computation runs under the
// flight's refcounted context, which stays alive while any waiter remains.
func TestFlightSurvivesLeaderCancel(t *testing.T) {
	g := newFlightGroup()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})

	type result struct {
		body      []byte
		err       error
		coalesced bool
	}
	leaderc := make(chan result, 1)
	go func() {
		body, err, coalesced := g.do(leaderCtx, "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-release
			// The leader's request context is canceled by now, but a
			// follower still wants the result: the flight context must be
			// alive.
			if fctx.Err() != nil {
				return nil, fctx.Err()
			}
			return []byte("result"), nil
		})
		leaderc <- result{body, err, coalesced}
	}()
	<-started

	followerc := make(chan result, 1)
	go func() {
		body, err, coalesced := g.do(context.Background(), "k", func(context.Context) ([]byte, error) {
			return nil, errors.New("follower must not compute")
		})
		followerc <- result{body, err, coalesced}
	}()
	for g.coalesced.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	close(release)

	f := <-followerc
	if f.err != nil || !f.coalesced || string(f.body) != "result" {
		t.Errorf("follower after leader cancel: body=%q err=%v coalesced=%v, want the leader's result",
			f.body, f.err, f.coalesced)
	}
	// The leader (whose own handler returned nothing to a dead client) still
	// carried the computation to completion.
	l := <-leaderc
	if l.err != nil || string(l.body) != "result" {
		t.Errorf("leader: body=%q err=%v", l.body, l.err)
	}
}

// TestFlightCancelsWhenAllWaitersLeave proves the other half of the
// refcount: when every waiter's context ends, the flight context is
// canceled, so a queued or staged computation stops instead of running for
// nobody.
func TestFlightCancelsWhenAllWaitersLeave(t *testing.T) {
	g := newFlightGroup()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		_, err, _ := g.do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-fctx.Done() // must fire once the only waiter cancels
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("flight returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was never canceled after the last waiter left")
	}
}
