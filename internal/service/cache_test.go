package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pfcache/internal/lpmodel"
)

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // touch a: b becomes least recently used
		t.Fatal("a missing right after put")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a was evicted although it was recently used")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing right after put")
	}
	if got := c.len(); got != 2 {
		t.Errorf("cache holds %d entries, want 2", got)
	}
	if got := c.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Overwriting an existing key must not grow the cache.
	c.put("c", []byte("C2"))
	if got := c.len(); got != 2 {
		t.Errorf("cache holds %d entries after overwrite, want 2", got)
	}
	if b, _ := c.get("c"); string(b) != "C2" {
		t.Errorf("overwrite lost: got %q", b)
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache(0)
	c.put("a", []byte("A"))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
}

// TestFlightGroupCoalesces proves that duplicate concurrent requests share
// one computation: a leader enters the (gated) compute function, a crowd of
// duplicates piles up behind it, and when the gate opens everyone gets the
// leader's bytes while the function ran exactly once.
func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		body, err, coalesced := g.do(context.Background(), "k", func(context.Context) ([]byte, error) {
			computes.Add(1)
			close(started)
			<-release
			return []byte("payload"), nil
		})
		if err != nil || coalesced || string(body) != "payload" {
			t.Errorf("leader: body=%q err=%v coalesced=%v", body, err, coalesced)
		}
	}()
	<-started // the flight is now registered and blocked

	const dups = 8
	var wg sync.WaitGroup
	errs := make(chan error, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err, coalesced := g.do(context.Background(), "k", func(context.Context) ([]byte, error) {
				computes.Add(1)
				return []byte("duplicate computation"), nil
			})
			if err != nil {
				errs <- err
				return
			}
			if !coalesced {
				errs <- fmt.Errorf("duplicate was not coalesced")
				return
			}
			if !bytes.Equal(body, []byte("payload")) {
				errs <- fmt.Errorf("duplicate got %q, want leader's payload", body)
			}
		}()
	}
	// Wait until every duplicate is parked on the flight before releasing
	// the leader; the coalesced counter counts parked duplicates.
	for g.coalesced.Load() < dups {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	<-leaderDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times for %d concurrent duplicates, want 1", n, dups+1)
	}
	if n := g.coalesced.Load(); n != dups {
		t.Errorf("coalesced counter = %d, want %d", n, dups)
	}

	// The flight is gone: a later request computes afresh.
	body, err, coalesced := g.do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("later"), nil })
	if err != nil || coalesced || string(body) != "later" {
		t.Errorf("post-flight request: body=%q err=%v coalesced=%v", body, err, coalesced)
	}
}

// TestShardPoolAffinity checks that equal hashes run on the same shard (the
// same batch pointer) and that the pool drains cleanly.
func TestShardPoolAffinity(t *testing.T) {
	p := newShardPool(3, 64)
	seen := make(map[uint64]*lpmodel.ModelBatch)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := uint64(i % 3)
			p.run(context.Background(), h, func(_ context.Context, sh *shard) (bool, error) {
				b := sh.batch
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := seen[h]; ok && prev != b {
					t.Errorf("hash %d ran on two different batches", h)
				}
				seen[h] = b
				return false, nil
			})
		}(i)
	}
	wg.Wait()
	p.close()
	if len(seen) != 3 {
		t.Errorf("saw %d distinct batches, want 3", len(seen))
	}
}
