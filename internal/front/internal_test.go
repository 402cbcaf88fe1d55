package front

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestRingDeterministicAndComplete: same names → same order; every backend
// appears exactly once in every walk; the owner changes with the key.
func TestRingDeterministicAndComplete(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := newRing(names, 64)
	r2 := newRing(names, 64)

	owners := make(map[int]int)
	for key := uint64(0); key < 4096; key++ {
		o1 := r1.order(key * 0x9e3779b97f4a7c15)
		o2 := r2.order(key * 0x9e3779b97f4a7c15)
		if len(o1) != 3 {
			t.Fatalf("order returned %d backends, want 3", len(o1))
		}
		seen := map[int]bool{}
		for i, b := range o1 {
			if o2[i] != b {
				t.Fatalf("two identical rings disagree for key %d", key)
			}
			if seen[b] {
				t.Fatalf("backend %d repeated in walk %v", b, o1)
			}
			seen[b] = true
		}
		owners[o1[0]]++
	}
	// 64 vnodes over 3 backends: no backend should own a trivial share.
	for b := 0; b < 3; b++ {
		if owners[b] < 4096/10 {
			t.Errorf("backend %d owns only %d/4096 keys; ring is badly unbalanced", b, owners[b])
		}
	}
}

// TestRingAffinityStableUnderGrowth: keys mostly keep their owner when a
// backend joins — the property that makes backend caches survive fleet
// resizes.
func TestRingAffinityStableUnderGrowth(t *testing.T) {
	small := newRing([]string{"http://a:1", "http://b:2"}, 64)
	grown := newRing([]string{"http://a:1", "http://b:2", "http://c:3"}, 64)
	moved := 0
	const keys = 4096
	for key := uint64(0); key < keys; key++ {
		k := key * 0x9e3779b97f4a7c15
		before := small.order(k)[0]
		after := grown.order(k)[0]
		if after != before && after != 2 {
			moved++ // moved between the two survivors: consistent hashing forbids this in the ideal
		}
	}
	if moved > keys/10 {
		t.Errorf("%d/%d keys moved between surviving backends when a third joined", moved, keys)
	}
}

// TestBreakerLifecycle drives the closed → open → half-open → closed cycle
// with an injected clock.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(2, time.Second)
	b.now = func() time.Time { return now }

	if !b.allow() {
		t.Fatal("fresh breaker refuses")
	}
	b.onFailure()
	if !b.allow() {
		t.Fatal("breaker opened below threshold")
	}
	b.onFailure() // second consecutive failure: opens
	if b.allow() {
		t.Fatal("breaker did not open at threshold")
	}
	if got := b.snapshot(); got != "open" {
		t.Fatalf("state %q, want open", got)
	}

	now = now.Add(1500 * time.Millisecond) // past cooldown
	if !b.allow() {
		t.Fatal("half-open probe refused after cooldown")
	}
	if b.allow() {
		t.Fatal("second concurrent half-open probe allowed")
	}
	b.onFailure() // probe failed: open again
	if b.allow() {
		t.Fatal("breaker closed after a failed probe")
	}

	now = now.Add(1500 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second half-open probe refused")
	}
	b.onSuccess()
	if got := b.snapshot(); got != "closed" {
		t.Fatalf("state %q after successful probe, want closed", got)
	}
	if !b.allow() || !b.allow() {
		t.Fatal("closed breaker refuses traffic")
	}

	// A success resets the consecutive-failure count.
	b.onFailure()
	b.onSuccess()
	b.onFailure()
	if !b.allow() {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

// ringShares returns each backend's share of the 64-bit key space: a point
// owns the arc from its predecessor (exclusive) up to itself, and the first
// point the arc that wraps past the last.
func ringShares(r *ring) []float64 {
	shares := make([]float64, r.n)
	prev := r.hashes[len(r.hashes)-1]
	for i, h := range r.hashes {
		shares[r.backends[i]] += float64(h-prev) / (1 << 64)
		prev = h
	}
	return shares
}

// TestRingBalanceLoopbackNames pins the ring's balance on the names real
// fleets use: backends on one host whose names differ only in the port.
// Over 500 seeded loopback port triples, and for the quickstart fleet
// localhost:8081..8083, no backend may own more than 1.5x the mean share
// of the key space.
func TestRingBalanceLoopbackNames(t *testing.T) {
	worst := 0.0
	check := func(names []string) {
		t.Helper()
		shares := ringShares(newRing(names, 64))
		ratio := slices.Max(shares) * float64(len(names)) // the mean share is 1/n
		worst = max(worst, ratio)
		if ratio > 1.5 {
			t.Errorf("names %v: max/mean key share %.2f (shares %.3f)", names, ratio, shares)
		}
	}
	check([]string{"http://localhost:8081", "http://localhost:8082", "http://localhost:8083"})
	rng := rand.New(rand.NewSource(8081))
	hosts := []string{"127.0.0.1", "localhost"}
	for trial := 0; trial < 500; trial++ {
		host := hosts[trial%len(hosts)]
		var names []string
		for len(names) < 3 {
			name := fmt.Sprintf("http://%s:%d", host, 1024+rng.Intn(65536-1024))
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
		check(names)
	}
	t.Logf("worst max/mean key share: %.2f", worst)
}
