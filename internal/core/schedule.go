package core

import (
	"fmt"
	"strings"
)

// Fetch is a single prefetch operation in a schedule.
//
// A fetch becomes eligible once the first After requests of the sequence have
// been served; it starts at the earliest time at which it is eligible and its
// disk is idle (fetches on one disk execute in the order they appear in the
// schedule).  At initiation the block named by Evict is removed from the
// cache; if Evict is NoBlock the incoming block occupies a free cache
// location, or an extra location beyond the nominal cache size if no free
// location exists (the executor accounts for extra locations, which is how
// the paper's "at most 2(D-1) extra memory locations" guarantee is measured).
// The fetched block becomes available exactly F time units after initiation.
// If EvictAtEnd names a block, that block is evicted at the moment the fetch
// completes; this models the construction of Lemma 3 in which an otherwise
// idle disk loads a block into an extra location and discards it again at the
// end of the synchronized fetch interval.
type Fetch struct {
	// Disk is the disk performing the fetch.
	Disk int
	// After is the number of requests that must have been served before the
	// fetch may start (0 means the fetch may start immediately).
	After int
	// MinTime is a wall-clock lower bound on the initiation time (0 means no
	// bound).  It is used by schedules whose fetch initiations depend on the
	// completion of fetches on other disks, e.g. a fetch that is started in
	// the middle of a stall as soon as another disk becomes free; such a
	// dependency cannot be expressed with the request-count anchor alone.
	MinTime int
	// Block is the block being fetched.
	Block BlockID
	// Evict is the block evicted when the fetch is initiated, or NoBlock.
	Evict BlockID
	// EvictAtEnd is a block evicted when the fetch completes, or NoBlock.
	EvictAtEnd BlockID
}

// String renders the fetch compactly, e.g. "disk0@3: +b5 -b2".
func (f Fetch) String() string {
	s := fmt.Sprintf("disk%d@%d: +%v", f.Disk, f.After, f.Block)
	if f.Evict != NoBlock {
		s += fmt.Sprintf(" -%v", f.Evict)
	}
	if f.EvictAtEnd != NoBlock {
		s += fmt.Sprintf(" (drop %v at end)", f.EvictAtEnd)
	}
	return s
}

// NewFetch builds a fetch with no end-of-fetch eviction.
func NewFetch(disk, after int, block, evict BlockID) Fetch {
	return Fetch{Disk: disk, After: after, Block: block, Evict: evict, EvictAtEnd: NoBlock}
}

// Schedule is a prefetching/caching schedule: an ordered list of fetch
// operations.  The order determines the execution order of fetches that share
// a disk; fetches on different disks are independent (subject to their After
// anchors).
type Schedule struct {
	Fetches []Fetch
}

// Append adds a fetch to the schedule.
func (s *Schedule) Append(f Fetch) { s.Fetches = append(s.Fetches, f) }

// Len returns the number of fetch operations in the schedule.
func (s *Schedule) Len() int { return len(s.Fetches) }

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{Fetches: make([]Fetch, len(s.Fetches))}
	copy(out.Fetches, s.Fetches)
	return out
}

// Validate performs static checks against an instance: every fetched block
// must reside on the fetch's disk, anchors must lie in [0, n], and blocks must
// be valid.  Dynamic feasibility (evicted blocks actually being in cache,
// requested blocks arriving in time) is checked by the executor in package
// sim.
func (s *Schedule) Validate(in *Instance) error {
	n := in.N()
	for i, f := range s.Fetches {
		if !f.Block.Valid() {
			return fmt.Errorf("fetch %d: invalid block %d", i, int(f.Block))
		}
		if f.Disk < 0 || f.Disk >= in.Disks {
			return fmt.Errorf("fetch %d: disk %d out of range [0,%d)", i, f.Disk, in.Disks)
		}
		if in.Disk(f.Block) != f.Disk {
			return fmt.Errorf("fetch %d: block %v resides on disk %d, not disk %d",
				i, f.Block, in.Disk(f.Block), f.Disk)
		}
		if f.After < 0 || f.After > n {
			return fmt.Errorf("fetch %d: anchor %d out of range [0,%d]", i, f.After, n)
		}
		if f.MinTime < 0 {
			return fmt.Errorf("fetch %d: negative minimum start time %d", i, f.MinTime)
		}
		if f.Evict == f.Block && f.Evict != NoBlock {
			return fmt.Errorf("fetch %d: fetches and evicts the same block %v", i, f.Block)
		}
	}
	return nil
}

// String renders the schedule, one fetch per line.
func (s *Schedule) String() string {
	if len(s.Fetches) == 0 {
		return "(empty schedule)"
	}
	parts := make([]string, len(s.Fetches))
	for i, f := range s.Fetches {
		parts[i] = f.String()
	}
	return strings.Join(parts, "\n")
}
