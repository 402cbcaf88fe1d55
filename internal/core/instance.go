package core

import (
	"fmt"
	"sort"
)

// Instance is a complete problem instance for integrated prefetching and
// caching: the request sequence, the cache size k, the fetch time F, the
// number of disks and the assignment of blocks to disks, and the initial
// cache contents.
//
// The zero value is not usable; construct instances with SingleDisk,
// MultiDisk or by filling in the fields and calling Validate.
type Instance struct {
	// Seq is the request sequence.
	Seq Sequence
	// K is the number of cache locations (the paper's k).
	K int
	// F is the fetch time in time units (the paper's F).
	F int
	// Disks is the number of parallel disks (the paper's D).  It must be at
	// least 1.
	Disks int
	// DiskOf maps every block referenced in Seq (and every block in
	// InitialCache) to the disk it resides on, in the range [0, Disks).  It
	// may be nil when Disks == 1, in which case every block resides on disk 0.
	DiskOf map[BlockID]int
	// InitialCache lists the blocks initially resident in the cache.  It may
	// contain at most K blocks; the remaining cache locations are initially
	// free.  A free location can absorb one fetched block without an
	// eviction.  This generalises the paper's convention that the cache
	// initially holds blocks that are never requested.
	InitialCache []BlockID
}

// SingleDisk builds a single-disk instance with an initially empty cache.
func SingleDisk(seq Sequence, k, f int) *Instance {
	return &Instance{Seq: seq, K: k, F: f, Disks: 1}
}

// MultiDisk builds a parallel-disk instance with an initially empty cache.
// diskOf must assign a disk in [0, disks) to every block in seq.
func MultiDisk(seq Sequence, k, f, disks int, diskOf map[BlockID]int) *Instance {
	return &Instance{Seq: seq, K: k, F: f, Disks: disks, DiskOf: diskOf}
}

// WithInitialCache returns a shallow copy of the instance whose initial cache
// holds the given blocks.
func (in *Instance) WithInitialCache(blocks ...BlockID) *Instance {
	out := *in
	out.InitialCache = append([]BlockID(nil), blocks...)
	return &out
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := *in
	out.Seq = in.Seq.Clone()
	out.InitialCache = append([]BlockID(nil), in.InitialCache...)
	if in.DiskOf != nil {
		out.DiskOf = make(map[BlockID]int, len(in.DiskOf))
		for b, d := range in.DiskOf {
			out.DiskOf[b] = d
		}
	}
	return &out
}

// N returns the number of requests.
func (in *Instance) N() int { return len(in.Seq) }

// Disk returns the disk on which block b resides.
func (in *Instance) Disk(b BlockID) int {
	if in.DiskOf == nil {
		return 0
	}
	return in.DiskOf[b]
}

// Blocks returns every block that appears in the request sequence or the
// initial cache, in increasing BlockID order.
func (in *Instance) Blocks() []BlockID {
	seen := make(map[BlockID]bool)
	var out []BlockID
	add := func(b BlockID) {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	for _, b := range in.Seq {
		add(b)
	}
	for _, b := range in.InitialCache {
		add(b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks the structural invariants of the instance: positive cache
// size and fetch time, at least one disk, every block assigned to a valid
// disk, an initial cache that fits, and no duplicate initial blocks.
func (in *Instance) Validate() error {
	if err := in.Seq.Validate(); err != nil {
		return err
	}
	if in.K <= 0 {
		return fmt.Errorf("cache size k must be positive, got %d", in.K)
	}
	if in.F <= 0 {
		return fmt.Errorf("fetch time F must be positive, got %d", in.F)
	}
	if in.Disks <= 0 {
		return fmt.Errorf("number of disks must be positive, got %d", in.Disks)
	}
	if in.Disks > 1 && in.DiskOf == nil {
		return fmt.Errorf("DiskOf must be set for a %d-disk instance", in.Disks)
	}
	for _, b := range in.Blocks() {
		d := in.Disk(b)
		if d < 0 || d >= in.Disks {
			return fmt.Errorf("block %v assigned to disk %d, want a disk in [0,%d)", b, d, in.Disks)
		}
	}
	if len(in.InitialCache) > in.K {
		return fmt.Errorf("initial cache has %d blocks but the cache holds only %d", len(in.InitialCache), in.K)
	}
	seen := make(map[BlockID]bool)
	for _, b := range in.InitialCache {
		if !b.Valid() {
			return fmt.Errorf("initial cache contains invalid block %d", int(b))
		}
		if seen[b] {
			return fmt.Errorf("initial cache contains block %v twice", b)
		}
		seen[b] = true
	}
	return nil
}

// ColdMisses returns the number of distinct requested blocks that are not in
// the initial cache.  Every feasible schedule performs at least this many
// fetches.
func (in *Instance) ColdMisses() int {
	initial := make(map[BlockID]bool, len(in.InitialCache))
	for _, b := range in.InitialCache {
		initial[b] = true
	}
	n := 0
	for _, b := range in.Seq.Distinct() {
		if !initial[b] {
			n++
		}
	}
	return n
}

// String summarises the instance.
func (in *Instance) String() string {
	return fmt.Sprintf("instance{n=%d k=%d F=%d D=%d blocks=%d}",
		len(in.Seq), in.K, in.F, in.Disks, len(in.Blocks()))
}
