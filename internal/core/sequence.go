package core

import (
	"fmt"
	"sort"
	"strings"
)

// Sequence is a request sequence: Sequence[i] is the block referenced by the
// (i+1)-st request.  Positions are 0-based throughout the code base; the
// paper's request r_i corresponds to position i-1.
type Sequence []BlockID

// ParseSequence builds a sequence from a whitespace-separated list of block
// names.  Every distinct name is assigned the next free BlockID in order of
// first appearance, so "a b a c" becomes [0 1 0 2].  It is a convenience for
// tests, examples and the command-line tools.
func ParseSequence(s string) (Sequence, map[string]BlockID) {
	fields := strings.Fields(s)
	ids := make(map[string]BlockID, len(fields))
	seq := make(Sequence, 0, len(fields))
	for _, f := range fields {
		id, ok := ids[f]
		if !ok {
			id = BlockID(len(ids))
			ids[f] = id
		}
		seq = append(seq, id)
	}
	return seq, ids
}

// String renders the sequence as a space-separated list of blocks.
func (s Sequence) String() string {
	parts := make([]string, len(s))
	for i, b := range s {
		parts[i] = b.String()
	}
	return strings.Join(parts, " ")
}

// Clone returns a copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// Distinct returns the distinct blocks of the sequence in order of first
// appearance.
func (s Sequence) Distinct() []BlockID {
	seen := make(map[BlockID]bool)
	var out []BlockID
	for _, b := range s {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// MaxBlock returns the largest BlockID appearing in the sequence, or NoBlock
// for an empty sequence.
func (s Sequence) MaxBlock() BlockID {
	max := NoBlock
	for _, b := range s {
		if b > max {
			max = b
		}
	}
	return max
}

// Validate checks that every request names a valid block.
func (s Sequence) Validate() error {
	for i, b := range s {
		if !b.Valid() {
			return fmt.Errorf("request %d references invalid block %d", i, int(b))
		}
	}
	return nil
}

// Index is a precomputed occurrence index over a request sequence.  It
// answers "when is block b referenced next at or after position p" style
// queries in O(log n) time; these queries drive every algorithm in the
// repository (victim selection, hole computation, gap enumeration for the
// linear program).
type Index struct {
	seq    Sequence
	occ    map[BlockID][]int
	blocks []BlockID
}

// NewIndex builds the occurrence index for seq.
func NewIndex(seq Sequence) *Index {
	ix := &Index{
		seq: seq,
		occ: make(map[BlockID][]int),
	}
	for pos, b := range seq {
		if _, ok := ix.occ[b]; !ok {
			ix.blocks = append(ix.blocks, b)
		}
		ix.occ[b] = append(ix.occ[b], pos)
	}
	return ix
}

// Sequence returns the indexed sequence.
func (ix *Index) Sequence() Sequence { return ix.seq }

// Append extends the indexed sequence with one more request for block b,
// keeping every occurrence list sorted (the new position is past every
// existing one).  It is the incremental counterpart of NewIndex for the
// trace-extension path: an index grown request by request answers every
// query exactly as a fresh index over the extended sequence would.
func (ix *Index) Append(b BlockID) {
	pos := len(ix.seq)
	ix.seq = append(ix.seq, b)
	if _, ok := ix.occ[b]; !ok {
		ix.blocks = append(ix.blocks, b)
	}
	ix.occ[b] = append(ix.occ[b], pos)
}

// Len returns the number of requests in the indexed sequence.
func (ix *Index) Len() int { return len(ix.seq) }

// Blocks returns the distinct blocks of the sequence in order of first
// appearance.  The returned slice must not be modified.
func (ix *Index) Blocks() []BlockID { return ix.blocks }

// Occurrences returns the positions at which block b is referenced, in
// increasing order.  The returned slice must not be modified.
func (ix *Index) Occurrences(b BlockID) []int { return ix.occ[b] }

// Count returns how often block b is referenced.
func (ix *Index) Count(b BlockID) int { return len(ix.occ[b]) }

// NextAt returns the smallest position >= pos at which block b is referenced,
// or NoRef if there is none.
func (ix *Index) NextAt(b BlockID, pos int) int {
	occ := ix.occ[b]
	i := sort.SearchInts(occ, pos)
	if i == len(occ) {
		return NoRef
	}
	return occ[i]
}

// LastBefore returns the largest position < pos at which block b is
// referenced, or -1 if there is none.
func (ix *Index) LastBefore(b BlockID, pos int) int {
	occ := ix.occ[b]
	i := sort.SearchInts(occ, pos)
	if i == 0 {
		return -1
	}
	return occ[i-1]
}

// First returns the position of the first reference to block b, or NoRef if b
// is never referenced.
func (ix *Index) First(b BlockID) int { return ix.NextAt(b, 0) }

// FurthestNext returns, among the candidate blocks, one whose next reference
// at or after pos is furthest in the future (ties broken by smaller BlockID
// for determinism) together with that reference position.  Blocks that are
// never referenced again compare as NoRef, i.e. furthest possible.  It
// returns NoBlock if candidates is empty.
func (ix *Index) FurthestNext(candidates []BlockID, pos int) (BlockID, int) {
	best := NoBlock
	bestRef := -1
	for _, b := range candidates {
		ref := ix.NextAt(b, pos)
		if best == NoBlock || ref > bestRef || (ref == bestRef && b < best) {
			best, bestRef = b, ref
		}
	}
	return best, bestRef
}
