package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestParseSequence(t *testing.T) {
	seq, names := ParseSequence("a b a c b")
	want := Sequence{0, 1, 0, 2, 1}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("ParseSequence = %v, want %v", seq, want)
	}
	if names["a"] != 0 || names["b"] != 1 || names["c"] != 2 {
		t.Fatalf("unexpected name map %v", names)
	}
	if len(names) != 3 {
		t.Fatalf("expected 3 names, got %d", len(names))
	}
}

func TestParseSequenceEmpty(t *testing.T) {
	seq, names := ParseSequence("   ")
	if len(seq) != 0 || len(names) != 0 {
		t.Fatalf("expected empty parse, got %v %v", seq, names)
	}
}

func TestSequenceDistinct(t *testing.T) {
	seq := Sequence{3, 1, 3, 2, 1, 0}
	got := seq.Distinct()
	want := []BlockID{3, 1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Distinct = %v, want %v", got, want)
	}
}

func TestSequenceMaxBlock(t *testing.T) {
	if got := (Sequence{}).MaxBlock(); got != NoBlock {
		t.Errorf("empty MaxBlock = %v, want NoBlock", got)
	}
	if got := (Sequence{2, 7, 1}).MaxBlock(); got != 7 {
		t.Errorf("MaxBlock = %v, want 7", got)
	}
}

func TestSequenceValidate(t *testing.T) {
	if err := (Sequence{0, 1, 2}).Validate(); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	if err := (Sequence{0, NoBlock}).Validate(); err == nil {
		t.Errorf("sequence with NoBlock accepted")
	}
}

func TestSequenceClone(t *testing.T) {
	seq := Sequence{1, 2, 3}
	c := seq.Clone()
	c[0] = 9
	if seq[0] != 1 {
		t.Fatalf("Clone aliases the original")
	}
}

func TestBlockString(t *testing.T) {
	if got := BlockID(5).String(); got != "b5" {
		t.Errorf("String = %q, want b5", got)
	}
	if got := NoBlock.String(); got != "-" {
		t.Errorf("NoBlock String = %q, want -", got)
	}
	if NoBlock.Valid() {
		t.Errorf("NoBlock reported valid")
	}
	if !BlockID(0).Valid() {
		t.Errorf("block 0 reported invalid")
	}
}

func TestIndexBasics(t *testing.T) {
	seq, _ := ParseSequence("a b a c b a")
	ix := NewIndex(seq)

	if ix.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ix.Len())
	}
	if got := ix.Occurrences(0); !reflect.DeepEqual(got, []int{0, 2, 5}) {
		t.Errorf("Occurrences(a) = %v", got)
	}
	if got := ix.Count(1); got != 2 {
		t.Errorf("Count(b) = %d, want 2", got)
	}
	if got := ix.NextAt(0, 0); got != 0 {
		t.Errorf("NextAt(a,0) = %d, want 0", got)
	}
	if got := ix.NextAt(0, 1); got != 2 {
		t.Errorf("NextAt(a,1) = %d, want 2", got)
	}
	if got := ix.NextAt(2, 4); got != NoRef {
		t.Errorf("NextAt(c,4) = %d, want NoRef", got)
	}
	if got := ix.LastBefore(0, 5); got != 2 {
		t.Errorf("LastBefore(a,5) = %d, want 2", got)
	}
	if got := ix.LastBefore(0, 0); got != -1 {
		t.Errorf("LastBefore(a,0) = %d, want -1", got)
	}
	if got := ix.First(2); got != 3 {
		t.Errorf("First(c) = %d, want 3", got)
	}
	if got := ix.First(99); got != NoRef {
		t.Errorf("First(unknown) = %d, want NoRef", got)
	}
	if got := ix.Blocks(); !reflect.DeepEqual(got, []BlockID{0, 1, 2}) {
		t.Errorf("Blocks = %v", got)
	}
}

// TestIndexFurthestAndEarliest checks that FurthestNext picks the candidate
// whose next reference comes last, over every earlier one, counts a block
// never referenced again as furthest, and returns NoBlock for no candidates.
func TestIndexFurthestAndEarliest(t *testing.T) {
	seq, _ := ParseSequence("a b c a b d")
	ix := NewIndex(seq)
	// At position 1 the next references are: a->3, b->1, c->2, d->5.
	b, ref := ix.FurthestNext([]BlockID{0, 1, 2, 3}, 1)
	if b != 3 || ref != 5 {
		t.Errorf("FurthestNext = %v@%d, want b3@5", b, ref)
	}
	// Blocks never referenced again are "furthest".
	b, ref = ix.FurthestNext([]BlockID{0, 1}, 5)
	if b != 0 || ref != NoRef {
		t.Errorf("FurthestNext past end = %v@%d, want b0@NoRef", b, ref)
	}
	b, _ = ix.FurthestNext(nil, 0)
	if b != NoBlock {
		t.Errorf("FurthestNext(nil) = %v, want NoBlock", b)
	}
}

// TestIndexQuickConsistency checks, on random sequences, that the index
// answers agree with a brute-force scan of the sequence.
func TestIndexQuickConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(raw []uint8, posRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		seq := make(Sequence, len(raw))
		for i, v := range raw {
			seq[i] = BlockID(v % 8)
		}
		ix := NewIndex(seq)
		pos := int(posRaw) % (len(seq) + 1)
		for b := BlockID(0); b < 8; b++ {
			// Brute-force NextAt.
			want := NoRef
			for p := pos; p < len(seq); p++ {
				if seq[p] == b {
					want = p
					break
				}
			}
			if got := ix.NextAt(b, pos); got != want {
				return false
			}
			// Brute-force LastBefore.
			wantLast := -1
			for p := 0; p < pos && p < len(seq); p++ {
				if seq[p] == b {
					wantLast = p
				}
			}
			if got := ix.LastBefore(b, pos); got != wantLast {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRefString(t *testing.T) {
	if got := refString(NoRef); got != "inf" {
		t.Errorf("refString(NoRef) = %q", got)
	}
	if got := refString(7); got != "7" {
		t.Errorf("refString(7) = %q", got)
	}
}

func TestSequenceString(t *testing.T) {
	seq := Sequence{0, 1}
	if got := seq.String(); got != "b0 b1" {
		t.Errorf("String = %q", got)
	}
}

// TestIndexRandomFurthest cross-checks FurthestNext against a direct argmax.
func TestIndexRandomFurthest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		seq := make(Sequence, n)
		for i := range seq {
			seq[i] = BlockID(rng.Intn(6))
		}
		ix := NewIndex(seq)
		cands := []BlockID{0, 1, 2, 3, 4, 5}
		pos := rng.Intn(n + 1)
		got, gotRef := ix.FurthestNext(cands, pos)
		bestRef := -1
		for _, b := range cands {
			if r := ix.NextAt(b, pos); r > bestRef {
				bestRef = r
			}
		}
		if gotRef != bestRef {
			t.Fatalf("trial %d: FurthestNext ref %d, want %d (seq=%v pos=%d got=%v)",
				trial, gotRef, bestRef, seq, pos, got)
		}
	}
}
