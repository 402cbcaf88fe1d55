package core

import (
	"reflect"
	"testing"
)

func validInstance() *Instance {
	seq, _ := ParseSequence("a b c a d b")
	return &Instance{
		Seq:   seq,
		K:     3,
		F:     2,
		Disks: 2,
		DiskOf: map[BlockID]int{
			0: 0, 1: 0, 2: 1, 3: 1,
		},
	}
}

func TestInstanceValidateOK(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"zero cache", func(in *Instance) { in.K = 0 }},
		{"zero fetch time", func(in *Instance) { in.F = 0 }},
		{"zero disks", func(in *Instance) { in.Disks = 0 }},
		{"missing disk map", func(in *Instance) { in.DiskOf = nil }},
		{"disk out of range", func(in *Instance) { in.DiskOf[2] = 5 }},
		{"oversized initial cache", func(in *Instance) { in.InitialCache = []BlockID{0, 1, 2, 3} }},
		{"duplicate initial block", func(in *Instance) { in.InitialCache = []BlockID{0, 0} }},
		{"invalid initial block", func(in *Instance) { in.InitialCache = []BlockID{NoBlock} }},
		{"invalid request", func(in *Instance) { in.Seq[0] = NoBlock }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := validInstance()
			tc.mutate(in)
			if err := in.Validate(); err == nil {
				t.Fatalf("expected validation error")
			}
		})
	}
}

func TestSingleDiskConstructor(t *testing.T) {
	seq, _ := ParseSequence("a b c")
	in := SingleDisk(seq, 2, 3)
	if err := in.Validate(); err != nil {
		t.Fatalf("SingleDisk instance invalid: %v", err)
	}
	if in.Disks != 1 {
		t.Errorf("Disks = %d, want 1", in.Disks)
	}
	if in.Disk(2) != 0 {
		t.Errorf("Disk(b2) = %d, want 0", in.Disk(2))
	}
	if in.N() != 3 {
		t.Errorf("N = %d, want 3", in.N())
	}
}

func TestMultiDiskConstructorAndQueries(t *testing.T) {
	in := validInstance()
	if got := in.Blocks(); !reflect.DeepEqual(got, []BlockID{0, 1, 2, 3}) {
		t.Errorf("Blocks = %v", got)
	}
	md := MultiDisk(in.Seq, 3, 2, 2, in.DiskOf)
	if err := md.Validate(); err != nil {
		t.Fatalf("MultiDisk invalid: %v", err)
	}
}

func TestWithInitialCacheAndBlocksIncludesInitial(t *testing.T) {
	seq, _ := ParseSequence("a b")
	in := SingleDisk(seq, 3, 2).WithInitialCache(0, 5)
	if err := in.Validate(); err != nil {
		t.Fatalf("instance with initial cache invalid: %v", err)
	}
	if got := in.Blocks(); !reflect.DeepEqual(got, []BlockID{0, 1, 5}) {
		t.Errorf("Blocks = %v, want [0 1 5]", got)
	}
}

func TestColdMisses(t *testing.T) {
	seq, _ := ParseSequence("a b c a b")
	in := SingleDisk(seq, 3, 2)
	if got := in.ColdMisses(); got != 3 {
		t.Errorf("ColdMisses = %d, want 3", got)
	}
	in = in.WithInitialCache(0, 1)
	if got := in.ColdMisses(); got != 1 {
		t.Errorf("ColdMisses with warm cache = %d, want 1", got)
	}
}

func TestInstanceClone(t *testing.T) {
	in := validInstance().WithInitialCache(0)
	c := in.Clone()
	c.Seq[0] = 3
	c.DiskOf[0] = 1
	c.InitialCache[0] = 1
	if in.Seq[0] == 3 || in.DiskOf[0] == 1 || in.InitialCache[0] == 1 {
		t.Fatalf("Clone aliases the original instance")
	}
}

func TestInstanceString(t *testing.T) {
	got := validInstance().String()
	if got == "" {
		t.Fatalf("empty String()")
	}
}
