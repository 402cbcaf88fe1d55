package core

import (
	"strings"
	"testing"
)

func TestFetchString(t *testing.T) {
	f := NewFetch(0, 3, 5, 2)
	if got := f.String(); got != "disk0@3: +b5 -b2" {
		t.Errorf("String = %q", got)
	}
	f = NewFetch(1, 0, 4, NoBlock)
	if got := f.String(); got != "disk1@0: +b4" {
		t.Errorf("String = %q", got)
	}
	f.EvictAtEnd = 4
	if got := f.String(); !strings.Contains(got, "drop b4 at end") {
		t.Errorf("String = %q, want end-eviction note", got)
	}
}

func TestScheduleBasics(t *testing.T) {
	s := &Schedule{}
	s.Append(NewFetch(0, 0, 1, NoBlock))
	s.Append(NewFetch(1, 2, 2, 0))
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	c := s.Clone()
	c.Fetches[0].Block = 9
	if s.Fetches[0].Block == 9 {
		t.Fatalf("Clone aliases the original")
	}
	if !strings.Contains(s.String(), "disk1@2") {
		t.Errorf("String = %q", s.String())
	}
	empty := &Schedule{}
	if empty.String() != "(empty schedule)" {
		t.Errorf("empty String = %q", empty.String())
	}
}

func TestScheduleValidate(t *testing.T) {
	seq, _ := ParseSequence("a b c a")
	in := &Instance{
		Seq: seq, K: 2, F: 2, Disks: 2,
		DiskOf: map[BlockID]int{0: 0, 1: 0, 2: 1},
	}
	ok := &Schedule{Fetches: []Fetch{NewFetch(1, 1, 2, 0)}}
	if err := ok.Validate(in); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := []struct {
		name string
		f    Fetch
	}{
		{"invalid block", NewFetch(0, 0, NoBlock, NoBlock)},
		{"disk out of range", NewFetch(5, 0, 0, NoBlock)},
		{"wrong disk for block", NewFetch(0, 0, 2, NoBlock)},
		{"anchor out of range", NewFetch(1, 9, 2, NoBlock)},
		{"fetch equals evict", NewFetch(1, 0, 2, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Schedule{Fetches: []Fetch{tc.f}}
			if err := s.Validate(in); err == nil {
				t.Fatalf("expected validation error")
			}
		})
	}
}
