package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(id, parent uint64, name string, from, to int) span {
	return span{ID: id, Parent: parent, Name: name, Start: at(from), End: at(to)}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := sp(1, 0, "front.serve", 0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []span{sp(2, 1, "a", 10, 20), sp(3, 1, "a", 30, 50)}, 70 * time.Millisecond},
		{"nested child inside another", []span{sp(2, 1, "a", 10, 60), sp(3, 1, "a", 20, 30)}, 50 * time.Millisecond},
		{"overlapping", []span{sp(2, 1, "a", 10, 40), sp(3, 1, "a", 30, 70)}, 40 * time.Millisecond},
		{"unsorted and touching", []span{sp(3, 1, "a", 40, 60), sp(2, 1, "a", 10, 40)}, 50 * time.Millisecond},
		{"sticking out of the parent", []span{sp(2, 1, "a", -20, 10), sp(3, 1, "a", 90, 130)}, 80 * time.Millisecond},
		{"covering everything", []span{sp(2, 1, "a", -5, 105)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesUsesDirectChildrenOnly(t *testing.T) {
	spans := []span{
		sp(1, 0, "front.serve", 0, 100),
		sp(2, 1, "front.attempt", 10, 50),
		sp(3, 2, "service.serve", 15, 45), // grandchild: inside its parent, not subtracted twice
		sp(4, 0, "front.serve", 200, 210),
	}
	spans[0].Tag, spans[3].Tag = kindSchedule, kindExtend
	got := selfTimes(spans, "front.serve", kindSchedule)
	if len(got) != 1 || got[0] != 60*time.Millisecond {
		t.Fatalf("schedule self times %v, want [60ms]", got)
	}
	if got := selfTimes(spans, "front.serve"); len(got) != 2 {
		t.Fatalf("untagged selection found %d spans, want 2", len(got))
	}
}
