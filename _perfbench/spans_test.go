package main

import (
	"reflect"
	"testing"
	"time"
)

// TestSelfTimeOverlappingChildren: a parent's self time is its duration
// minus the union of its children's intervals clipped to the parent, so
// overlapping children are not subtracted twice and a child sticking out
// of the parent only counts inside it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "trial", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // sticks out
		{Name: "d", ID: 4, Parent: 2, Start: 25, End: 35},  // grandchild
		{Name: "e", ID: 5, Parent: 0, Start: 40, End: 45},  // inside b
	}
	// Parent covered by [10,50) ∪ [90,100) = 50; b covered by d = 10.
	want := []int64{50, 20, 20, 30, 10, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.trial = 7
	root := r.begin("trial")
	child := r.begin("call")
	time.Sleep(time.Millisecond)
	r.end(child)
	r.end(root)
	r.trial = -1
	outside := r.begin("after")
	r.end(outside)
	s := r.spans
	if s[1].Parent != root || s[0].Parent != -1 || s[2].Parent != -1 {
		t.Errorf("parents = %d %d %d, want -1 %d -1", s[0].Parent, s[1].Parent, s[2].Parent, root)
	}
	if s[0].Trial != 7 || s[1].Trial != 7 || s[2].Trial != -1 {
		t.Errorf("trial ids = %d %d %d, want 7 7 -1", s[0].Trial, s[1].Trial, s[2].Trial)
	}
	if s[1].End-s[1].Start < int64(time.Millisecond) || s[0].Start > s[1].Start || s[0].End < s[1].End {
		t.Errorf("child %+v not inside parent %+v", s[1], s[0])
	}
	st := spanStats(s)
	if st[0].Name != "trial" || st[0].SelfNs != st[0].TotalNs-(s[1].End-s[1].Start) {
		t.Errorf("trial stat %+v, want self = total minus the child", st[0])
	}
}
