package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Overlapping children cover [10, 40) and [50, 60): 40 ms.
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Start: 50 * ms, End: 60 * ms},
		// A child running past its parent counts only inside it: [90, 100).
		{ID: 5, Parent: 1, Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its parent, not the root.
		{ID: 6, Parent: 2, Start: 12 * ms, End: 14 * ms},
		// A child nested inside a sibling adds nothing.
		{ID: 7, Parent: 1, Start: 52 * ms, End: 55 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 50 * ms, 2: 18 * ms, 3: 20 * ms, 4: 10 * ms, 5: 30 * ms, 6: 2 * ms, 7: 3 * ms,
	} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

func TestRecordChildLinksToCaller(t *testing.T) {
	rec := newRecorder()
	id := rec.newID()
	ctx := withSpan(context.Background(), spanRef{rec: rec, id: id, req: 9})
	t0 := rec.epoch.Add(time.Millisecond)
	recordChild(ctx, "store.append", t0, t0.Add(time.Millisecond))
	recordChild(context.Background(), "orphan", t0, t0) // outside a request: dropped
	got := rec.all()
	if len(got) != 1 || got[0].Parent != id || got[0].Req != 9 || got[0].Name != "store.append" ||
		got[0].Start != time.Millisecond || got[0].dur() != time.Millisecond {
		t.Fatalf("recorded %+v", got)
	}
}
