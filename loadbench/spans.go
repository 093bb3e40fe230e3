package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID, Parent int64
	Req        int
	Name       string
	Start, End time.Duration // since the recorder's epoch
	// Open marks a request sent on the open-loop schedule, whose arrival
	// time is the same in the HTTP and the in-process pass.
	Open bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// since converts a wall time to the recorder's clock.
func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// byName returns the recorded spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (a
// parent that fans out) are merged first, so no instant is subtracted
// twice, and child time outside the parent's interval is ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// spanRef travels in a context so a wrapper called deep inside a public
// function can record its span as a child of the caller's.
type spanRef struct {
	rec *recorder
	id  int64
	req int
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

// recordChild records [start, end) as a child of the context's span; it
// does nothing when the context carries none (calls outside a request).
func recordChild(ctx context.Context, name string, start, end time.Time) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return
	}
	ref.rec.add(span{
		ID: ref.rec.newID(), Parent: ref.id, Req: ref.req, Name: name,
		Start: ref.rec.since(start), End: ref.rec.since(end),
	})
}
