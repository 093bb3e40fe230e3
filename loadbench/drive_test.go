package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPhaseRunsEveryOpOnce(t *testing.T) {
	for _, open := range []bool{false, true} {
		ops := make([]op, 300)
		for i := range ops {
			ops[i].at = time.Duration(i) * 50 * time.Microsecond
		}
		var calls [300]atomic.Int32
		rec := newRecorder()
		r := runPhase(phase{"p", open, ops}, func(i int, _ *op) error {
			calls[i].Add(1)
			rec.add(span{ID: rec.newID(), Req: i})
			if i == 7 {
				return errors.New("refused")
			}
			return nil
		})
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("open=%t: op %d ran %d times", open, i, n)
			}
		}
		if r.failed() != 1 || len(rec.all()) != len(ops) {
			t.Fatalf("open=%t: %d failed, %d spans", open, r.failed(), len(rec.all()))
		}
		for i, o := range r.out {
			if o.end.Before(o.due) {
				t.Fatalf("open=%t: op %d due %v ended %v", open, i, o.due, o.end)
			}
		}
		if open && len(r.late) != len(ops) {
			t.Fatalf("open phase: %d lateness samples for %d ops", len(r.late), len(ops))
		}
	}
}

// round fakes an open round whose ops of one kind took the given
// latencies.
func round(lat ...time.Duration) *phaseResult {
	r := &phaseResult{phase: phase{name: "open", open: true}}
	t0 := time.Now()
	for _, d := range lat {
		r.ops = append(r.ops, op{kind: opMatchOne})
		r.out = append(r.out, outcome{due: t0, end: t0.Add(d)})
	}
	return r
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestPassPercentileMedianOfRounds(t *testing.T) {
	ms := time.Millisecond
	p := pass{round(repeat(1*ms, 200)...), round(repeat(2*ms, 200)...), round(repeat(9*ms, 200)...)}
	v, n, err := p.percentile(opMatchOne, 0.5)
	if err != nil || v != 2 || n != 600 {
		t.Fatalf("three full rounds: p50 %v over %d (%v), want the middle round's 2 ms over 600", v, n, err)
	}
	// A round too small for its own percentile pools every round.
	p = pass{round(repeat(ms, 200)...), round(repeat(ms, 200)...), round(repeat(ms, 200)...), round(repeat(9*ms, 150)...)}
	v, n, err = p.percentile(opMatchOne, 0.9)
	if err != nil || v != 9 || n != 750 {
		t.Fatalf("with a short round: p90 %v over %d (%v), want 9 ms pooled over 750", v, n, err)
	}
	if _, _, err := (pass{round(repeat(ms, 15)...)}).percentile(opMatchOne, 0.9); err == nil {
		t.Fatal("15 samples: want the p90 refused")
	}
}

func TestPassRatePoolsClosedRounds(t *testing.T) {
	closed := func(n int, d time.Duration) *phaseResult {
		return &phaseResult{phase: phase{name: "closed", ops: make([]op, n)}, out: make([]outcome, n), elapsed: d}
	}
	// Two closed rounds, the second three times slower as a growing corpus
	// makes it; the open round between them does not count.
	p := pass{closed(100, time.Second), round(time.Millisecond), closed(100, 3*time.Second)}
	if v, n := p.rate(2); v != 100 || n != 400 {
		t.Fatalf("rate: %v over %d units, want 400 units over 4 s = 100", v, n)
	}
}
