package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clientConns is the load generator's concurrency: the sandbox's core
// count, so the generator never opens more connections than it could
// keep busy.
const clientConns = 2

// maxLateMS is how late the generator may dispatch open-loop requests,
// at the tail, before the run is invalid: a dispatcher stalled that long
// no longer offers the stated rate. Shorter lateness needs no limit, as
// every open-loop latency runs from the due time and so includes it.
const maxLateMS = 50

// outcome is one request's timing. due is the intended send time (open
// loop) or the actual one (closed loop); latency runs from due to end.
type outcome struct {
	due, end time.Time
	err      error
}

func (o outcome) latency() time.Duration { return o.end.Sub(o.due) }

// phaseResult is one executed phase.
type phaseResult struct {
	phase
	out     []outcome
	late    []time.Duration // open loop: dispatch time minus due time
	backlog int             // open loop: due but not yet started when the last op was due
	elapsed time.Duration
}

func (r *phaseResult) failed() int {
	n := 0
	for _, o := range r.out {
		if o.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the latencies of successful ops of one kind.
func (r *phaseResult) latencies(kind opKind) []time.Duration {
	var ds []time.Duration
	for i, o := range r.out {
		if o.err == nil && r.ops[i].kind == kind {
			ds = append(ds, o.latency())
		}
	}
	return ds
}

// pass is the executed phases of one run through a workload.
type pass []*phaseResult

// phases returns the closed or the open rounds (the tail is neither).
func (p pass) phases(open bool) []*phaseResult {
	var out []*phaseResult
	for _, r := range p {
		if r.open == open && r.name != tailPhase {
			out = append(out, r)
		}
	}
	return out
}

// minRoundOps is the fewest requests of a kind a round needs for its own
// percentile: enough for a p90 with 20 samples beyond it.
const minRoundOps = 200

// rate is the closed rounds' completed ops per second, each op weighing
// weight units of work: all rounds' ops over their summed time. Rounds
// that insert start from a larger corpus than the round before, so their
// rates trend; a median over them would be one round's figure, where the
// pooled rate averages the trend and the machine's noise over every round.
func (p pass) rate(weight int) (float64, int) {
	var secs float64
	n := 0
	for _, r := range p.phases(false) {
		n += (len(r.ops) - r.failed()) * weight
		secs += r.elapsed.Seconds()
	}
	return float64(n) / secs, n
}

// percentile is the q-quantile of one request kind's open-loop latency:
// the median of the rounds' own quantiles when every round has
// minRoundOps samples, else the quantile of all rounds pooled.
func (p pass) percentile(kind opKind, q float64) (float64, int, error) {
	var all []time.Duration
	var each []float64
	perRound := true
	for _, r := range p.phases(true) {
		lat := r.latencies(kind)
		all = append(all, lat...)
		if len(lat) < minRoundOps {
			perRound = false
			continue
		}
		v, err := durDist(lat).p(q)
		if err != nil {
			perRound = false
			continue
		}
		each = append(each, v)
	}
	if perRound && len(each) > 0 {
		return median(each), len(all), nil
	}
	v, err := durDist(all).p(q)
	return v, len(all), err
}

// latencies pools one kind's open-loop latencies over the rounds.
func (p pass) latencies(kind opKind) []time.Duration {
	var all []time.Duration
	for _, r := range p.phases(true) {
		all = append(all, r.latencies(kind)...)
	}
	return all
}

// lateTail is the generator's open-loop dispatch lateness in ms, over
// all rounds, at the highest percentile with enough samples, and that
// percentile.
func (p pass) lateTail() (float64, float64, int, error) {
	var late []time.Duration
	for _, r := range p.phases(true) {
		late = append(late, r.late...)
	}
	v, q, err := durDist(late).tail()
	return v, q, len(late), err
}

// runPhase executes a phase over clientConns workers. A closed phase
// hands each worker the next op as soon as its previous one completes; an
// open phase releases op i at start+at regardless of completions, and
// ops wait in a queue while both workers are busy. do must be safe for
// concurrent use.
func runPhase(ph phase, do func(i int, o *op) error) *phaseResult {
	res := &phaseResult{phase: ph, out: make([]outcome, len(ph.ops))}
	var wg sync.WaitGroup
	t0 := time.Now()
	if !ph.open {
		var next atomic.Int64
		for w := 0; w < clientConns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ph.ops) {
						return
					}
					s := time.Now()
					err := do(i, &ph.ops[i])
					res.out[i] = outcome{due: s, end: time.Now(), err: err}
				}
			}()
		}
		wg.Wait()
		res.elapsed = time.Since(t0)
		return res
	}
	queue := make(chan int, len(ph.ops)) // sized to the sends: dispatch never blocks
	var started atomic.Int64
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				err := do(i, &ph.ops[i])
				res.out[i] = outcome{due: t0.Add(ph.ops[i].at), end: time.Now(), err: err}
			}
		}()
	}
	res.late = make([]time.Duration, len(ph.ops))
	for i := range ph.ops {
		due := t0.Add(ph.ops[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = time.Since(due)
		queue <- i
	}
	res.backlog = len(ph.ops) - int(started.Load())
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}
