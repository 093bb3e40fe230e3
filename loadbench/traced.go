package main

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mdmatch/internal/engine"
	"mdmatch/internal/stream"
)

// matchdSnapshotBytes is matchd's default -snapshot-wal-bytes.
const matchdSnapshotBytes = 8 << 20

// inprocSender replays ops against the in-process stack, recording a
// span around each public engine call; the journal and filesystem
// wrappers add the store's child spans.
type inprocSender struct {
	s    *stack
	rec  *recorder
	reqs atomic.Int64
}

var callNames = map[opKind]string{
	opMatchBatch: "engine.match", opMatchOne: "engine.match", opInsert: "engine.insert",
}

func (d *inprocSender) do(_ int, o *op) error {
	id := d.rec.newID()
	req := int(d.reqs.Add(1))
	ctx := withSpan(context.Background(), spanRef{rec: d.rec, id: id, req: req})
	start := time.Now()
	var err error
	switch o.kind {
	case opMatchBatch:
		_, err = d.s.eng.MatchBatchCtx(ctx, o.batch)
	case opMatchOne:
		_, err = d.s.eng.MatchOneCtx(ctx, o.vals)
	case opInsert:
		_, err = d.s.eng.AddClusteredCtx(ctx, o.id, o.vals)
	}
	d.rec.add(span{ID: id, Req: req, Name: callNames[o.kind],
		Start: d.rec.since(start), End: d.rec.since(time.Now()), Open: o.open})
	return err
}

func (d *inprocSender) snapshot() error {
	_, err := d.s.eng.SnapshotCtx(context.Background())
	return err
}

// traced is the per-layer run: the workload's schedule over HTTP with
// client spans, then the same schedule in-process with spans around
// every public call, then recovery of the killed matchd's data dir.
func (e *runEnv) traced() (attempted, failed int, err error) {
	rep, w := e.rep, e.w
	dir, lg := e.freshDir()
	srv, _, err := startMatchd(e.bin, dir, lg, w.matchdArgs)
	if err != nil {
		return 0, 0, err
	}
	defer func() { srv.kill() }()
	served, err := srv.stats()
	if err != nil {
		return 0, 0, err
	}
	hrec := newRecorder()
	h := &httpSender{m: srv, rec: hrec}
	hres := e.runRounds(h.do)
	hspans := hrec.all()
	htail, err := e.runTail(h.do, h.snapshot)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range append(hres, htail) {
		attempted += len(r.ops)
		failed += r.failed()
	}
	e.printPass("http", append(hres, htail))
	preKill, err := srv.stats()
	if err != nil {
		return 0, 0, err
	}
	srv.kill()

	// The in-process stack, built the way matchd builds its own.
	sdir, _ := e.freshDir()
	irec := newRecorder()
	s, err := buildStack(sdir, irec)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	if got := s.stats(); !sameServing(got, served) {
		rep.fail("stack parity: in-process %+v, matchd %+v", summary(got), summary(served))
	} else {
		fmt.Printf("check parity: in-process stack equals matchd: %+v\n", summary(got))
	}
	e0, s0 := s.eng.Stats(), s.enf.Stats()
	look0, miss0 := s.enf.CacheStats()
	bytes0 := s.fs.bytes.Load()
	threshold := int64(matchdSnapshotBytes)
	if w.name == "ingest" {
		threshold = ingestSnapshotBytes
	}
	snaps := startSnapshotter(s.eng, threshold)
	d := &inprocSender{s: s, rec: irec}
	setupSpans := len(irec.all()) // the corpus load's WAL fsyncs
	ires := e.runRounds(d.do)
	snapTimes, err := snaps.finish()
	if err != nil {
		return 0, 0, fmt.Errorf("background snapshot: %w", err)
	}
	e1, s1 := s.eng.Stats(), s.enf.Stats()
	look1, miss1 := s.enf.CacheStats()
	written := s.fs.bytes.Load() - bytes0
	_, snapBytes := s.st.LastSnapshot()
	ispans := irec.all()[setupSpans:]
	itail, err := e.runTail(d.do, d.snapshot)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range append(ires, itail) {
		failed += r.failed()
	}
	e.printPass("inproc", append(ires, itail))

	recD, replayed, recovered, err := recoverStack(s.plan, s.ds.Credit.Rel, dir)
	if err != nil {
		return 0, 0, err
	}
	compareRecovered(rep, preKill, recovered)

	// Setup layers, shared by every workload.
	rep.put("gen.generate_s", s.generate.Seconds(), "s", 1)
	rep.put("core.find_rcks_s", s.findRCKs.Seconds(), "s", 1)
	rep.put("engine.load_s", s.load.Seconds(), "s", 1)
	rep.put("stream.load_chase_s", (s.load - s.loadAppend).Seconds(), "s", 1)
	rep.put("store.recovery_s", recD.Seconds(), "s", 1)
	rep.show("store.replayed_records", float64(replayed), "count", 1)

	if late, q, n, err := hres.lateTail(); err == nil {
		fmt.Printf("# loadgen.late_tail_ms is p%g\n", q*100)
		rep.put("loadgen.late_tail_ms", late, "ms", n)
	} else {
		rep.refuse("loadgen.late_tail_ms", err)
	}
	e.traceOverhead(hres)

	// The layer split covers the measured rounds; the tail only sets up
	// recovery.
	printSelfTimes("http", hspans)
	printSelfTimes("inproc", ispans)
	e.matchLayers(hspans, ispans, e0, e1)
	inserts := 0
	for _, r := range ires {
		inserts += okInserts(r)
	}
	if inserts > 0 {
		e.insertLayers(hspans, ispans, s0, s1, look1-look0, miss1-miss0, inserts)
		fsyncs := byName(ispans, "store.fsync")
		rep.show("store.fsync_ms", medianDur(durations(fsyncs)), "ms", len(fsyncs))
		rep.show("store.fsyncs_per_insert", float64(len(fsyncs))/float64(inserts), "count", inserts)
		rep.show("store.bytes_per_insert", float64(written)/float64(inserts), "B", inserts)
	}
	if len(snapTimes) > 0 {
		rep.show("store.snapshot_s", medianDur(snapTimes)/1000, "s", len(snapTimes))
		rep.show("store.snapshot_bytes", float64(snapBytes), "B", 1)
	}
	return attempted, failed, nil
}

// okInserts counts a phase's successful inserts.
func okInserts(r *phaseResult) int {
	n := 0
	for i, o := range r.out {
		if o.err == nil && r.ops[i].kind == opInsert {
			n++
		}
	}
	return n
}

// sameServing compares what the parity check covers.
func sameServing(a, b serverStats) bool {
	return a.IndexedRecords == b.IndexedRecords && a.IndexKeys == b.IndexKeys &&
		a.IndexEntries == b.IndexEntries && a.Plan == b.Plan && a.Stream.streamCounts == b.Stream.streamCounts
}

func summary(s serverStats) string {
	return fmt.Sprintf("records=%d clusters=%d applications=%d index_keys=%d index_entries=%d plan=%q",
		s.Stream.Records, s.Stream.Clusters, s.Stream.Applications, s.IndexKeys, s.IndexEntries, s.Plan)
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// traceOverhead compares the open rounds' median latency of requests
// that recorded a client span (even op indices) with those that did not.
func (e *runEnv) traceOverhead(p pass) {
	var on, off []time.Duration
	for _, r := range p.phases(true) {
		for i, o := range r.out {
			switch {
			case o.err != nil:
			case i%2 == 0:
				on = append(on, o.latency())
			default:
				off = append(off, o.latency())
			}
		}
	}
	if len(on) == 0 || len(off) == 0 {
		e.rep.refuse("trace.overhead_pct", fmt.Errorf("open rounds too short"))
		return
	}
	a, b := medianDur(on), medianDur(off)
	e.rep.put("trace.overhead_pct", 100*(a-b)/b, "%", len(on)+len(off))
}

// printSelfTimes prints, per span name, the count and the median
// duration and self time.
func printSelfTimes(pass string, spans []span) {
	self := selfTimes(spans)
	groups := map[string][]span{}
	for _, s := range spans {
		groups[s.Name] = append(groups[s.Name], s)
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var selfs []time.Duration
		for _, s := range groups[n] {
			selfs = append(selfs, self[s.ID])
		}
		fmt.Printf("span %s/%-24s n=%-6d median_ms=%.4f self_median_ms=%.4f\n",
			pass, n, len(groups[n]), medianDur(durations(groups[n])), medianDur(selfs))
	}
}

// selfTime reports matchd's own share of one operation: the median HTTP
// client span minus the median in-process call. Only open-loop requests
// count: their arrival times match between the passes, whereas a closed
// in-process loop runs faster and so contends differently.
func (e *runEnv) selfTime(name string, http, inproc []span) {
	open := func(spans []span) []time.Duration {
		var ds []time.Duration
		for _, s := range spans {
			if s.Open {
				ds = append(ds, s.dur())
			}
		}
		return ds
	}
	h, i := open(http), open(inproc)
	if len(h) == 0 || len(i) == 0 {
		e.rep.refuse(name, fmt.Errorf("no open-loop requests of this kind"))
		return
	}
	e.rep.show(name, medianDur(h)-medianDur(i), "ms", len(h))
}

// matchLayers reports the match path's split: HTTP client span minus the
// in-process engine call, and the engine's counters.
func (e *runEnv) matchLayers(hspans, ispans []span, e0, e1 engine.Stats) {
	hm, im := byName(hspans, "matchd.match"), byName(ispans, "engine.match")
	if len(hm) == 0 || len(im) == 0 {
		return
	}
	rep := e.rep
	imd := durDist(durations(im))
	e.selfTime("matchd.match_self_ms", hm, im)
	rep.show("engine.match_ms", medianDur(durations(im)), "ms", len(im))
	if v, err := imd.p(0.99); err == nil {
		rep.show("engine.match_p99_ms", v, "ms", imd.n())
	} else {
		rep.refuse("engine.match_p99_ms", err)
	}
	q := float64(e1.Queries - e0.Queries)
	rep.show("engine.candidates_per_query", float64(e1.Candidates-e0.Candidates)/q, "count", int(q))
	rep.show("engine.compared_per_query", float64(e1.Compared-e0.Compared)/q, "count", int(q))
	rep.show("engine.match_yield", float64(e1.Matched-e0.Matched)/float64(e1.Compared-e0.Compared), "ratio", int(e1.Compared-e0.Compared))
}

// insertLayers reports the insert path's split. Within one
// AddClusteredCtx call, the time before the journal append is lock wait
// and validation; the time after it is the chase plus the index add.
func (e *runEnv) insertLayers(hspans, ispans []span, s0, s1 stream.Stats, lookups, misses int64, inserts int) {
	rep := e.rep
	hi, ii := byName(hspans, "matchd.insert"), byName(ispans, "engine.insert")
	appends := map[int64]span{}
	for _, a := range byName(ispans, "store.append") {
		appends[a.Parent] = a
	}
	var wait, chase, app []time.Duration
	for _, s := range ii {
		a, ok := appends[s.ID]
		if !ok {
			continue
		}
		wait = append(wait, a.Start-s.Start)
		chase = append(chase, s.End-a.End)
		app = append(app, a.dur())
	}
	e.selfTime("matchd.insert_self_ms", hi, ii)
	rep.show("engine.insert_ms", medianDur(durations(ii)), "ms", len(ii))
	for _, m := range []struct {
		name string
		ds   []time.Duration
	}{{"engine.insert_wait", wait}, {"stream.chase", chase}, {"store.append", app}} {
		d := durDist(m.ds)
		rep.show(m.name+"_ms", medianDur(m.ds), "ms", d.n())
		if v, err := d.p(0.99); err == nil {
			rep.show(m.name+"_p99_ms", v, "ms", d.n())
		} else {
			rep.refuse(m.name+"_p99_ms", err)
		}
	}
	n := float64(inserts)
	rep.show("stream.pairs_per_insert", float64(s1.Chase.PairsExamined-s0.Chase.PairsExamined)/n, "count", inserts)
	rep.show("stream.evals_per_insert", float64(s1.Chase.LHSEvaluations-s0.Chase.LHSEvaluations)/n, "count", inserts)
	rep.show("stream.applications_per_insert", float64(s1.Applications-s0.Applications)/n, "count", inserts)
	rep.show("stream.passes_per_insert", float64(s1.Passes-s0.Passes)/n, "count", inserts)
	if lookups > 0 {
		rep.show("stream.cache_hit_ratio", 1-float64(misses)/float64(lookups), "ratio", int(lookups))
	}
}
