package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupRuns is how many times a run starts matchd on an empty data dir;
// setup_s is the median, and the last start serves the workload.
const setupRuns = 3

// recoveryRuns is how many times a run kills matchd and restarts it on
// the data dir the kill left; recovery_s is the median.
const recoveryRuns = 3

// httpSender sends ops to matchd and checks each answer. With rec set it
// records a client span for the ops at even indices, so the traced and
// untraced halves of one pass give the tracing overhead.
type httpSender struct {
	m    *matchd
	rec  *recorder
	reqs atomic.Int64

	mu     sync.Mutex
	acked  []int       // acknowledged insert ids
	checks []checkItem // sampled /match answers for the reference check
}

type checkItem struct {
	op   *op
	body []byte
}

var spanNames = map[opKind]string{
	opMatchBatch: "matchd.match", opMatchOne: "matchd.match", opInsert: "matchd.insert",
}

func (h *httpSender) do(i int, o *op) error {
	path := "/match"
	if o.kind == opInsert {
		path = "/records"
	}
	req := int(h.reqs.Add(1))
	start := time.Now()
	status, body, err := h.m.post(path, o.body)
	if h.rec != nil && i%2 == 0 {
		h.rec.add(span{ID: h.rec.newID(), Req: req, Name: spanNames[o.kind],
			Start: h.rec.since(start), End: h.rec.since(time.Now()), Open: o.open})
	}
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("POST %s: %d %s", path, status, bytes.TrimSpace(body))
	}
	switch o.kind {
	case opMatchBatch:
		if !bytes.HasPrefix(body, []byte(`{"results":[`)) {
			return fmt.Errorf("POST /match: unexpected answer %.80s", body)
		}
		if o.check {
			h.mu.Lock()
			h.checks = append(h.checks, checkItem{o, body})
			h.mu.Unlock()
		}
	case opMatchOne:
		if !bytes.HasPrefix(body, []byte(`{"matches":[`)) {
			return fmt.Errorf("POST /match: unexpected answer %.80s", body)
		}
	case opInsert:
		var res struct {
			ID      int `json:"id"`
			Cluster int `json:"cluster"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return fmt.Errorf("POST /records: %w", err)
		}
		if res.ID != o.id {
			return fmt.Errorf("POST /records: sent id %d, answer says %d", o.id, res.ID)
		}
		h.mu.Lock()
		h.acked = append(h.acked, o.id)
		h.mu.Unlock()
	}
	return nil
}

// runRounds runs the workload's measured rounds.
func (e *runEnv) runRounds(do func(int, *op) error) pass {
	var out pass
	for _, ph := range e.w.phases {
		out = append(out, runPhase(ph, do))
	}
	return out
}

// runTail forces a snapshot and makes the tail inserts, so that recovery
// restores a snapshot and replays a WAL suffix of fixed length.
func (e *runEnv) runTail(do func(int, *op) error, snapshot func() error) (*phaseResult, error) {
	if err := snapshot(); err != nil {
		return nil, fmt.Errorf("forced snapshot: %w", err)
	}
	return runPhase(phase{tailPhase, false, e.w.tailOps}, do), nil
}

func (h *httpSender) snapshot() error {
	status, body, err := h.m.post("/snapshot", nil)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("POST /snapshot: %d %s", status, bytes.TrimSpace(body))
	}
	return nil
}

// primary is the request kind a workload's latency metrics describe.
func primary(workload string) opKind {
	switch workload {
	case "lookup":
		return opMatchBatch
	case "ingest":
		return opInsert
	}
	return opMatchOne
}

func (e *runEnv) endToEnd() (attempted, failed int, err error) {
	rep, w := e.rep, e.w
	var setups []float64
	var srv *matchd
	var dataDir, logPath string
	for i := 0; i < setupRuns; i++ {
		dir, lg := e.freshDir()
		m, d, err := startMatchd(e.bin, dir, lg, w.matchdArgs)
		if err != nil {
			return 0, 0, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			m.kill()
			if err := os.RemoveAll(dir); err != nil {
				return 0, 0, err
			}
			continue
		}
		srv, dataDir, logPath = m, dir, lg
	}
	defer func() { srv.kill() }()
	before, err := srv.stats()
	if err != nil {
		return 0, 0, err
	}
	if before.IndexedRecords != w.credit || before.Stream.Records != w.credit {
		rep.fail("initial /stats: %d indexed, %d enforced, want %d", before.IndexedRecords, before.Stream.Records, w.credit)
	}

	h := &httpSender{m: srv}
	results := e.runRounds(h.do)
	if n := len(h.acked); n > 0 {
		// A count of the chase's work: it moves with the insert stream a
		// seed draws, never with the machine.
		mid, err := srv.stats()
		if err != nil {
			return 0, 0, err
		}
		rep.show("stream.pairs_per_insert",
			float64(mid.Stream.Chase.PairsExamined-before.Stream.Chase.PairsExamined)/float64(n), "count", n)
	}
	tail, err := e.runTail(h.do, h.snapshot)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range append(results, tail) {
		attempted += len(r.ops)
		failed += r.failed()
	}
	e.printPass("http", append(results, tail))

	after, err := srv.stats()
	if err != nil {
		return 0, 0, err
	}
	want := before.IndexedRecords + len(h.acked)
	if after.IndexedRecords != want || after.Stream.Records != want {
		rep.fail("/stats after run: %d indexed, %d enforced, want %d initial + %d acknowledged",
			after.IndexedRecords, after.Stream.Records, before.IndexedRecords, len(h.acked))
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return 0, 0, err
	}
	ids := sampleIDs(w, h.acked)
	views, err := clusterViews(srv, ids)
	if err != nil {
		return 0, 0, err
	}

	// Crash and recover on the same data directory, recoveryRuns times:
	// recovery writes nothing a later one would read differently.
	var recoveries []float64
	for i := 0; i < recoveryRuns; i++ {
		srv.kill()
		var d time.Duration
		if srv, d, err = startMatchd(e.bin, dataDir, logPath, w.matchdArgs); err != nil {
			return 0, 0, err
		}
		recoveries = append(recoveries, d.Seconds())
		recovered, err := srv.stats()
		if err != nil {
			return 0, 0, err
		}
		compareRecovered(rep, after, recovered)
		again, err := clusterViews(srv, ids)
		if err != nil {
			return 0, 0, err
		}
		for i, id := range ids {
			if !reflect.DeepEqual(views[i], again[i]) {
				rep.fail("GET /clusters/%d after recovery: %+v, before the kill %+v", id, again[i], views[i])
			}
		}
	}
	srv.kill()

	if len(h.checks) > 0 {
		if err := e.checkLookups(h.checks); err != nil {
			return 0, 0, err
		}
	}

	rep.put("setup_s", median(setups), "s", len(setups))
	e.throughput(results)
	e.openLatency(results)
	// Printed, not bounded: it tracks the shared machine's speed, which
	// drifted by more than any allowed bound between runs of one commit.
	rep.show("recovery_s", median(recoveries), "s", len(recoveries))
	rep.put("rss_peak_mb", rss, "MiB", 1)
	return attempted, failed, nil
}

// compareRecovered checks that recovery restored the state matchd had
// when it was killed.
func compareRecovered(rep *report, before, after serverStats) {
	if before.Stream.streamCounts != after.Stream.streamCounts || before.IndexedRecords != after.IndexedRecords ||
		before.Store.LSN != after.Store.LSN {
		rep.fail("state after recovery: records %d/%d indexed %d/%d clusters %d/%d applications %d/%d lsn %d/%d (before kill/after recovery)",
			before.Stream.Records, after.Stream.Records, before.IndexedRecords, after.IndexedRecords,
			before.Stream.Clusters, after.Stream.Clusters, before.Stream.Applications, after.Stream.Applications,
			before.Store.LSN, after.Store.LSN)
	}
}

// sampleIDs is a seeded sample of acknowledged insert ids and corpus
// ids whose clusters must survive the kill.
func sampleIDs(w *workload, acked []int) []int {
	rnd := rand.New(rand.NewSource(w.seed + 1))
	a := append([]int(nil), acked...)
	sort.Ints(a)
	rnd.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	ids := a[:min(len(a), 30)]
	for i := 0; i < 10; i++ {
		ids = append(ids, rnd.Intn(w.credit))
	}
	return ids
}

func clusterViews(m *matchd, ids []int) ([]clusterView, error) {
	out := make([]clusterView, len(ids))
	for i, id := range ids {
		if err := m.getJSON(fmt.Sprintf("/clusters/%d", id), &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkLookups compares the sampled /match answers with the verdicts of
// an in-process reference engine built the way matchd builds its own.
func (e *runEnv) checkLookups(items []checkItem) error {
	dir, _ := e.freshDir()
	ref, err := buildStack(dir, nil)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	defer ref.close()
	type answer struct {
		Matches    []int `json:"matches"`
		Candidates int   `json:"candidates"`
		Compared   int   `json:"compared"`
	}
	records := 0
	for _, it := range items {
		var got struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(it.body, &got); err != nil {
			e.rep.fail("POST /match answer: %v", err)
			continue
		}
		want, err := ref.eng.MatchBatch(it.op.batch)
		if err != nil {
			return err
		}
		if len(got.Results) != len(want) {
			e.rep.fail("POST /match: %d results for %d records", len(got.Results), len(want))
			continue
		}
		for i, r := range want {
			g := got.Results[i]
			if g.Candidates != r.Candidates || g.Compared != r.Compared || !sameIDs(g.Matches, r.Matches) {
				e.rep.fail("POST /match record %d: got %+v, reference %+v", i, g, r)
			}
			records++
		}
	}
	fmt.Printf("check lookup: %d batches, %d records equal to the reference engine\n", len(items), records)
	return nil
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// printPass prints each phase's counts and, for the open rounds, how late
// the generator dispatched and the backlog left when the last op was due.
// A generator that fell behind its own schedule invalidates the run.
func (e *runEnv) printPass(name string, p pass) {
	for _, r := range p {
		fmt.Printf("phase %s/%s open=%t sent=%d ok=%d failed=%d elapsed_s=%.3f",
			name, r.name, r.open, len(r.ops), len(r.ops)-r.failed(), r.failed(), r.elapsed.Seconds())
		if r.open {
			fmt.Printf(" late_max_ms=%.3f backlog=%d", ms(slices.Max(r.late)), r.backlog)
			if v, err := durDist(r.latencies(primary(e.w.name))).p(0.5); err == nil {
				fmt.Printf(" p50_ms=%.3f", v)
			}
		}
		fmt.Println()
		shown := 0
		for i, o := range r.out {
			if o.err != nil && shown < 3 {
				fmt.Fprintf(os.Stderr, "loadbench: %s/%s op %d: %v\n", name, r.name, i, o.err)
				shown++
			}
		}
	}
	late, q, n, err := p.lateTail()
	if err != nil {
		fmt.Printf("# %s generator lateness: refused (%v)\n", name, err)
		return
	}
	fmt.Printf("# %s generator lateness p%g: %.3f ms over %d dispatches\n", name, q*100, late, n)
	if late > maxLateMS {
		e.rep.fail("%s: generator ran %.1f ms late at p%g (limit %d ms): latencies invalid",
			name, late, q*100, maxLateMS)
	}
}

// throughput reports the closed rounds' completed work per second:
// billing records matched (lookup), inserts (ingest) or requests (mixed).
func (e *runEnv) throughput(p pass) {
	weight := 1
	if e.w.name == "lookup" {
		weight = batchSize
	}
	v, n := p.rate(weight)
	switch e.w.name {
	case "lookup":
		e.rep.show("match_qps", v, "records/s", n)
	case "ingest":
		e.rep.show("insert_rps", v, "inserts/s", n)
	}
	e.rep.put("closed_ops_per_s", v, "ops/s", n)
}

// openLatency reports the open rounds' latency percentiles per request
// kind, and the primary kind's as the workload's open_* metrics. An
// invalid run (the generator fell behind) reports no latency.
func (e *runEnv) openLatency(p pass) {
	if late, _, _, err := p.lateTail(); err == nil && late > maxLateMS {
		return
	}
	for _, kind := range []opKind{opMatchBatch, opMatchOne, opInsert} {
		d := durDist(p.latencies(kind))
		if d.n() == 0 {
			continue
		}
		prefix := "match"
		if kind == opInsert {
			prefix = "insert"
		}
		for _, q := range []float64{0.5, 0.99} {
			name := fmt.Sprintf("%s_p%g_ms", prefix, q*100)
			if v, err := d.p(q); err == nil {
				e.rep.show(name, v, "ms", d.n())
			} else {
				e.rep.refuse(name, err)
			}
		}
		if kind != primary(e.w.name) {
			continue
		}
		if v, n, err := p.percentile(kind, 0.5); err == nil {
			e.rep.put("open_p50_ms", v, "ms", n)
		} else {
			e.rep.refuse("open_p50_ms", err)
		}
		// The p90 moves by more than any bound between runs of one commit
		// on a shared 2-core machine, so it is printed, not bounded.
		if v, n, err := p.percentile(kind, 0.9); err == nil {
			e.rep.show("open_p90_ms", v, "ms", n)
		} else {
			e.rep.refuse("open_p90_ms", err)
		}
	}
}
