//go:build scale

package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdmatch/internal/core"
	"mdmatch/internal/fault"
	"mdmatch/internal/gen"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
	"mdmatch/internal/store"
	"mdmatch/internal/stream"
)

// This file is the scale tier (`make soak`, `-tags scale`): it drives
// SOAK_RECORDS synthesized credit records (default 50k, 1M for the
// full soak) through the durable engine — InsertBatch bulk with timed
// single inserts interleaved — while a background snapshotter streams
// captures concurrently and two mid-soak kills (sticky crash faults)
// force full recoveries. It asserts the bounded-memory contract:
//
//   - single-insert p99 stays under soakStallBudget even while a
//     snapshot is streaming (the consistent cut means encode never
//     holds the write lock);
//   - the Go heap high-water mark stays under soakHeapCeiling, and the
//     runtime soft memory limit is pinned there so total managed
//     memory (heap + runtime overhead) keeps process RSS under 4 GB
//     rather than relying on sampling luck;
//   - recovery after each kill is bit-identical to the acked state the
//     live engine held, and recovering the same directory twice is
//     deterministic;
//   - with SOAK_STORE_OUT / SOAK_STREAM_OUT set, a "scale" section is
//     merged into BENCH_store.json / BENCH_stream.json; with SOAK_GATE
//     naming a recorded BENCH_store.json, the soak runs three passes
//     and fails if the median stall p99 or any pass's heap watermark
//     regresses >10% against the recorded entry at the same record
//     count.
const (
	soakStallBudget = 50 * time.Millisecond
	// 3.25 GiB, not 4: the acceptance ceiling is 4 GB of process RSS,
	// and RSS tracks the runtime's total managed memory (the soft
	// limit) plus what the limit does not govern — goroutine stacks,
	// GC metadata, page tables, not-yet-reclaimed spans (measured
	// ~450 MiB on the 1M run). Capping managed memory at 3.25 GiB
	// keeps peak resident memory under 4 GiB with real margin.
	soakHeapCeiling = uint64(3)<<30 + uint64(256)<<20
)

// soakSigma is the scale-tier rule set: the hash-encodable shapes of
// gen.DedupMDs (an equality conjunct gives the chase a blocked scan),
// without its similarity-only rules, whose dense scans are O(rows) per
// insert — correct, covered by the correctness tier, and unusable at
// 1M records. With tel and zip near-unique the blocks stay O(1), so
// soak cost measures the durability and memory layers, not rule
// density.
func soakSigma(ctx schema.Pair) []core.MD {
	d := similarity.DL(0.8)
	return []core.MD{
		// Same phone + similar surname identify the holder (κ3 shape);
		// the cluster-linking rule of the soak.
		core.MustMD(ctx,
			[]core.Conjunct{core.Eq("tel", "tel"), core.C("ln", d, "ln")},
			[]core.AttrPair{core.P("street", "street"), core.P("city", "city"),
				core.P("county", "county"), core.P("zip", "zip")}),
		// Same zip + similar street: same city and county (ρ2 shape,
		// repair only).
		core.MustMD(ctx,
			[]core.Conjunct{core.Eq("zip", "zip"), core.C("street", d, "street")},
			[]core.AttrPair{core.P("city", "city"), core.P("county", "county")}),
	}
}

// soakRow synthesizes credit record i in the generator's column order
// (cno ssn fn ln street city county zip tel email gender dob type).
// Identity columns are unique per record; name/city columns draw from
// small pools so dictionaries see realistic repetition. Every 50th
// record duplicates its predecessor's identity block (tel, ln) with a
// perturbed address, so κ3 fires, clusters link, and ρ2 repairs run at
// a steady rate throughout the soak.
func soakRow(i int) []string {
	j := i
	if i%50 == 49 {
		j = i - 1
	}
	fn := soakFirst[j%len(soakFirst)]
	ln := soakLast[(j/3)%len(soakLast)]
	city := soakCities[(j/7)%len(soakCities)]
	street := fmt.Sprintf("%d %s", j%8999+1, soakStreets[(j/11)%len(soakStreets)])
	if j != i {
		street = fmt.Sprintf("%d %s Apt 2", j%8999+1, soakStreets[(j/11)%len(soakStreets)])
	}
	return []string{
		fmt.Sprintf("%012d", 700000000000+int64(i)),
		fmt.Sprintf("%09d", i),
		fn,
		ln,
		street,
		city.name,
		city.county,
		fmt.Sprintf("%05d", j%89989),
		fmt.Sprintf("555-%07d", j%9999991),
		fmt.Sprintf("%s.%s%d@example.org", fn, ln, j),
		"MF"[i%2 : i%2+1],
		fmt.Sprintf("19%02d-%02d-%02d", 20+j%79, j%12+1, j%28+1),
		soakCards[i%len(soakCards)],
	}
}

var (
	soakFirst = []string{"Ada", "Grace", "Alan", "Edsger", "Barbara", "Donald",
		"Leslie", "John", "Margaret", "Tony", "Frances", "Edgar", "Niklaus"}
	soakLast = []string{"Lovelace", "Hopper", "Turing", "Dijkstra", "Liskov",
		"Knuth", "Lamport", "Backus", "Hamilton", "Hoare", "Allen", "Codd", "Wirth"}
	soakStreets = []string{"Market Street", "Maple Avenue", "Franklin Lane",
		"Bridge Drive", "Dogwood Avenue", "Mill Boulevard", "Jackson Court"}
	soakCities = []struct{ name, county, zip3 string }{
		{"Madison", "Dane", "537"}, {"Trenton", "Mercer", "086"},
		{"Richmond", "Henrico", "232"}, {"Albany", "Albany", "122"},
		{"San Jose", "Santa Clara", "951"}, {"Milwaukee", "Milwaukee", "532"},
	}
	soakCards = []string{"visa", "mastercard", "amex", "discover"}
)

// soakUnit is one ingest step: a half-open row range submitted either
// as one InsertBatch (batch=true) or as timed single inserts. Units
// are the resume granularity after a kill — a failed unit was never
// applied (the fault-matrix contract), so recovery resubmits it whole.
type soakUnit struct {
	from, to int
	batch    bool
}

// soakUnits carves n rows into groups of 1000: 900 as one batch, 100
// as singles (the latency probes).
func soakUnits(n int) []soakUnit {
	var units []soakUnit
	for at := 0; at < n; {
		bulk := min(900, n-at)
		units = append(units, soakUnit{from: at, to: at + bulk, batch: true})
		at += bulk
		if single := min(100, n-at); single > 0 {
			units = append(units, soakUnit{from: at, to: at + single})
			at += single
		}
	}
	return units
}

const soakIDBase = 1 << 30 // synthesized ids, clear of the corpus

type soakStats struct {
	mu          sync.Mutex
	singleMS    []float64 // every single-insert latency
	inflightMS  []float64 // ...restricted to a snapshot streaming concurrently
	batchSec    float64
	batchRows   int
	snapshots   int64 // atomic
	peakHeap    uint64
	peakSys     uint64
	recoverySec float64
	kills       int
}

// sampleMem is called from both the ingest loop and the snapshotter.
func (st *soakStats) sampleMem() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.mu.Lock()
	defer st.mu.Unlock()
	if ms.HeapAlloc > st.peakHeap {
		st.peakHeap = ms.HeapAlloc
	}
	if ms.Sys > st.peakSys {
		st.peakSys = ms.Sys
	}
}

func p99(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return s[(99*len(s)+99)/100-1] // index ceil(0.99n)-1
}

func TestSoakScale(t *testing.T) {
	n := 50000
	if v := os.Getenv("SOAK_RECORDS"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1000 {
			t.Fatalf("bad SOAK_RECORDS %q", v)
		}
		n = parsed
	}
	// The ceiling is enforced, not just observed: with a soft memory
	// limit the runtime GCs harder as the soak approaches it, so a
	// layout that genuinely does not fit shows up as thrash/timeout
	// rather than a lucky watermark sample between collections.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(soakHeapCeiling)))
	// A gated run measures three ingest passes and gates the median
	// stall p99: one pass's p99 on a shared host is mostly scheduler
	// noise (see gateSoak).
	passes := 1
	if os.Getenv("SOAK_GATE") != "" {
		passes = 3
	}
	runs := make([]soakRun, passes)
	for i := range runs {
		runs[i] = soakPass(t, n)
		debug.FreeOSMemory() // release the pass's engine before the next one
	}
	gateSoak(t, n, runs)
}

// soakRun is what the gate reads from one measured ingest pass.
type soakRun struct {
	overall, stalled float64 // single-insert p99, snapshot-overlapped p99 (ms)
	peakHeap         uint64
}

// soakPass runs one full soak over n records — a fresh engine and
// store, three ingest phases separated by two kills — asserts its
// budgets and recovery equivalence, writes the report sections when
// asked, and returns the measurements the gate compares.
func soakPass(t *testing.T, n int) soakRun {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	sigma := soakSigma(ctx)
	plan := selfMatchPlan(t, ctx)
	dir := t.TempDir()

	open := func(fs store.FS) (*Engine, *store.Store) {
		t.Helper()
		enf, err := stream.New(ctx, sigma, stream.ClusterRules(0))
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir, Fingerprint(plan, enf), store.WithNoSync(), store.WithFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(plan, WithWorkers(2), WithStream(enf), WithStore(st))
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		return eng, st
	}

	fplan := fault.NewPlan()
	eng, st := open(fault.Wrap(store.OSFS{}, fplan))
	if err := eng.Load(ds.Credit); err != nil {
		t.Fatal(err)
	}

	stats := &soakStats{}
	var inflight atomic.Bool

	// Snapshot trigger: 1 MiB of WAL debt at full scale, proportional
	// (32 bytes/record, ~a sixth of the history) at the small tiers, so
	// even a 10k run overlaps several captures with live traffic.
	snapEvery := int64(1) << 20
	if v := int64(n) * 32; v < snapEvery {
		snapEvery = v
	}

	// runPhase ingests units[from:] until done or the first failed unit
	// (a kill landed), with the snapshotter streaming captures whenever
	// enough WAL has accumulated. Returns the first unapplied unit.
	runPhase := func(units []soakUnit, from int) int {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(20 * time.Millisecond):
				}
				if st.BytesSinceSnapshot() < snapEvery {
					continue
				}
				inflight.Store(true)
				if _, err := eng.Snapshot(); err == nil {
					atomic.AddInt64(&stats.snapshots, 1)
				} // errors: a kill mid-snapshot; recovery falls back
				inflight.Store(false)
				stats.sampleMem()
			}
		}()
		defer func() { close(stop); wg.Wait() }()

		for u := from; u < len(units); u++ {
			unit := units[u]
			if unit.batch {
				in := record.NewInstance(ctx.Left)
				for i := unit.from; i < unit.to; i++ {
					if _, err := in.AppendWithID(soakIDBase+i, soakRow(i)); err != nil {
						t.Fatal(err)
					}
				}
				start := time.Now()
				if err := eng.Load(in); err != nil {
					return u
				}
				stats.batchSec += time.Since(start).Seconds()
				stats.batchRows += unit.to - unit.from
			} else {
				for i := unit.from; i < unit.to; i++ {
					start := time.Now()
					_, err := eng.AddClustered(soakIDBase+i, soakRow(i))
					if err != nil {
						return u
					}
					ms := float64(time.Since(start).Microseconds()) / 1000
					stats.singleMS = append(stats.singleMS, ms)
					if inflight.Load() {
						stats.inflightMS = append(stats.inflightMS, ms)
					}
				}
			}
			if u%8 == 0 {
				stats.sampleMem()
			}
		}
		return len(units)
	}

	// sameSoakState is sameEngineState with the soak's memory budget:
	// the correctness-tier helper materializes two full string states
	// plus two eager record dumps on top of the two live engines —
	// roughly four copies of the corpus, which IS the RSS peak at 1M
	// records. Here both sides are read through columnar cuts
	// (dictionary table views + 4-byte ID arrays) and a streamed
	// record source, so the comparison is just as exact — identical
	// dictionaries value-by-value INCLUDING order, identical interned
	// cell IDs (equivalent to identical resolved strings given equal
	// dictionaries, and stricter), clusters, stats, match-index records
	// one at a time — with O(records) small-int overhead, not O(bytes).
	sameSoakState := func(label string, got, want *Engine) {
		t.Helper()
		zero := func() uint64 { return 0 }
		gc, _ := got.Stream().SnapshotCut(zero)
		wc, _ := want.Stream().SnapshotCut(zero)
		gc.Stats.Chase.LHSEvaluations = 0
		wc.Stats.Chase.LHSEvaluations = 0
		if !reflect.DeepEqual(gc.Stats, wc.Stats) {
			t.Fatalf("%s: stats diverged: %+v vs %+v", label, gc.Stats, wc.Stats)
		}
		if len(gc.Dicts) != len(wc.Dicts) {
			t.Fatalf("%s: dictionary groups diverged", label)
		}
		for i := range gc.Dicts {
			g, w := gc.Dicts[i], wc.Dicts[i]
			if g.Col != w.Col || g.Values.Len() != w.Values.Len() {
				t.Fatalf("%s: dict group %d shape diverged", label, i)
			}
			for v := 0; v < g.Values.Len(); v++ {
				if g.Values.Value(v) != w.Values.Value(v) {
					t.Fatalf("%s: dict col %d value %d diverged", label, g.Col, v)
				}
			}
		}
		if !slices.Equal(gc.RowIDs, wc.RowIDs) {
			t.Fatalf("%s: row ids diverged (%d vs %d rows)", label, len(gc.RowIDs), len(wc.RowIDs))
		}
		for c := range gc.Cols {
			if !slices.Equal(gc.Cols[c], wc.Cols[c]) {
				t.Fatalf("%s: column %d cells diverged", label, c)
			}
		}
		if !reflect.DeepEqual(gc.Clusters, wc.Clusters) {
			t.Fatalf("%s: clusters diverged", label)
		}
		gr, wr := got.captureRecs(), want.captureRecs()
		if gr.Len() != wr.Len() {
			t.Fatalf("%s: match-index records diverged (%d vs %d)", label, gr.Len(), wr.Len())
		}
		var grec, wrec store.EngineRec
		for i := 0; i < gr.Len(); i++ {
			gr.Rec(i, &grec)
			wr.Rec(i, &wrec)
			if grec.ID != wrec.ID || !slices.Equal(grec.Values, wrec.Values) || !slices.Equal(grec.Keys, wrec.Keys) {
				t.Fatalf("%s: match-index record %d diverged", label, i)
			}
			if i < 5 { // spot-check serving behavior on a few stored rows
				gm, err := got.MatchOne(grec.Values)
				if err != nil {
					t.Fatal(err)
				}
				wm, err := want.MatchOne(wrec.Values)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gm.Matches, wm.Matches) {
					t.Fatalf("%s: MatchOne = %v, want %v", label, gm.Matches, wm.Matches)
				}
			}
		}
	}

	// kill crashes the filesystem under the live engine, recovers the
	// directory twice — once to serve, once as a determinism check —
	// and verifies the recovered state is bit-identical to the acked
	// state the dying engine held.
	kill := func(label string) {
		fplan.Inject(fault.Injection{Op: fault.OpWrite, Index: fplan.Count(fault.OpWrite),
			Sticky: true, Crash: true})
		// Burn the armed fault: the engine must observe the crash before
		// recovery, or the "acked state" below could still advance.
		if _, err := eng.AddClustered(soakIDBase+n+stats.kills, soakRow(n+stats.kills)); err == nil {
			t.Fatalf("%s: insert succeeded over a crashed filesystem", label)
		}
		stats.kills++
		dead := eng
		_ = st.Close()

		fplan = fault.NewPlan()
		start := time.Now()
		eng, st = open(fault.Wrap(store.OSFS{}, fplan))
		stats.recoverySec = time.Since(start).Seconds()
		sameSoakState(label+": recovered vs acked", eng, dead)
		dead = nil // at 1M a whole engine state; release before the next rebuild
		// FreeOSMemory, not just GC: the scavenger returns freed spans
		// to the OS lazily, and two engine states just coexisted — the
		// process RSS high-water mark is part of the contract, so force
		// the return rather than letting the peak linger.
		debug.FreeOSMemory()

		// Determinism: an independent replay from the newest snapshot
		// over the same store must land on identical state.
		enf2, err := stream.New(ctx, sigma, stream.ClusterRules(0))
		if err != nil {
			t.Fatal(err)
		}
		again, err := New(plan, WithWorkers(2), WithStream(enf2))
		if err != nil {
			t.Fatal(err)
		}
		again.durable = st
		snap, err := st.LoadSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := again.replayFrom(snap); err != nil {
			t.Fatal(err)
		}
		sameSoakState(label+": recovery determinism", again, eng)
		debug.FreeOSMemory() // drop the replay engine before the next phase's samples
	}

	units := soakUnits(n)
	kill1, kill2 := len(units)*2/5, len(units)*7/10
	ingestStart := time.Now()

	at := runPhase(units[:kill1], 0)
	if at != kill1 {
		t.Fatalf("phase 1 stopped early at unit %d: unexpected insert failure", at)
	}
	kill("kill@40%")
	at = runPhase(units[:kill2], kill1)
	if at != kill2 {
		t.Fatalf("phase 2 stopped early at unit %d: unexpected insert failure", at)
	}
	kill("kill@70%")
	if at = runPhase(units, kill2); at != len(units) {
		t.Fatalf("phase 3 stopped early at unit %d: unexpected insert failure", at)
	}
	ingestSec := time.Since(ingestStart).Seconds()
	stats.sampleMem()

	// Convergence: a final explicit snapshot must succeed, and the
	// store must hold every record.
	if _, err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.store.len(), ds.Credit.Len()+n; got != want {
		t.Fatalf("engine holds %d records, want %d", got, want)
	}

	overall, stalled := p99(stats.singleMS), p99(stats.inflightMS)
	t.Logf("soak: %d records in %.1fs (%.0f rec/s), %d snapshots, %d kills, "+
		"single p99 %.2fms (inflight-overlap p99 %.2fms over %d probes), "+
		"heap peak %.1f MB, sys peak %.1f MB, last recovery %.2fs",
		n, ingestSec, float64(n)/ingestSec, atomic.LoadInt64(&stats.snapshots), stats.kills,
		overall, stalled, len(stats.inflightMS),
		float64(stats.peakHeap)/(1<<20), float64(stats.peakSys)/(1<<20), stats.recoverySec)

	if atomic.LoadInt64(&stats.snapshots) < 2 {
		t.Errorf("only %d concurrent snapshots completed; the soak never overlapped", stats.snapshots)
	}
	budget := float64(soakStallBudget.Milliseconds())
	if overall > budget {
		t.Errorf("single-insert p99 = %.2fms, budget %.0fms", overall, budget)
	}
	if stalled > budget {
		t.Errorf("snapshot-overlapped insert p99 = %.2fms, budget %.0fms", stalled, budget)
	}
	if stats.peakHeap > soakHeapCeiling {
		t.Errorf("heap high-water mark %d bytes breaches the %d ceiling", stats.peakHeap, soakHeapCeiling)
	}

	writeSoakReports(t, n, ingestSec, overall, stalled, stats, eng)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return soakRun{overall: overall, stalled: stalled, peakHeap: stats.peakHeap}
}

// --- scale sections + regression gate ---

type soakStoreEntry struct {
	GeneratedAt   string  `json:"generated_at"`
	Records       int     `json:"records"`
	Snapshots     int64   `json:"snapshots"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	InsertP99MS   float64 `json:"insert_p99_ms"`
	StallP99MS    float64 `json:"snapshot_stall_p99_ms"`
	RecoverySec   float64 `json:"recovery_seconds"`
	HeapPeakBytes uint64  `json:"heap_peak_bytes"`
	SysPeakBytes  uint64  `json:"sys_peak_bytes"`
	Kills         int     `json:"kills"`
}

type soakStreamEntry struct {
	GeneratedAt   string  `json:"generated_at"`
	Records       int     `json:"records"`
	IngestSec     float64 `json:"ingest_seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	Clusters      int     `json:"clusters"`
}

// mergeScaleEntry upserts entry (matched by "records") into the
// "scale" list of the JSON document at path, preserving every other
// key — the scale section rides inside the layer's existing report.
func mergeScaleEntry(t *testing.T, path string, entry any, records int) {
	t.Helper()
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("existing %s is not JSON: %v", path, err)
		}
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	var asMap map[string]any
	if err := json.Unmarshal(raw, &asMap); err != nil {
		t.Fatal(err)
	}
	list, _ := doc["scale"].([]any)
	replaced := false
	for i, e := range list {
		if m, ok := e.(map[string]any); ok && m["records"] == float64(records) {
			list[i] = asMap
			replaced = true
		}
	}
	if !replaced {
		list = append(list, asMap)
	}
	doc["scale"] = list
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("merged scale entry (records=%d) into %s", records, path)
}

func writeSoakReports(t *testing.T, n int, ingestSec, overall, stalled float64, stats *soakStats, eng *Engine) {
	t.Helper()
	now := time.Now().UTC().Format(time.RFC3339)
	if out := os.Getenv("SOAK_STORE_OUT"); out != "" {
		_, size := eng.Store().LastSnapshot()
		mergeScaleEntry(t, out, soakStoreEntry{
			GeneratedAt: now, Records: n,
			Snapshots:     atomic.LoadInt64(&stats.snapshots),
			SnapshotBytes: size,
			InsertP99MS:   round3b(overall), StallP99MS: round3b(stalled),
			RecoverySec:   round3b(stats.recoverySec),
			HeapPeakBytes: stats.peakHeap, SysPeakBytes: stats.peakSys,
			Kills: stats.kills,
		}, n)
	}
	if out := os.Getenv("SOAK_STREAM_OUT"); out != "" {
		mergeScaleEntry(t, out, soakStreamEntry{
			GeneratedAt: now, Records: n,
			IngestSec:     round3b(ingestSec),
			RecordsPerSec: round3b(float64(n) / ingestSec),
			Clusters:      eng.Stream().Stats().Clusters,
		}, n)
	}
}

// gateSoak compares the measured passes against the recorded scale
// entry at the same record count in the BENCH_store.json named by
// SOAK_GATE. The stall measure is max(stall p99, insert p99) per pass,
// and its median over the passes must stay within 10% of the recorded
// entry's (floored at 2 ms); a single pass's p99 on a shared host moves
// by more than that between runs of one commit. Every pass's heap
// watermark must stay within 10% of the recorded one.
func gateSoak(t *testing.T, n int, runs []soakRun) {
	t.Helper()
	path := os.Getenv("SOAK_GATE")
	if path == "" {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("SOAK_GATE: %v", err)
	}
	var doc struct {
		Scale []soakStoreEntry `json:"scale"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SOAK_GATE %s: %v", path, err)
	}
	for _, rec := range doc.Scale {
		if rec.Records != n {
			continue
		}
		stalls := make([]float64, len(runs))
		var peakHeap uint64
		for i, r := range runs {
			stalls[i] = max(r.stalled, r.overall)
			peakHeap = max(peakHeap, r.peakHeap)
		}
		slices.Sort(stalls)
		// Floors keep the gate meaningful on sub-millisecond baselines:
		// scheduler noise on a loaded CI box is not a regression.
		p99Now, p99Rec := stalls[len(stalls)/2], max(rec.StallP99MS, rec.InsertP99MS)
		if floor := 2.0; p99Rec < floor {
			p99Rec = floor
		}
		if p99Now > 1.1*p99Rec {
			t.Errorf("gate: median stall p99 %.2fms (passes %v) is >10%% over the recorded %.2fms", p99Now, stalls, p99Rec)
		}
		if heapRec := rec.HeapPeakBytes; heapRec > 0 && float64(peakHeap) > 1.1*float64(heapRec) {
			t.Errorf("gate: heap peak %d is >10%% over the recorded %d", peakHeap, heapRec)
		}
		t.Logf("gate: checked %d passes against recorded entry (records=%d): stall p99s %v ms, heap peak %d",
			len(runs), n, stalls, peakHeap)
		return
	}
	t.Logf("gate: no recorded scale entry at records=%d in %s; skipped", n, path)
}
