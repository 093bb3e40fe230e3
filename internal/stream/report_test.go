package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"mdmatch/internal/core"
	"mdmatch/internal/gen"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/semantics"
	"mdmatch/internal/similarity"
)

// streamReport is the schema of BENCH_stream.json, the repo's running
// record of per-insert enforcement latency against the full-re-chase
// alternative (written by `make bench-stream`).
type streamReport struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	MaxProcs    int           `json:"gomaxprocs"`
	Sigma       string        `json:"sigma"`
	Sizes       []sizeMeasure `json:"sizes"`
	Equivalence equivFlags    `json:"equivalence"`
}

type sizeMeasure struct {
	Sigma        string  `json:"sigma"`
	HoldersK     int     `json:"holders_k"`
	Records      int     `json:"records"`
	BatchLoadSec float64 `json:"batch_load_seconds"`
	InsertsTimed int     `json:"inserts_timed"`
	// Per-insert latency of streaming the last InsertsTimed records one
	// at a time into the warm enforcer.
	PerInsertMeanUS float64 `json:"per_insert_us_mean"`
	PerInsertP50US  float64 `json:"per_insert_us_p50"`
	PerInsertMaxUS  float64 `json:"per_insert_us_max"`
	// FullRechaseSec is the alternative an incremental engine replaces:
	// one from-scratch Enforce (the worklist chase, the repo's fastest
	// batch path) over the final dataset — the cost EVERY arrival would
	// pay without maintained chase state.
	FullRechaseSec    float64 `json:"full_rechase_seconds"`
	SpeedupVsRechase  float64 `json:"speedup_vs_full_rechase"`
	TotalApplications int     `json:"total_applications"`
	Clusters          int     `json:"clusters"`
}

type equivFlags struct {
	// CheckedRecords is the dataset size of the bit-identity check.
	CheckedRecords int `json:"checked_records"`
	// BatchBitIdentical: InsertBatch from empty reproduced
	// semantics.Enforce exactly (applications, passes, instance).
	BatchBitIdentical bool `json:"batch_bit_identical"`
	// StreamedStable: after streaming the last records one at a time,
	// the maintained instance is stable for Σ.
	StreamedStable bool `json:"streamed_stable"`
}

// TestWriteStreamBenchReport measures streaming-insert latency against
// the full re-chase alternative across dataset sizes and writes the
// result as JSON, keeping the file's other sections. It is skipped
// unless BENCH_STREAM_OUT names the output file (wired up as
// `make bench-stream`), so regular test runs stay fast. BENCH_STREAM_K
// overrides the largest corpus scale.
func TestWriteStreamBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_STREAM_OUT")
	if out == "" {
		t.Skip("set BENCH_STREAM_OUT=<path> to write the latency report")
	}
	maxK := 2000
	if v := os.Getenv("BENCH_STREAM_K"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad BENCH_STREAM_K %q: %v", v, err)
		}
		maxK = n
	}
	credit := gen.CreditSchema()
	report := streamReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		Sigma:       "gen.DedupMDs (" + sigmaShape(gen.DedupMDs(schema.MustPair(credit, credit))) + ")",
	}
	for _, k := range []int{maxK / 8, maxK / 4, maxK / 2, maxK} {
		if k < 50 {
			continue
		}
		// Full rule set: the dense rules put an Θ(records) floor
		// under every insert (a new card number must be compared against
		// every distinct one); the blockable-only set shows the
		// frontier-seeded regime, where per-insert latency is governed by
		// block sizes, not dataset size.
		report.Sizes = append(report.Sizes, measureSize(t, k, "full", nil))
		report.Sizes = append(report.Sizes, measureSize(t, k, "blockable-only", blockableOnly))
	}

	// Equivalence: the smallest size's dataset, batch-loaded from empty,
	// must reproduce the batch chase bit-exactly.
	report.Equivalence = checkEquivFlags(t, maxK/8)

	// The parallel and scale sections belong to other harnesses.
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]any{}
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	mergeReport(t, out, fields)
	t.Logf("wrote %s", out)
}

// sigmaShape counts Σ's rules by how the chase seeds them: from an
// equality join key, from a Soundex join key only, or densely (no
// hash-encodable conjunct).
func sigmaShape(sigma []core.MD) string {
	var eq, sdx int
	for _, md := range sigma {
		hasEq, hasSdx := false, false
		for _, c := range md.LHS {
			hasEq = hasEq || similarity.IsEq(c.Op)
			hasSdx = hasSdx || c.Op.Name() == "soundex"
		}
		switch {
		case hasEq:
			eq++
		case hasSdx:
			sdx++
		}
	}
	return fmt.Sprintf("%d rules: %d dense, %d equality-blocked, %d soundex-seeded",
		len(sigma), len(sigma)-eq-sdx, eq, sdx)
}

// blockableOnly keeps the rules with at least one hash-encodable
// conjunct (equality or Soundex): the ones the frontier can seed from
// join indexes.
func blockableOnly(sigma []core.MD) []core.MD {
	var out []core.MD
	for _, md := range sigma {
		for _, c := range md.LHS {
			if similarity.IsEq(c.Op) || c.Op.Name() == "soundex" {
				out = append(out, md)
				break
			}
		}
	}
	return out
}

func measureSize(t *testing.T, k int, name string, filter func([]core.MD) []core.MD) sizeMeasure {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	sigma := gen.DedupMDs(ctx)
	if filter != nil {
		sigma = filter(sigma)
	}
	n := ds.Credit.Len()
	timed := 100
	if timed > n/2 {
		timed = n / 2
	}

	// Warm load: everything but the tail, in one batch chase.
	head := record.NewInstance(ds.Credit.Rel)
	for _, tup := range ds.Credit.Tuples[:n-timed] {
		if _, err := head.AppendWithID(tup.ID, slices.Clone(tup.Values)); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(ctx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := e.InsertBatch(head); err != nil {
		t.Fatal(err)
	}
	loadSec := time.Since(start).Seconds()

	// Stream the tail one record at a time, timing each insert.
	lat := make([]float64, 0, timed)
	for _, tup := range ds.Credit.Tuples[n-timed:] {
		t0 := time.Now()
		if _, err := e.InsertTuple(tup); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, float64(time.Since(t0).Microseconds()))
	}
	sort.Float64s(lat)
	var sum, max float64
	for _, v := range lat {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(lat))

	// The alternative: a full re-chase of the final dataset.
	d, err := record.NewPairInstance(ctx, ds.Credit, ds.Credit)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := semantics.Enforce(d, sigma); err != nil {
		t.Fatal(err)
	}
	rechaseSec := time.Since(start).Seconds()

	st := e.Stats()
	m := sizeMeasure{
		Sigma:    name,
		HoldersK: k, Records: n,
		BatchLoadSec: round3(loadSec), InsertsTimed: timed,
		PerInsertMeanUS: round3(mean), PerInsertP50US: round3(lat[len(lat)/2]), PerInsertMaxUS: round3(max),
		FullRechaseSec:    round3(rechaseSec),
		SpeedupVsRechase:  round3(rechaseSec * 1e6 / mean),
		TotalApplications: st.Applications,
		Clusters:          st.Clusters,
	}
	t.Logf("%s K=%d records=%d: load %.2fs, per-insert mean %.0fµs p50 %.0fµs max %.0fµs, re-chase %.2fs (%.0fx)",
		name, k, n, loadSec, mean, lat[len(lat)/2], max, rechaseSec, m.SpeedupVsRechase)
	return m
}

func checkEquivFlags(t *testing.T, k int) equivFlags {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	sigma := gen.DedupMDs(ctx)
	flags := equivFlags{CheckedRecords: ds.Credit.Len()}

	d, err := record.NewPairInstance(ctx, ds.Credit, ds.Credit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := semantics.Enforce(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ctx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.InsertBatch(ds.Credit)
	if err != nil {
		t.Fatal(err)
	}
	flags.BatchBitIdentical = res.Applications == want.Applications && res.Passes == want.Passes
	for i, tup := range e.Instance().Tuples {
		if !slices.Equal(tup.Values, want.Instance.Left.Tuples[i].Values) {
			flags.BatchBitIdentical = false
			break
		}
	}
	if !flags.BatchBitIdentical {
		t.Errorf("InsertBatch diverged from semantics.Enforce at K=%d", k)
	}

	// Stream a fresh copy record-by-record; the result must be stable.
	e2, err := New(ctx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range ds.Credit.Tuples {
		if _, err := e2.InsertTuple(tup); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := record.NewPairInstance(ctx, e2.Instance(), e2.Instance())
	if err != nil {
		t.Fatal(err)
	}
	flags.StreamedStable, err = semantics.IsStable(d2, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !flags.StreamedStable {
		t.Error("streamed instance is not stable")
	}
	return flags
}

func round3(v float64) float64 {
	s, _ := strconv.ParseFloat(fmt.Sprintf("%.3f", v), 64)
	return s
}

// BenchmarkStreamInsert measures one streaming insertion into a warm
// enforcer holding ~1800 records (K=1000 corpus).
func BenchmarkStreamInsert(b *testing.B) {
	b.ReportAllocs()
	ds, err := gen.Generate(gen.DefaultConfig(1000))
	if err != nil {
		b.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	e, err := New(ctx, gen.DedupMDs(ctx))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.InsertBatch(ds.Credit); err != nil {
		b.Fatal(err)
	}
	// Fresh inserts: clean copies of existing holders with new ids.
	next := 1 << 22
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := ds.Credit.Tuples[i%ds.Credit.Len()]
		if _, err := e.Insert(next+i, tup.Values); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSigmaShape pins the rule-shape label BENCH_stream.json records
// for gen.DedupMDs.
func TestSigmaShape(t *testing.T) {
	credit := gen.CreditSchema()
	got := sigmaShape(gen.DedupMDs(schema.MustPair(credit, credit)))
	if want := "7 rules: 3 dense, 3 equality-blocked, 1 soundex-seeded"; got != want {
		t.Fatalf("sigmaShape(DedupMDs) = %q, want %q", got, want)
	}
}
