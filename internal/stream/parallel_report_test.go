package stream

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mdmatch/internal/gen"
	"mdmatch/internal/schema"
)

// parallelCurvePoint / parallelSection / mergeParallelSection mirror
// internal/engine's bench-parallel report shapes (each report test is
// self-contained in its package; the JSON schema is shared).
type parallelCurvePoint struct {
	Workers   int     `json:"workers"`
	Seconds   float64 `json:"seconds"`
	Value     float64 `json:"value"`
	SpeedupV1 float64 `json:"speedup_vs_1"`
}

type parallelSection struct {
	GeneratedAt string               `json:"generated_at"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Measure     string               `json:"measure"`
	Unit        string               `json:"unit"`
	Note        string               `json:"note,omitempty"`
	Curve       []parallelCurvePoint `json:"curve"`
}

func mergeParallelSection(t *testing.T, path string, section parallelSection) {
	t.Helper()
	mergeReport(t, path, map[string]any{"parallel": section})
	t.Logf("merged parallel section into %s", path)
}

// mergeReport writes fields as top-level keys of the JSON document at
// path, keeping every other key (the sections other harnesses own).
func mergeReport(t *testing.T, path string, fields map[string]any) {
	t.Helper()
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("existing %s is not JSON: %v", path, err)
		}
	}
	for k, v := range fields {
		doc[k] = v
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWriteParallelStreamReport measures the incremental chase — every
// corpus record streamed through Insert one at a time — across the
// worker curve and merges the result into BENCH_stream.json's
// "parallel" section (wired up as `make bench-parallel`). The
// speculation thresholds are lowered so the parallel path engages at
// bench corpus scale; the curve therefore measures the speculative
// machinery itself, including its overhead at workers=1-equivalent
// frontier sizes. Skipped unless BENCH_PARALLEL_STREAM_OUT is set.
func TestWriteParallelStreamReport(t *testing.T) {
	out := os.Getenv("BENCH_PARALLEL_STREAM_OUT")
	if out == "" {
		t.Skip("set BENCH_PARALLEL_STREAM_OUT=<path> to record the scaling curve")
	}
	k := 1000
	if v := os.Getenv("BENCH_STREAM_K"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad BENCH_STREAM_K %q: %v", v, err)
		}
		k = n
	}
	restore := TuneSpeculation(4096, 256)
	defer restore()

	ds, err := gen.Generate(gen.DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	sigma := gen.DedupMDs(ctx)

	section := parallelSection{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Measure:     "stream.Insert (full corpus, one record at a time)",
		Unit:        "inserts_per_second",
		Note:        "speculation thresholds lowered (chunk=4096, minPairs=256) so the parallel path engages at bench scale",
	}
	var oneWorker float64
	for _, workers := range []int{1, 2, 4} {
		e, err := New(ctx, sigma,
			ClusterRules(gen.DedupClusterRules()...), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for _, tup := range ds.Credit.Tuples {
			if _, err := e.Insert(tup.ID, tup.Values); err != nil {
				t.Fatal(err)
			}
		}
		secs := time.Since(start).Seconds()
		p := parallelCurvePoint{
			Workers: workers, Seconds: secs,
			Value: float64(ds.Credit.Len()) / secs,
		}
		if workers == 1 {
			oneWorker = secs
		}
		if oneWorker > 0 {
			p.SpeedupV1 = oneWorker / secs
		}
		section.Curve = append(section.Curve, p)
	}
	mergeParallelSection(t, out, section)
}

// BenchmarkStreamInsertParallel is BenchmarkStreamInsert with the
// deterministic parallel chase enabled (4 workers, thresholds lowered
// so speculation engages). CI runs it at -benchtime=1x as a smoke of
// the speculative path; compare against BenchmarkStreamInsert for the
// single-core overhead.
func BenchmarkStreamInsertParallel(b *testing.B) {
	b.ReportAllocs()
	restore := TuneSpeculation(4096, 256)
	defer restore()
	ds, err := gen.Generate(gen.DefaultConfig(1000))
	if err != nil {
		b.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	e, err := New(ctx, gen.DedupMDs(ctx), WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.InsertBatch(ds.Credit); err != nil {
		b.Fatal(err)
	}
	next := 1 << 22
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := ds.Credit.Tuples[i%ds.Credit.Len()]
		if _, err := e.Insert(next+i, tup.Values); err != nil {
			b.Fatal(err)
		}
	}
}
