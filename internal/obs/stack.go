package obs

import (
	"strconv"
	"time"

	"mdmatch/internal/engine"
	"mdmatch/internal/store"
	"mdmatch/internal/stream"
)

// This file adapts the serving stack's per-layer observer interfaces
// (engine.Observer, stream.Observer, store.Observer) onto a Registry.
// The split of responsibilities follows the hot-path cost model:
//
//   - latencies and per-operation distributions CANNOT be reconstructed
//     later, so the layers push them into histograms as they happen
//     (one time.Now() pair plus a couple of atomic adds per operation);
//   - cumulative totals and occupancy the layers ALREADY count
//     (engine.Stats, stream.Stats/RuleStats/CacheStats, store LSN
//     positions) are pulled at scrape time through Collect* families —
//     zero additional hot-path cost.
//
// Each adapter implements an Attach{Engine,Stream,Store} method. The
// layers probe for it at construction (a structural type assertion, no
// obs import), so a single WithObserver option both wires the push
// hooks and lets the adapter register its scrape-time views.

// EngineObserver instruments an engine.Engine: match/batch latency
// histograms pushed per call, and totals (queries, candidates, index
// occupancy, interner pair-decision counters) collected at scrape.
type EngineObserver struct {
	reg        *Registry
	matchDur   *Histogram
	batchDur   *Histogram
	candidates *Histogram
}

var _ engine.Observer = (*EngineObserver)(nil)

// NewEngineObserver registers the mdmatch_engine_* families on reg.
// Pass the result to engine.WithObserver.
func NewEngineObserver(reg *Registry) *EngineObserver {
	return &EngineObserver{
		reg: reg,
		matchDur: reg.Histogram("mdmatch_engine_match_duration_seconds",
			"Latency of one match query (MatchOne or a MatchBatch worker query).", DefBuckets()),
		batchDur: reg.Histogram("mdmatch_engine_batch_duration_seconds",
			"Wall latency of one MatchBatch call (workers run in parallel inside).", DefBuckets()),
		candidates: reg.Histogram("mdmatch_engine_match_candidates",
			"Blocking-index candidates retrieved per match query.", SizeBuckets()),
	}
}

// MatchObserved implements engine.Observer.
func (o *EngineObserver) MatchObserved(seconds float64, candidates, compared, matched int) {
	o.matchDur.Observe(seconds)
	o.candidates.Observe(float64(candidates))
}

// BatchObserved implements engine.Observer.
func (o *EngineObserver) BatchObserved(seconds float64, size int) {
	o.batchDur.Observe(seconds)
}

// AttachEngine registers the scrape-time views over e's own counters.
// engine.New calls it when this observer is installed.
func (o *EngineObserver) AttachEngine(e *engine.Engine) {
	reg := o.reg
	reg.CollectCounter("mdmatch_engine_queries_total",
		"Match queries served (MatchOne calls, including MatchBatch workers).", nil,
		func(emit Emit) { emit(float64(e.Stats().Queries)) })
	reg.CollectCounter("mdmatch_engine_candidates_total",
		"Blocking-index postings retrieved across all queries.", nil,
		func(emit Emit) { emit(float64(e.Stats().Candidates)) })
	reg.CollectCounter("mdmatch_engine_compared_total",
		"Candidate pairs evaluated against the match rules.", nil,
		func(emit Emit) { emit(float64(e.Stats().Compared)) })
	reg.CollectCounter("mdmatch_engine_matched_total",
		"Candidate pairs the rules accepted.", nil,
		func(emit Emit) { emit(float64(e.Stats().Matched)) })
	reg.CollectCounter("mdmatch_engine_pair_evals_total",
		"Whole-program pair decisions by the interner.", nil,
		func(emit Emit) { total, _ := e.PairEvals(); emit(float64(total)) })
	reg.CollectCounter("mdmatch_engine_pair_resolves_total",
		"Pair decisions that fell off the warm verdict-cache path.", nil,
		func(emit Emit) { _, resolved := e.PairEvals(); emit(float64(resolved)) })
	reg.CollectGauge("mdmatch_engine_indexed_records",
		"Records currently in the match store.", nil,
		func(emit Emit) { emit(float64(e.Stats().IndexedRecords)) })
	reg.CollectGauge("mdmatch_engine_index_keys",
		"Distinct blocking keys in the index.", nil,
		func(emit Emit) { emit(float64(e.Stats().IndexKeys)) })
	reg.CollectGauge("mdmatch_engine_index_entries",
		"Postings in the blocking index.", nil,
		func(emit Emit) { emit(float64(e.Stats().IndexEntries)) })
	reg.CollectGauge("mdmatch_engine_inflight_batches",
		"MatchBatch calls currently executing.", nil,
		func(emit Emit) { emit(float64(e.InFlightBatches())) })
}

// StreamObserver instruments a stream.Enforcer: per-insert chase
// latency and frontier-size histograms pushed per call, and totals
// (records, clusters, chase counters, per-rule telemetry, verdict-cache
// traffic) collected at scrape.
type StreamObserver struct {
	reg         *Registry
	insertDur   *Histogram
	insertPairs *Histogram
	batchDur    *Histogram
}

var _ stream.Observer = (*StreamObserver)(nil)

// NewStreamObserver registers the mdmatch_stream_* families on reg.
// Pass the result to stream.WithObserver (or engine option plumbing).
func NewStreamObserver(reg *Registry) *StreamObserver {
	return &StreamObserver{
		reg: reg,
		insertDur: reg.Histogram("mdmatch_stream_insert_duration_seconds",
			"Latency of one Insert: lock wait plus the incremental chase to fixpoint.", DefBuckets()),
		insertPairs: reg.Histogram("mdmatch_stream_insert_pairs",
			"Candidate pairs the chase frontier visited per Insert.", SizeBuckets()),
		batchDur: reg.Histogram("mdmatch_stream_batch_duration_seconds",
			"Latency of one InsertBatch (a single chase over all rows).", DefBuckets()),
	}
}

// InsertObserved implements stream.Observer.
func (o *StreamObserver) InsertObserved(seconds float64, passes, applications int, pairsExamined int64) {
	o.insertDur.Observe(seconds)
	o.insertPairs.Observe(float64(pairsExamined))
}

// BatchObserved implements stream.Observer.
func (o *StreamObserver) BatchObserved(seconds float64, rows, passes, applications int) {
	o.batchDur.Observe(seconds)
}

// AttachStream registers the scrape-time views over e's own counters.
// stream.New calls it when this observer is installed.
func (o *StreamObserver) AttachStream(e *stream.Enforcer) {
	reg := o.reg
	reg.CollectGauge("mdmatch_stream_records",
		"Records in the maintained instance.", nil,
		func(emit Emit) { emit(float64(e.Stats().Records)) })
	reg.CollectGauge("mdmatch_stream_clusters",
		"Clusters in the maintained instance (including singletons).", nil,
		func(emit Emit) { emit(float64(e.Stats().Clusters)) })
	reg.CollectGauge("mdmatch_stream_chase_workers",
		"Chase worker count (1 = serial; >1 = deterministic parallel chase).", nil,
		func(emit Emit) { emit(float64(e.Workers())) })
	reg.CollectCounter("mdmatch_stream_speculation_pairs_total",
		"Chase candidate pairs by speculation outcome (all 0 at one chase worker): speculated by a worker, committed from its verdict, invalidated by an earlier commit, or visited with no verdict.",
		[]string{"outcome"},
		func(emit Emit) {
			s := e.SpeculationStats()
			emit(float64(s.Speculated), "speculated")
			emit(float64(s.Committed), "committed")
			emit(float64(s.Invalidated), "invalidated")
			emit(float64(s.NotEvaluated), "not_evaluated")
		})
	reg.CollectGauge("mdmatch_stream_queue_depth",
		"Insert operations in flight (queued on the insertion lock or chasing).", nil,
		func(emit Emit) { emit(float64(e.QueueDepth())) })
	reg.CollectCounter("mdmatch_stream_inserts_total",
		"Insert calls enforced.", nil,
		func(emit Emit) { emit(float64(e.Stats().Inserts)) })
	reg.CollectCounter("mdmatch_stream_batches_total",
		"InsertBatch calls enforced.", nil,
		func(emit Emit) { emit(float64(e.Stats().Batches)) })
	reg.CollectCounter("mdmatch_stream_passes_total",
		"Chase passes summed over all insertions.", nil,
		func(emit Emit) { emit(float64(e.Stats().Passes)) })
	reg.CollectCounter("mdmatch_stream_applications_total",
		"Rule applications (RHS enforcements) summed over all insertions.", nil,
		func(emit Emit) { emit(float64(e.Stats().Applications)) })
	reg.CollectCounter("mdmatch_stream_pairs_examined_total",
		"Candidate pairs examined by the chase.", nil,
		func(emit Emit) { emit(float64(e.Stats().Chase.PairsExamined)) })
	reg.CollectCounter("mdmatch_stream_rule_firings_total",
		"Rule firings (identified unequal RHS cells).", nil,
		func(emit Emit) { emit(float64(e.Stats().Chase.RuleFirings)) })
	reg.CollectCounter("mdmatch_stream_rule_examined_total",
		"Candidate pairs visited, per MD (rule = index into the compiled set).",
		[]string{"rule"},
		func(emit Emit) {
			for i, rs := range e.RuleStats() {
				emit(float64(rs.Examined), strconv.Itoa(i))
			}
		})
	reg.CollectCounter("mdmatch_stream_rule_matched_total",
		"LHS matches, per MD (rule = index into the compiled set).",
		[]string{"rule"},
		func(emit Emit) {
			for i, rs := range e.RuleStats() {
				emit(float64(rs.Matched), strconv.Itoa(i))
			}
		})
	reg.CollectCounter("mdmatch_stream_rule_fired_total",
		"Firings that identified unequal RHS cells, per MD.",
		[]string{"rule"},
		func(emit Emit) {
			for i, rs := range e.RuleStats() {
				emit(float64(rs.Fired), strconv.Itoa(i))
			}
		})
	reg.CollectCounter("mdmatch_stream_verdict_cache_lookups_total",
		"Verdict-cache lookups across all similarity conjuncts.", nil,
		func(emit Emit) { lookups, _ := e.CacheStats(); emit(float64(lookups)) })
	reg.CollectCounter("mdmatch_stream_verdict_cache_misses_total",
		"Verdict-cache misses (actual similarity-operator evaluations).", nil,
		func(emit Emit) { _, misses := e.CacheStats(); emit(float64(misses)) })
	reg.CollectGauge("mdmatch_memory_bytes",
		"Estimated heap bytes held, per structure.",
		[]string{"structure"},
		func(emit Emit) { emit(float64(e.CacheBytes()), "stream_verdict_cache") })
}

// StoreObserver instruments a store.Store: WAL append and snapshot
// latency histograms pushed per operation, and durability positions
// (LSNs, segment count, snapshot size/age, replay progress) collected
// at scrape.
type StoreObserver struct {
	reg          *Registry
	appendDur    *Histogram
	snapDur      *Histogram
	appends      *Counter
	appendBytes  *Counter
	snapInflight *Gauge
}

var _ store.Observer = (*StoreObserver)(nil)

// NewStoreObserver registers the mdmatch_store_* families on reg.
// Pass the result to store.WithObserver.
func NewStoreObserver(reg *Registry) *StoreObserver {
	return &StoreObserver{
		reg: reg,
		appendDur: reg.Histogram("mdmatch_store_append_duration_seconds",
			"Latency of one durable WAL append (write plus fsync when enabled).", DefBuckets()),
		snapDur: reg.Histogram("mdmatch_store_snapshot_duration_seconds",
			"Latency of one snapshot write (encode excluded; write, fsync, rename, GC).", DefBuckets()),
		appends: reg.Counter("mdmatch_store_appends_total",
			"Durable WAL appends."),
		appendBytes: reg.Counter("mdmatch_store_append_bytes_total",
			"Bytes appended to the WAL."),
		snapInflight: reg.Gauge("mdmatch_store_snapshot_inflight",
			"Snapshot writes currently streaming to disk (appends continue during them)."),
	}
}

// AppendObserved implements store.Observer.
func (o *StoreObserver) AppendObserved(seconds float64, bytes int) {
	o.appendDur.Observe(seconds)
	o.appends.Inc()
	o.appendBytes.Add(int64(bytes))
}

// SnapshotObserved implements store.Observer.
func (o *StoreObserver) SnapshotObserved(seconds float64, bytes int) {
	o.snapDur.Observe(seconds)
}

// SnapshotInflight implements the store's optional snapshot tracker
// extension: +1 when a snapshot starts streaming to disk, -1 when it
// finishes (success or failure). A value stuck at 1 with a growing
// snapshot age points at a wedged snapshot writer.
func (o *StoreObserver) SnapshotInflight(delta int) {
	o.snapInflight.Add(float64(delta))
}

// AttachStore registers the scrape-time views over s's positions.
// store.Open calls it when this observer is installed.
func (o *StoreObserver) AttachStore(s *store.Store) {
	reg := o.reg
	reg.CollectGauge("mdmatch_store_lsn",
		"Last assigned log sequence number.", nil,
		func(emit Emit) { emit(float64(s.LSN())) })
	reg.CollectGauge("mdmatch_store_snapshot_lsn",
		"LSN of the newest snapshot (0 = none).", nil,
		func(emit Emit) { emit(float64(s.SnapshotLSN())) })
	reg.CollectGauge("mdmatch_store_wal_bytes_since_snapshot",
		"WAL bytes appended since the newest snapshot (recovery debt).", nil,
		func(emit Emit) { emit(float64(s.BytesSinceSnapshot())) })
	reg.CollectGauge("mdmatch_store_segments",
		"Live WAL segments (including the active one).", nil,
		func(emit Emit) { emit(float64(s.Segments())) })
	reg.CollectGauge("mdmatch_store_snapshot_size_bytes",
		"Encoded size of the newest snapshot.", nil,
		func(emit Emit) { _, size := s.LastSnapshot(); emit(float64(size)) })
	reg.CollectGauge("mdmatch_store_snapshot_age_seconds",
		"Seconds since the newest snapshot was written (0 = none yet).", nil,
		func(emit Emit) {
			when, _ := s.LastSnapshot()
			if when.IsZero() {
				emit(0)
				return
			}
			emit(time.Since(when).Seconds())
		})
	reg.CollectGauge("mdmatch_store_replay_applied",
		"LSN of the last WAL record delivered by recovery replay.", nil,
		func(emit Emit) { applied, _ := s.ReplayProgress(); emit(float64(applied)) })
	reg.CollectGauge("mdmatch_store_replay_target",
		"Log head at recovery replay start (0 = no replay ran).", nil,
		func(emit Emit) { _, target := s.ReplayProgress(); emit(float64(target)) })
}
