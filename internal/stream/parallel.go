package stream

import (
	"bytes"
	"runtime"

	"mdmatch/internal/par"
	"mdmatch/internal/values"
)

// The deterministic parallel layer of the incremental chase:
// speculative parallel verdict evaluation with serial in-order commit.
//
// The chase is ORDER-SENSITIVE (enforcement is not confluent), so the
// firing sequence of the serial scan is the contract — the parallel
// chase must produce the exact same sequence. Blocked scans (scanRule's
// base/overflow-heap merge in stream.go) run in one of two modes.
// Serial, every candidate is visited. Speculating, the loop works chunk
// by chunk:
//
//  1. As the scan cursor reaches the end of the last chunk, take the
//     next specChunk base entries.
//  2. PARALLEL PHASE: workers evaluate each candidate's full verdict —
//     LHS conjuncts and the RHS-differs check — on pure reads (interned
//     id slices, pre-warmed derived forms, verdict-cache Peeks). Cache
//     misses are answered by values.Cache.Compute and buffered per
//     worker; nothing shared is written, so the phase is race-free by
//     construction.
//  3. BARRIER: the buffered fills merge into the shared caches
//     (values.MergeFills; order-independent because verdicts are pure
//     and Store is idempotent — see values/spec.go).
//  4. SERIAL COMMIT: the loop carries on in exactly the serial order,
//     committing each candidate through commitPair. A speculation is
//     valid iff neither of its rows was touched on a column the
//     scanning rule reads since the chunk's epoch began (per-row stamps
//     against the epoch); a valid one commits from its verdict, and an
//     invalidated one — or a candidate with no verdict (specNone) —
//     falls back to a serial visit.
//
// The committed effects are exactly visit's — cluster linking on any
// LHS match, per-rule telemetry and the provenance hooks of
// provenance.go — and are all applied at commit, in serial order.
// Speculation records NO provenance: a speculative verdict is
// provisional until its commit.
//
// The firing sequence — and with it the instance, clusters, applied
// rules, Applications, Passes, PairsExamined, RuleFirings, the per-rule
// counters and the provenance stream — is bit-identical to the serial
// Enforcer at any worker count (property-tested in parallel_test.go).
// LHSEvaluations may exceed the serial count by speculations a
// same-chunk commit made unreachable; it is never lower.
//
// Dense scans (scanDense) never speculate. Their per-insert frontier is
// a thin cross — the new row and column — of mostly warm verdict
// lookups, so a phase's fan-out, barrier and verdict buffer cost more
// than the lookups they overlap: speculating them made a warm K=1000
// enforcer's mean insert a third slower at two workers than serial.
//
// One observable difference from workers == 1 exists outside the
// contract: derived Soundex code ids are assigned in dictionary order
// by pre-warming rather than in first-use order, so blockable rules'
// uint64 join keys differ numerically. Bucket membership is unchanged
// (rows share a bucket iff their seed encodings are pairwise equal),
// which is all the scan order depends on.

// specChunk is the number of candidates speculated per phase, and
// specMinPairs the frontier size below which a scan stays serial (a
// goroutine fan-out costs more than a handful of warm verdict lookups).
// Both are vars so the property tests can shrink them to force many
// chunks and mid-chunk invalidations on small datasets.
var (
	specChunk    = 1 << 15
	specMinPairs = 2048
)

// TuneSpeculation overrides the thresholds gating the parallel chase
// (chunk size, minimum frontier) and returns a func restoring the
// previous values. It exists so tests OUTSIDE this package (engine
// recovery equivalence, bench harnesses) can force the speculative
// paths on datasets far below the production thresholds; serving code
// must not call it. Arguments <= 0 leave the corresponding threshold
// unchanged.
func TuneSpeculation(chunk, minPairs int) (restore func()) {
	pc, pm := specChunk, specMinPairs
	if chunk > 0 {
		specChunk = chunk
	}
	if minPairs > 0 {
		specMinPairs = minPairs
	}
	return func() { specChunk, specMinPairs = pc, pm }
}

// Speculative verdicts. specNone marks a candidate the parallel phase
// did not evaluate (overflow-heap entries); it never validates, so the
// commit falls back to a serial visit.
const (
	specNoMatch uint8 = iota // LHS fails: pair only counts as examined
	specMatch                // LHS holds, RHS already equal: links, no firing
	specFire                 // LHS holds, RHS differs: links and fires
	specNone                 // not evaluated speculatively
)

// WithWorkers sets the chase worker count. workers > 1 evaluates each
// blocked scan chunk's LHS verdicts speculatively on worker goroutines and
// commits serially in reference order, keeping every outcome of the
// equivalence contract bit-identical to the serial enforcer (see
// parallel.go); n <= 0 selects GOMAXPROCS. The default is 1: exactly
// the serial chase, no goroutines.
func WithWorkers(n int) Option {
	return func(e *Enforcer) error {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		e.workers = n
		return nil
	}
}

// Workers reports the configured chase worker count.
func (e *Enforcer) Workers() int { return e.workers }

// SpeculationStats counts what the parallel layer did over the
// Enforcer's lifetime; all zero at one worker. Every speculated pair
// commits exactly once, so Speculated == Committed + Invalidated. The
// counts depend on the worker count and on thresholds, so they are kept
// out of Stats (which recovery reproduces bit for bit).
type SpeculationStats struct {
	// Speculated counts candidate pairs whose verdict a worker evaluated.
	Speculated int64
	// Committed counts speculations committed from their verdict.
	Committed int64
	// Invalidated counts speculations an earlier commit in the same
	// chunk made stale (a row touched on a relevant column); each was
	// re-visited serially.
	Invalidated int64
	// NotEvaluated counts candidates a speculating scan visited with no
	// verdict (specNone): overflow-heap re-enqueues.
	NotEvaluated int64
	// Fills counts the speculative verdict-cache fills merged: operator
	// evaluations the caches' own counters never saw. CacheStats misses
	// plus Fills equals Stats().Chase.LHSEvaluations on an enforcer not
	// restored from a State.
	Fills int64
}

// SpeculationStats returns the parallel layer's lifetime counters.
func (e *Enforcer) SpeculationStats() SpeculationStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.spec == nil {
		return SpeculationStats{}
	}
	return e.spec.stats
}

// speculator is the Enforcer's persistent parallel state.
type speculator struct {
	workers int
	// clock advances once per speculation phase; stampL/stampR record
	// the clock value at which a firing last touched the row on a column
	// relevant to the scanning rule. Sized to the instance, grown per
	// enforcement.
	clock          int64
	stampL, stampR []int64
	// verdicts is the reusable per-chunk verdict buffer; fills the
	// per-worker cache-fill buffers (merged at each barrier).
	verdicts []uint8
	fills    [][]values.Fill
	stats    SpeculationStats
}

// warmEntry tracks incremental pre-warming of one dictionary's lazily
// derived forms: everything below cursor is warmed, and the value
// universe only grows, so each enforcement warms just the new tail.
type warmEntry struct {
	dict       *values.Dict
	runes, sdx bool
	cursor     int
}

// initParallel builds the speculator and the warm list once the worker
// count is known (after options).
func (e *Enforcer) initParallel() {
	e.spec = &speculator{
		workers: e.workers,
		fills:   make([][]values.Fill, e.workers),
	}
	byDict := make(map[*values.Dict]int)
	add := func(d *values.Dict, runes, sdx bool) {
		if d == nil {
			return
		}
		i, ok := byDict[d]
		if !ok {
			i = len(e.warm)
			byDict[d] = i
			e.warm = append(e.warm, warmEntry{dict: d})
		}
		e.warm[i].runes = e.warm[i].runes || runes
		e.warm[i].sdx = e.warm[i].sdx || sdx
	}
	for _, r := range e.rules {
		for i := range r.lhs {
			c := &r.lhs[i]
			switch c.kind {
			case kindSdx:
				add(c.dict, false, true)
			case kindCached:
				l, rt := c.cache.RuneDicts()
				add(l, true, false)
				add(rt, true, false)
			}
		}
		// Soundex seed keys read the same code ids as the rule's kindSdx
		// conjunct, whose dictionary the loop above already registered.
	}
}

// warmNew warms every lazily derived form added since the last call, so
// the parallel phases (and the parallel index seeding) perform pure
// reads only. No-op when the worker count is 1.
func (e *Enforcer) warmNew() {
	for i := range e.warm {
		w := &e.warm[i]
		w.cursor = w.dict.WarmDerived(w.cursor, w.runes, w.sdx)
	}
}

// growStamps sizes the speculator's stamps to the instance ahead of an
// enforcement; new rows carry stamp 0, older than every epoch.
func (sp *speculator) growStamps(n int) {
	if len(sp.stampL) < n {
		sp.stampL = append(sp.stampL, make([]int64, n-len(sp.stampL))...)
		sp.stampR = append(sp.stampR, make([]int64, n-len(sp.stampR))...)
	}
}

// specEval computes one candidate's full verdict on pure reads; cache
// misses are evaluated with Compute and buffered for the post-barrier
// merge. The stream compiler has no direct-evaluation conjunct kind, so
// every rule is speculable.
func (e *Enforcer) specEval(r *ruleState, i1, i2 int, buf *[]values.Fill) uint8 {
	for ci := range r.lhs {
		c := &r.lhs[ci]
		switch c.kind {
		case kindEq:
			if c.lids[i1] != c.rids[i2] {
				return specNoMatch
			}
		case kindSdx:
			if c.dict.SoundexID(c.lids[i1]) != c.dict.SoundexID(c.rids[i2]) {
				return specNoMatch
			}
		default: // kindCached
			a, b := c.lids[i1], c.rids[i2]
			v, known := c.cache.Peek(a, b)
			if !known {
				v = c.cache.Compute(a, b)
				*buf = append(*buf, values.Fill{Cache: c.cache, A: a, B: b, Verdict: v})
			}
			if !v {
				return specNoMatch
			}
		}
	}
	for ri := range r.rhs {
		if r.rhs[ri].lids[i1] != r.rhs[ri].rids[i2] {
			return specFire
		}
	}
	return specMatch
}

// commitPair commits one candidate of a scan. epoch is the current
// chunk's epoch, 0 in a serial scan, where every candidate is visited.
// In a speculating scan a verdict commits when it is still valid
// (computed this chunk, and neither row touched on a relevant column
// since the chunk's epoch began); a stale verdict or a specNone
// candidate is visited serially. The committed effects are exactly
// visit's, including cluster linking and per-rule telemetry.
func (e *Enforcer) commitPair(r *ruleState, i1, i2 int, v uint8, epoch int64) bool {
	if epoch == 0 {
		return e.visit(r, i1, i2)
	}
	sp := e.spec
	switch {
	case v == specNone:
		sp.stats.NotEvaluated++
		return e.visit(r, i1, i2)
	case sp.stampL[i1] >= epoch || sp.stampR[i2] >= epoch:
		sp.stats.Invalidated++
		return e.visit(r, i1, i2)
	}
	sp.stats.Committed++
	e.noteExamined(r)
	if v == specNoMatch {
		return false
	}
	e.noteMatched(r, i1, i2)
	e.linkPair(r, i1, i2)
	if v != specFire {
		return false
	}
	e.fire(r, i1, i2)
	return true
}

// phase opens a speculation phase over nCells candidates: it advances
// the clock and returns the phase's epoch and verdict slice (valid
// until the next phase).
func (sp *speculator) phase(nCells int) (int64, []uint8) {
	sp.clock++
	if cap(sp.verdicts) < nCells {
		sp.verdicts = make([]uint8, nCells)
	}
	return sp.clock, sp.verdicts[:nCells]
}

// merge closes a phase at the barrier: it folds the workers' cache
// fills into the shared caches and counts the evaluated verdicts.
func (sp *speculator) merge(verdicts []uint8) {
	sp.stats.Fills += values.MergeFills(sp.fills)
	sp.stats.Speculated += int64(len(verdicts) - bytes.Count(verdicts, []byte{specNone}))
}

// speculate runs one parallel phase over a chunk of base ords.
func (e *Enforcer) speculate(r *ruleState, ords []int64) (int64, []uint8) {
	sp := e.spec
	epoch, verdicts := sp.phase(len(ords))
	n := int64(e.inst.Len())
	par.ForWorker(len(ords), sp.workers, func(wk, k int) {
		ord := ords[k]
		verdicts[k] = e.specEval(r, int(ord/n), int(ord%n), &sp.fills[wk])
	})
	sp.merge(verdicts)
	return epoch, verdicts
}
