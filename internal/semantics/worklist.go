package semantics

import (
	"container/heap"
	"fmt"
	"slices"

	"mdmatch/internal/record"
	"mdmatch/internal/values"
)

// The worklist chase, over the interned value store.
//
// The seed implementation of Enforce rescanned all |I1|×|I2| tuple
// pairs for every rule on every pass. The worklist keeps the exact
// firing order of that reference loop — rules in Σ order within
// pass-structured rounds, pairs in ascending (left, right) order, one
// visit per (rule, pair) per pass — while visiting only pairs that can
// possibly fire:
//
//   - a rule whose LHS contains hash-encodable conjuncts (equality,
//     Soundex) is seeded by a blocking-style join: both sides are keyed
//     on the encodable conjuncts' interned value/code IDs, and only
//     pairs in the same block are ever visited (other pairs fail the
//     LHS trivially);
//   - a rule with no encodable conjunct scans the full cross product
//     once, on its first pass;
//   - on later passes, a rule revisits only pairs involving tuples
//     whose cells some firing touched *on a column the rule reads or
//     writes* since the rule last saw them (the distinct-value
//     frontier: a touch on a column outside the rule's LHS ∪ RHS
//     cannot change any of its verdicts): an untouched pair keeps the
//     verdict of its previous visit, so skipping it cannot change the
//     outcome;
//   - when a firing touches tuples during a rule's own scan, pairs that
//     lie ahead of the scan position are re-enqueued immediately (the
//     reference loop would reach them later in the same pass), and
//     pairs behind it are deferred to the next pass (the reference loop
//     could not revisit them either).
//
// All per-visit work runs on interned value IDs (internal/values):
// equality conjuncts compare IDs, Soundex conjuncts compare interned
// code IDs, similarity conjuncts hit (minID, maxID)-canonical verdict
// matrices, and the RHS-differs check compares IDs — the tuple's string
// values are only touched on a verdict-cache miss.
//
// Equivalence of the firing sequences follows by induction: both loops
// visit a superset of the pairs that can fire, in the same order, and
// decide each visit from the current instance state alone. The property
// tests in worklist_test.go check the resulting instance, Applications
// and Passes against EnforceFullScan and against a verbatim copy of the
// seed implementation.

// seedExec is one compiled seed field: the hoisted ID slices of both
// columns and, for Soundex fields, the shared dictionary that interns
// the codes.
type seedExec struct {
	lids, rids []values.ID
	dict       *values.Dict
	sdx        bool
}

// wlMD is one rule's worklist state.
type wlMD struct {
	cm compiledMD
	// lhs/rhs are the conjuncts and RHS pairs compiled against the
	// interned store.
	lhs []conjExec
	rhs []rhsExec
	// relL/relR flag the columns whose cells this rule reads (LHS) or
	// writes (RHS) per side: touches outside them cannot change any of
	// the rule's verdicts and are not re-enqueued.
	relL, relR []bool
	// seeds are the compiled join-key fields (empty for rules without
	// encodable conjuncts).
	seeds []seedExec
	// dirtyL/dirtyR hold tuple indices touched on relevant columns by
	// firings since this rule last consumed them.
	dirtyL, dirtyR map[int]struct{}
	// idxL/idxR are the blocking-style join indexes over the seed
	// fields (nil for rules without any).
	idxL, idxR *sideIndex
}

func (m *wlMD) blockable() bool { return m.idxL != nil }

// key folds tuple ti's seed-field encodings on one side into a uint64
// join key. Equal field encodings always fold to equal keys, which is
// all blocking soundness needs — visit re-tests the full LHS, so a
// (vanishingly rare) fold collision between distinct encodings merely
// widens a block. Each step is a bijective mix (splitmix64 finalizer),
// so single-field keys — the common case — partition exactly.
func (m *wlMD) key(side, ti int) uint64 {
	var key uint64
	for si := range m.seeds {
		s := &m.seeds[si]
		var id values.ID
		if side == 0 {
			id = s.lids[ti]
		} else {
			id = s.rids[ti]
		}
		enc := uint64(id)
		if s.sdx {
			enc = uint64(uint32(s.dict.SoundexID(id)))
		}
		key = mix64(key ^ enc)
	}
	return key
}

// mix64 is the splitmix64 finalizer: a bijection on uint64 with full
// avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sideIndex maps one side's tuples to their current candidate join key.
type sideIndex struct {
	keys    []uint64
	buckets map[uint64][]int32
}

func newSideIndex(n int) *sideIndex {
	return &sideIndex{keys: make([]uint64, n), buckets: make(map[uint64][]int32, n)}
}

// add registers tuple i under key (initial build; no previous key).
func (ix *sideIndex) add(i int, key uint64) {
	ix.keys[i] = key
	ix.buckets[key] = append(ix.buckets[key], int32(i))
}

// set updates tuple i's key, moving it between buckets.
func (ix *sideIndex) set(i int, key uint64) {
	old := ix.keys[i]
	if old == key {
		return
	}
	ids := ix.buckets[old]
	for k, have := range ids {
		if have == int32(i) {
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(ix.buckets, old)
	} else {
		ix.buckets[old] = ids
	}
	ix.keys[i] = key
	ix.buckets[key] = append(ix.buckets[key], int32(i))
}

// pairHeap is a min-heap of pair order codes (i1*n2 + i2), used only
// for the rare mid-scan re-enqueues; the bulk of a blocked scan's
// candidates travels in a sorted slice.
type pairHeap []int64

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type worklist struct {
	d      *record.PairInstance
	ch     *chase
	cache  *evalCache
	mds    []*wlMD
	n1, n2 int
	res    EnforceResult

	// scan-local state of the rule currently being scanned.
	scanning     *wlMD
	bitsL, bitsR []bool // dense filtered scan: side membership filters
	heapActive   bool   // blocked scan: re-enqueue enabled
	base         []int64
	baseIdx      int
	over         *pairHeap
	overSet      map[int64]struct{}
	curOrd       int64

	ordScratch []int64 // reused across blocked scans
}

func newWorklist(out *record.PairInstance, mds []compiledMD) *worklist {
	w := &worklist{d: out, n1: out.Left.Len(), n2: out.Right.Len()}
	w.cache = newEvalCache(out, mds)
	a1, a2 := out.Ctx.Left.Arity(), out.Ctx.Right.Arity()
	for i := range mds {
		m := &wlMD{
			cm:     mds[i],
			lhs:    w.cache.compileConjuncts(&mds[i]),
			rhs:    w.cache.compileRHS(&mds[i]),
			relL:   make([]bool, a1),
			relR:   make([]bool, a2),
			dirtyL: make(map[int]struct{}),
			dirtyR: make(map[int]struct{}),
		}
		for _, c := range mds[i].lhs {
			m.relL[c.Left], m.relR[c.Right] = true, true
		}
		for _, p := range mds[i].rhs {
			m.relL[p[0]], m.relR[p[1]] = true, true
		}
		for _, s := range mds[i].seeds {
			m.seeds = append(m.seeds, seedExec{
				lids: w.cache.vids[0][s.lcol],
				rids: w.cache.vids[1][s.rcol],
				dict: w.cache.dict(0, s.lcol),
				sdx:  s.sdx,
			})
		}
		if len(m.seeds) > 0 {
			m.idxL = newSideIndex(w.n1)
			for j := 0; j < w.n1; j++ {
				m.idxL.add(j, m.key(0, j))
			}
			m.idxR = newSideIndex(w.n2)
			for j := 0; j < w.n2; j++ {
				m.idxR.add(j, m.key(1, j))
			}
		}
		w.mds = append(w.mds, m)
	}
	w.ch = newChase(out)
	w.ch.onTouch = w.touched
	return w
}

func (w *worklist) run() (EnforceResult, error) {
	w.res.Instance = w.d
	maxPasses := w.ch.cellCount() + 2
	for {
		w.res.Passes++
		if w.res.Passes > maxPasses {
			return EnforceResult{}, fmt.Errorf("semantics: chase exceeded %d passes (non-terminating value resolution?)", maxPasses)
		}
		fired := false
		for _, m := range w.mds {
			if w.scanMD(m, w.res.Passes) {
				fired = true
			}
		}
		if !fired {
			break
		}
	}
	// Operator calls made through the verdict caches (cache misses)
	// count as LHS evaluations exactly once, totalled at the end.
	w.res.Stats.LHSEvaluations += w.cache.operatorEvaluations()
	return w.res, nil
}

// touched records a cell a firing just changed: the interned value ID
// is refreshed, every rule reading or writing the column must
// reconsider the tuple's pairs, and the rule currently scanning
// re-enqueues pairs ahead of its scan position.
func (w *worklist) touched(in *record.Instance, ti, ai int, v string) {
	if in == w.d.Left {
		w.cache.cellChanged(0, ai, ti, v)
		w.sideTouched(true, ti, ai)
	}
	if in == w.d.Right {
		if in != w.d.Left { // self-match shares the ID slices
			w.cache.cellChanged(1, ai, ti, v)
		}
		w.sideTouched(false, ti, ai)
	}
}

func (w *worklist) sideTouched(left bool, ti, ai int) {
	for _, m := range w.mds {
		if left {
			if m.relL[ai] {
				m.dirtyL[ti] = struct{}{}
			}
		} else if m.relR[ai] {
			m.dirtyR[ti] = struct{}{}
		}
	}
	s := w.scanning
	if s == nil {
		return
	}
	if left {
		if !s.relL[ai] {
			return // the scanning rule's verdicts cannot have changed
		}
	} else if !s.relR[ai] {
		return
	}
	if w.bitsL != nil { // dense filtered scan: widen the filters
		if left {
			w.bitsL[ti] = true
		} else {
			w.bitsR[ti] = true
		}
		return
	}
	if !w.heapActive { // dense unfiltered scan enumerates everything anyway
		return
	}
	// Blocked scan: the touched tuple's join key may have changed —
	// refresh it, then enqueue the pairs it now joins with.
	if left {
		s.idxL.set(ti, s.key(0, ti))
		for _, j := range s.idxR.buckets[s.idxL.keys[ti]] {
			w.push(ti, int(j))
		}
	} else {
		s.idxR.set(ti, s.key(1, ti))
		for _, i := range s.idxL.buckets[s.idxR.keys[ti]] {
			w.push(int(i), ti)
		}
	}
}

// push enqueues a candidate pair into the current blocked scan if it
// lies ahead of the scan position and is not already pending. Pairs
// behind the position stay in the dirty sets for the next pass.
func (w *worklist) push(i1, i2 int) {
	ord := int64(i1)*int64(w.n2) + int64(i2)
	if ord <= w.curOrd {
		return
	}
	if _, ok := slices.BinarySearch(w.base[w.baseIdx:], ord); ok {
		return
	}
	if _, ok := w.overSet[ord]; ok {
		return
	}
	w.overSet[ord] = struct{}{}
	heap.Push(w.over, ord)
}

// visit evaluates one candidate (rule, pair) and fires on a violation.
// The whole decision runs on interned IDs; strings are only read on a
// verdict-cache miss or for uncacheable conjuncts.
func (w *worklist) visit(m *wlMD, i1, i2 int) bool {
	w.res.Stats.PairsExamined++
	for ci := range m.lhs {
		c := &m.lhs[ci]
		switch c.kind {
		case kindEq:
			if c.lids[i1] != c.rids[i2] {
				return false
			}
		case kindSdx:
			if c.dict.SoundexID(c.lids[i1]) != c.dict.SoundexID(c.rids[i2]) {
				return false
			}
		case kindCached:
			if !c.cache.Similar(c.lids[i1], c.rids[i2]) {
				return false
			}
		default: // kindDirect: conjunct over the matrix-size cap
			w.res.Stats.LHSEvaluations++
			if !c.op.Similar(w.d.Left.Tuples[i1].Values[c.lcol], w.d.Right.Tuples[i2].Values[c.rcol]) {
				return false
			}
		}
	}
	rhsEqual := true
	for ri := range m.rhs {
		if m.rhs[ri].lids[i1] != m.rhs[ri].rids[i2] {
			rhsEqual = false
			break
		}
	}
	if rhsEqual {
		return false
	}
	w.ch.fire(&m.cm, i1, i2)
	w.res.Applications++
	w.res.Stats.RuleFirings++
	return true
}

func (w *worklist) scanMD(m *wlMD, pass int) bool {
	w.scanning = m
	defer func() {
		w.scanning = nil
		w.bitsL, w.bitsR = nil, nil
		w.heapActive = false
		w.base, w.baseIdx = nil, 0
		w.over, w.overSet = nil, nil
	}()
	if m.blockable() {
		return w.scanBlocked(m, pass)
	}
	return w.scanDense(m, pass)
}

// scanDense visits pairs in ascending order by direct enumeration: the
// full cross product on the first pass, and only rows/columns of dirty
// tuples afterwards. Later passes still sweep the n1×n2 grid to test
// the filters — a deliberate trade: the boolean check is orders of
// magnitude cheaper than a verdict lookup, and a rule that lands here
// (no encodable conjunct) already paid a full first-pass scan that
// dominates asymptotically.
func (w *worklist) scanDense(m *wlMD, pass int) bool {
	filtered := pass > 1
	if filtered {
		w.bitsL = make([]bool, w.n1)
		w.bitsR = make([]bool, w.n2)
		for i := range m.dirtyL {
			w.bitsL[i] = true
		}
		for i := range m.dirtyR {
			w.bitsR[i] = true
		}
	}
	m.dirtyL = make(map[int]struct{})
	m.dirtyR = make(map[int]struct{})
	fired := false
	for i1 := 0; i1 < w.n1; i1++ {
		if filtered && !w.bitsL[i1] {
			// Only dirty right columns qualify in this row — unless a
			// mid-row firing touches this very left tuple, so both
			// filters are re-read per cell (they only ever flip
			// false→true, exactly like the reference loop's per-cell
			// check).
			for i2 := 0; i2 < w.n2; i2++ {
				if !w.bitsR[i2] && !w.bitsL[i1] {
					continue
				}
				if w.visit(m, i1, i2) {
					fired = true
				}
			}
			continue
		}
		for i2 := 0; i2 < w.n2; i2++ {
			if w.visit(m, i1, i2) {
				fired = true
			}
		}
	}
	return fired
}

// scanBlocked visits pairs in ascending order by merging a sorted
// candidate slice with a small overflow heap. The slice carries the
// bulk — the full key join on the first pass, dirty-tuple probes
// afterwards — sorted once and consumed in order; the heap only ever
// holds pairs that mid-scan firings enqueued ahead of the position via
// sideTouched, so the common visit costs an index increment, not a
// heap operation.
func (w *worklist) scanBlocked(m *wlMD, pass int) bool {
	// Keys of tuples touched since this rule's last scan are stale.
	for i := range m.dirtyL {
		m.idxL.set(i, m.key(0, i))
	}
	for j := range m.dirtyR {
		m.idxR.set(j, m.key(1, j))
	}
	base := w.ordScratch[:0]
	n2 := int64(w.n2)
	if pass == 1 {
		for key, lids := range m.idxL.buckets {
			rids, ok := m.idxR.buckets[key]
			if !ok {
				continue
			}
			for _, i := range lids {
				o := int64(i) * n2
				for _, j := range rids {
					base = append(base, o+int64(j))
				}
			}
		}
	} else {
		for i := range m.dirtyL {
			o := int64(i) * n2
			for _, j := range m.idxR.buckets[m.idxL.keys[i]] {
				base = append(base, o+int64(j))
			}
		}
		for j := range m.dirtyR {
			for _, i := range m.idxL.buckets[m.idxR.keys[j]] {
				base = append(base, int64(i)*n2+int64(j))
			}
		}
	}
	m.dirtyL = make(map[int]struct{})
	m.dirtyR = make(map[int]struct{})
	slices.Sort(base)
	base = slices.Compact(base) // dirtyL and dirtyR probes can overlap
	var over pairHeap
	w.base, w.baseIdx = base, 0
	w.over, w.overSet = &over, make(map[int64]struct{})
	w.heapActive = true
	w.curOrd = -1
	fired := false
	for {
		var ord int64
		switch {
		case w.baseIdx < len(w.base) && (over.Len() == 0 || w.base[w.baseIdx] < over[0]):
			ord = w.base[w.baseIdx]
			w.baseIdx++
		case over.Len() > 0:
			ord = heap.Pop(&over).(int64)
			delete(w.overSet, ord)
		default:
			w.ordScratch = base[:0]
			return fired
		}
		w.curOrd = ord
		if w.visit(m, int(ord/n2), int(ord%n2)) {
			fired = true
		}
	}
}
