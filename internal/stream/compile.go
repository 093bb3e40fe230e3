package stream

import (
	"fmt"

	"mdmatch/internal/exec"
	"mdmatch/internal/similarity"
	"mdmatch/internal/values"
)

// conjKind discriminates the compiled evaluation strategies of one LHS
// conjunct over the interned store.
type conjKind uint8

const (
	kindEq     conjKind = iota // equality: integer id comparison
	kindSdx                    // Soundex equivalence: interned code ids
	kindCached                 // memoized through a values.Cache
)

// conjExec is one LHS conjunct compiled against the interned store. The
// id slices alias the columnar view and are refreshed per enforcement
// (AppendRow reallocates them between insertions, never during a
// chase).
type conjExec struct {
	kind       conjKind
	lcol, rcol int
	lids, rids []values.ID
	dict       *values.Dict // kindSdx: the shared dictionary
	cache      *values.Cache
}

// rhsExec is a compiled RHS pair: the id slices of both columns,
// comparable directly because RHS-paired columns share a dictionary.
type rhsExec struct {
	lids, rids []values.ID
}

// seedExec is one compiled join-key field of a blockable rule.
type seedExec struct {
	lcol, rcol int
	lids, rids []values.ID
	dict       *values.Dict
	sdx        bool
}

// conjKey identifies a distinct conjunct across all rules of Σ, for
// verdict-cache sharing.
type conjKey struct {
	lcol, rcol int
	op         string
}

// ruleState is one rule's persistent worklist state.
type ruleState struct {
	idx     int  // index into Σ
	link    bool // a match of this rule identifies the records' clusters
	lhs     []conjExec
	rhs     []rhsExec
	rhsCols [][2]int
	// relL/relR flag the columns whose cells this rule reads (LHS) or
	// writes (RHS) per side: touches outside them cannot change any of
	// the rule's verdicts.
	relL, relR []bool
	// seeds are the hash-encodable LHS conjuncts (equality, Soundex)
	// usable as join keys; empty means the rule scans densely.
	seeds []seedExec
	// dirtyL/dirtyR is the frontier: rows touched on relevant columns
	// (or freshly inserted) since this rule last consumed them.
	dirtyL, dirtyR rowSet
	// idxL/idxR are the persistent join indexes (nil for dense rules).
	idxL, idxR *sideIndex
	// Cumulative per-rule telemetry (written under the enforcer's lock):
	// candidate pairs visited, LHS matches, and RHS-identifying firings.
	examined, matched, fired int64
}

func (r *ruleState) blockable() bool { return r.idxL != nil }

// rowSet is one side of a rule's dirty frontier: the rows in insertion
// order plus a membership flag per row, so adding and clearing cost
// O(1) per member, not the capacity a batch load once grew.
type rowSet struct {
	rows []int
	in   []bool
}

func (s *rowSet) add(i int) {
	for len(s.in) <= i {
		s.in = append(s.in, false)
	}
	if !s.in[i] {
		s.in[i] = true
		s.rows = append(s.rows, i)
	}
}

func (s *rowSet) clear() {
	for _, i := range s.rows {
		s.in[i] = false
	}
	s.rows = s.rows[:0]
}

// key folds row ti's seed-field encodings on one side into a uint64
// join key (side 0 keys the row as the pair's left tuple, side 1 as its
// right).
func (r *ruleState) key(side, ti int) uint64 {
	var key uint64
	for si := range r.seeds {
		s := &r.seeds[si]
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

// refresh re-aliases the rule's id slices against the columnar view
// (called once per insertion, after AppendRow may have reallocated the
// column slices).
func (r *ruleState) refresh(e *Enforcer) {
	for i := range r.lhs {
		c := &r.lhs[i]
		c.lids = e.cols.Column(c.lcol)
		c.rids = e.cols.Column(c.rcol)
	}
	for i := range r.rhs {
		r.rhs[i].lids = e.cols.Column(r.rhsCols[i][0])
		r.rhs[i].rids = e.cols.Column(r.rhsCols[i][1])
	}
	for i := range r.seeds {
		s := &r.seeds[i]
		s.lids = e.cols.Column(s.lcol)
		s.rids = e.cols.Column(s.rcol)
	}
}

// compile validates Σ and builds the persistent rule states, the shared
// column-group dictionaries and the verdict caches.
func (e *Enforcer) compile() error {
	arity := e.ctx.Left.Arity()

	type compiled struct {
		lhs  []exec.Conjunct
		rhs  [][2]int
		sdxs []bool // parallel to the encodable prefix of lhs
		nEnc int
	}
	mds := make([]compiled, len(e.sigma))
	for i, md := range e.sigma {
		if err := md.Validate(); err != nil {
			return fmt.Errorf("stream: Σ[%d]: %w", i, err)
		}
		lhs, err := exec.CompileConjuncts(e.ctx, md.LHS)
		if err != nil {
			return fmt.Errorf("stream: Σ[%d]: %w", i, err)
		}
		// Evaluation order: exact (encodable) tests first — cheap and
		// selective — then the similarity metrics, as in the batch chase.
		var cm compiled
		var rest []exec.Conjunct
		for _, c := range lhs {
			switch {
			case similarity.IsEq(c.Op):
				cm.lhs = append(cm.lhs, c)
				cm.sdxs = append(cm.sdxs, false)
			case c.Op.Name() == "soundex":
				cm.lhs = append(cm.lhs, c)
				cm.sdxs = append(cm.sdxs, true)
			default:
				rest = append(rest, c)
			}
		}
		cm.nEnc = len(cm.lhs)
		cm.lhs = append(cm.lhs, rest...)
		for _, p := range md.RHS {
			li, ok := e.ctx.Left.Index(p.Left)
			if !ok {
				return fmt.Errorf("stream: Σ[%d]: %s has no attribute %q", i, e.ctx.Left.Name(), p.Left)
			}
			ri, ok := e.ctx.Right.Index(p.Right)
			if !ok {
				return fmt.Errorf("stream: Σ[%d]: %s has no attribute %q", i, e.ctx.Right.Name(), p.Right)
			}
			cm.rhs = append(cm.rhs, [2]int{li, ri})
		}
		mds[i] = cm
	}

	// Column groups: Σ's RHS pairs connect columns whose cells
	// enforcement can identify; LHS conjunct pairs join the dictionaries
	// so both columns of every conjunct share one id space (making the
	// canonical cache key and id-equality sound). Self-match: left and
	// right column c are the same node.
	g := values.NewGrouper(arity)
	for i := range mds {
		for _, p := range mds[i].rhs {
			g.Link(p[0], p[1])
		}
		for _, c := range mds[i].lhs {
			g.Link(c.Left, c.Right)
		}
	}
	dicts := make([]*values.Dict, arity)
	for c := range dicts {
		dicts[c] = g.Dict(c)
	}
	e.cols = values.NewColumns(dicts)

	// Verdict caches for the distinct non-encodable conjuncts. Both
	// columns of a conjunct share one dictionary, and the chase never
	// invents values, so a triangular 2-bit matrix grown once per
	// enforcement (run) covers every pair a chase can look up. A
	// conjunct of a dense rule — one without equality or Soundex seeds
	// — gets that matrix: its rule compares every new value against
	// every stored one, so most of the triangle is visited. Conjuncts
	// of blocked rules only see pairs inside join blocks; their key
	// space is sparse and stays on the map backend.
	dense := make(map[conjKey]bool)
	for i := range mds {
		if mds[i].nEnc > 0 {
			continue
		}
		for _, c := range mds[i].lhs {
			dense[conjKey{lcol: c.Left, rcol: c.Right, op: c.Op.Name()}] = true
		}
	}
	e.conjs = make(map[conjKey]*values.Cache)
	for i := range mds {
		for ci, c := range mds[i].lhs {
			if ci < mds[i].nEnc {
				continue
			}
			id := conjKey{lcol: c.Left, rcol: c.Right, op: c.Op.Name()}
			if _, ok := e.conjs[id]; ok {
				continue
			}
			if dense[id] {
				e.conjs[id] = values.NewGrowableCache(c.Op, dicts[c.Left])
			} else {
				e.conjs[id] = values.NewCache(c.Op, dicts[c.Left], dicts[c.Right])
			}
		}
	}

	for i := range mds {
		cm := &mds[i]
		r := &ruleState{
			idx:     i,
			link:    true,
			rhsCols: cm.rhs,
			relL:    make([]bool, arity),
			relR:    make([]bool, arity),
		}
		for ci, c := range cm.lhs {
			ce := conjExec{lcol: c.Left, rcol: c.Right}
			switch {
			case ci < cm.nEnc && !cm.sdxs[ci]:
				ce.kind = kindEq
			case ci < cm.nEnc:
				ce.kind = kindSdx
				ce.dict = dicts[c.Left]
			default:
				ce.kind = kindCached
				ce.cache = e.conjs[conjKey{lcol: c.Left, rcol: c.Right, op: c.Op.Name()}]
			}
			r.lhs = append(r.lhs, ce)
			r.relL[c.Left], r.relR[c.Right] = true, true
		}
		r.rhs = make([]rhsExec, len(cm.rhs))
		for _, p := range cm.rhs {
			r.relL[p[0]], r.relR[p[1]] = true, true
		}
		for ci := 0; ci < cm.nEnc; ci++ {
			r.seeds = append(r.seeds, seedExec{
				lcol: cm.lhs[ci].Left, rcol: cm.lhs[ci].Right,
				dict: dicts[cm.lhs[ci].Left], sdx: cm.sdxs[ci],
			})
		}
		if len(r.seeds) > 0 {
			r.idxL = newSideIndex()
			r.idxR = newSideIndex()
		}
		e.rules = append(e.rules, r)
	}
	return nil
}
