package stream

import (
	"mdmatch/internal/record"
)

// chase is the cell union-find of one enforcement run. Its lifetime is
// one chase — reset is called at the start of every Insert/InsertBatch
// — because the fold semantics demands it: a from-scratch Enforce on
// (stable instance ∪ new records) starts with every cell in its own
// singleton class, so classes merged by PREVIOUS insertions must not
// propagate this run's value updates to their old members. (Their
// values are equal at the start of the run, but only cells identified
// during THIS run stay identified through it.) Keeping the classes
// alive across runs was measurably wrong: it fires strictly fewer
// rules than the reference chase, because stale co-members look
// RHS-equal after one of them grows.
//
// The representation is sparse: a cell absent from the maps is a
// singleton class whose value is its tuple's current cell value, so a
// run's cost is proportional to the cells its firings actually touch,
// not to the instance size.
//
// As in the batch chase, each class's resolved value (resolveValue:
// longest, ties lexicographically largest) is written back into the
// member tuples incrementally, reporting each changed cell through
// onTouch; since the resolved value is a max under a total order, this
// produces bit-identical instances to the seed chase's
// flush-per-firing.
type chase struct {
	arity   int
	tuples  []*record.Tuple // tuples[r] backs cells r*arity..r*arity+arity-1
	parent  map[int32]int32
	value   map[int32]string  // per materialized root: resolved class value
	members map[int32][]int32 // per materialized root: member cells
	onTouch func(ti, ai int, v string)
}

func newChase(arity int) *chase {
	return &chase{
		arity:   arity,
		parent:  make(map[int32]int32),
		value:   make(map[int32]string),
		members: make(map[int32][]int32),
	}
}

// reset begins a new run: every cell is a singleton again. Clearing a
// map costs the capacity it ever grew to, so maps a large run (a batch
// load) filled are replaced instead, and later per-insert runs clear
// small ones.
func (ch *chase) reset() {
	if len(ch.parent) > 1024 {
		ch.parent = make(map[int32]int32)
		ch.value = make(map[int32]string)
		ch.members = make(map[int32][]int32)
		return
	}
	clear(ch.parent)
	clear(ch.value)
	clear(ch.members)
}

func (ch *chase) cellCount() int { return len(ch.tuples) * ch.arity }

// appendRow registers one freshly inserted tuple.
func (ch *chase) appendRow(t *record.Tuple) {
	ch.tuples = append(ch.tuples, t)
}

// cell returns the cell id of row ti, column ai.
func (ch *chase) cell(ti, ai int) int32 { return int32(ti*ch.arity + ai) }

// cellValue reads the current value of a cell from its tuple.
func (ch *chase) cellValue(c int32) string {
	return ch.tuples[int(c)/ch.arity].Values[int(c)%ch.arity]
}

func (ch *chase) find(x int32) int32 {
	for {
		p, ok := ch.parent[x]
		if !ok || p == x {
			return x
		}
		if gp, ok := ch.parent[p]; ok {
			ch.parent[x] = gp
		}
		x = p
	}
}

// materialize ensures a root has explicit class state.
func (ch *chase) materialize(r int32) {
	if _, ok := ch.parent[r]; !ok {
		ch.parent[r] = r
		ch.value[r] = ch.cellValue(r)
		ch.members[r] = []int32{r}
	}
}

// union identifies two cells' classes and writes the resolved value
// back into every member cell whose value changed.
func (ch *chase) union(a, b int32) {
	ra, rb := ch.find(a), ch.find(b)
	if ra == rb {
		return
	}
	ch.materialize(ra)
	ch.materialize(rb)
	// Attach the smaller class under the larger.
	if len(ch.members[ra]) < len(ch.members[rb]) {
		ra, rb = rb, ra
	}
	v := resolveValue(ch.value[ra], ch.value[rb])
	ch.parent[rb] = ra
	if v != ch.value[ra] {
		ch.writeBack(ch.members[ra], v)
	}
	if v != ch.value[rb] {
		ch.writeBack(ch.members[rb], v)
	}
	ch.value[ra] = v
	ch.members[ra] = append(ch.members[ra], ch.members[rb]...)
	delete(ch.members, rb)
	delete(ch.value, rb)
}

// writeBack stores the new class value into every member cell's tuple
// and reports the touched cells.
func (ch *chase) writeBack(cells []int32, v string) {
	for _, c := range cells {
		ti, ai := int(c)/ch.arity, int(c)%ch.arity
		t := ch.tuples[ti]
		if t.Values[ai] != v {
			t.Values[ai] = v
			if ch.onTouch != nil {
				ch.onTouch(ti, ai, v)
			}
		}
	}
}

// resolveValue is the chase's deterministic value-resolution policy
// (semantics.ResolveValue): the longest value wins, ties break
// lexicographically (largest).
func resolveValue(a, b string) string {
	if len(a) > len(b) {
		return a
	}
	if len(b) > len(a) {
		return b
	}
	if a >= b {
		return a
	}
	return b
}
