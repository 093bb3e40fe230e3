package values

import (
	"math"

	"mdmatch/internal/similarity"
)

// DefaultMaxCombos caps a verdict matrix's size (2 bits per combo:
// 1<<26 combos = 16 MiB). Fixed conjuncts whose value universes
// multiply out beyond the cap evaluate uncached (NewFixedCache returns
// nil); a growable matrix stops growing at it.
const DefaultMaxCombos = int64(1) << 26

// MapMaxEntries caps the growable map backend. Live dictionaries (a
// serving engine's query side) can pair |stored values| × |query
// values| distinct combinations over time; beyond the cap, new
// verdicts are recomputed instead of stored, bounding a long-lived
// cache to roughly tens of MB while keeping every already-cached pair
// fast.
const MapMaxEntries = 1 << 20

// mapEntryBytes estimates the heap cost of one map-backend entry
// (map[uint64]bool): a 16-byte slot plus control byte over the table's
// load factor, measured at 24–36 bytes per entry on go1.24.
const mapEntryBytes = 28

// Cache memoizes one similarity operator's verdicts over the value IDs
// of a dictionary pair. Verdicts are pure functions of the two values,
// so memoization can never change an outcome — only the number of
// operator evaluations.
//
// When both sides intern into one shared dictionary the key is the
// canonical (min, max) ID pair: sound because operators are symmetric,
// and reflexivity short-circuits equal IDs to true without touching the
// cache. With distinct dictionaries the key is the plain (left, right)
// pair.
//
// Three layouts exist, all 2 bits per combo (known flag, verdict) where
// a matrix is used:
//
//   - triangular (shared dictionary, NewFixedCache or NewGrowableCache):
//     offset b(b+1)/2 + a for a <= b is row-major by the larger ID, so
//     a new ID appends a row and existing offsets never move. Grow
//     extends the rows to the dictionary's current length, up to
//     DefaultMaxCombos combos (about 11.6k rows); pairs whose larger ID
//     lies past the grown rows fall through to the capped map;
//   - rectangular (two finalized dictionaries, NewFixedCache): the
//     fixed (left, right) grid;
//   - map only (NewCache): dictionaries that keep interning and whose
//     key space is sparse (the serving engine's query side).
//
// A Cache is not safe for concurrent use; concurrent callers must hold
// their own lock (Peek alone performs no writes).
type Cache struct {
	op          similarity.Operator
	rop         similarity.RuneSimilar // non-nil: evaluate on decoded runes
	left, right *Dict
	shared      bool

	// matrix backend (2 bits per combo: known flag, verdict)
	bits []uint64
	// triangular: IDs below rows are covered; Grow stops at maxRows
	// (0: the cache has no triangular matrix).
	rows, maxRows int64
	// rectangular: the right dictionary's size (0: not rectangular).
	stride int64

	// map backend: every pair no matrix covers
	m map[uint64]bool
	// maxEntries caps m (MapMaxEntries unless NewCacheCapped chose
	// otherwise); beyond it verdicts are recomputed, not stored.
	maxEntries int

	lookups int64
	evals   int64
}

// NewCache builds a map-backed cache usable with dictionaries that keep
// growing.
func NewCache(op similarity.Operator, left, right *Dict) *Cache {
	return NewCacheCapped(op, left, right, MapMaxEntries)
}

// NewCacheCapped is NewCache with an explicit entry cap. Sharded users
// (stripes of one logical cache) divide MapMaxEntries across their
// stripes so the aggregate memory bound stays the same; maxEntries <= 0
// selects MapMaxEntries.
func NewCacheCapped(op similarity.Operator, left, right *Dict, maxEntries int) *Cache {
	c := newCache(op, left, right)
	if maxEntries <= 0 {
		maxEntries = MapMaxEntries
	}
	c.maxEntries = maxEntries
	return c
}

// NewGrowableCache builds a triangular-matrix cache over one shared
// dictionary that keeps interning. The matrix starts empty: the owner
// calls Grow after interning to cover the new IDs; until then their
// pairs use the map backend.
func NewGrowableCache(op similarity.Operator, dict *Dict) *Cache {
	c := NewCache(op, dict, dict)
	c.maxRows = maxTriRows(DefaultMaxCombos)
	return c
}

// NewFixedCache builds a matrix-backed cache over the dictionaries'
// current contents. maxCombos <= 0 selects DefaultMaxCombos; when the
// universe exceeds the cap, nil is returned and the caller should
// evaluate uncached. A shared dictionary gets the triangular matrix,
// grown once here (pairs with IDs interned later use the map backend);
// two dictionaries get the rectangular grid, which must be final (IDs
// interned later index out of range).
func NewFixedCache(op similarity.Operator, left, right *Dict, maxCombos int64) *Cache {
	if maxCombos <= 0 {
		maxCombos = DefaultMaxCombos
	}
	if left == right {
		n := int64(left.Len())
		if n == 0 || n*(n+1)/2 > maxCombos {
			return nil
		}
		c := NewCache(op, left, right)
		c.maxRows = n
		c.Grow()
		return c
	}
	combos := int64(left.Len()) * int64(right.Len())
	if combos == 0 || combos > maxCombos {
		return nil
	}
	c := newCache(op, left, right)
	c.stride = int64(right.Len())
	c.bits = make([]uint64, words(combos))
	return c
}

func newCache(op similarity.Operator, left, right *Dict) *Cache {
	c := &Cache{op: op, left: left, right: right, shared: left == right}
	if r, ok := op.(similarity.RuneSimilar); ok {
		c.rop = r
	}
	return c
}

// maxTriRows is the largest row count whose triangle fits maxCombos.
func maxTriRows(maxCombos int64) int64 {
	n := int64(math.Sqrt(float64(2 * maxCombos)))
	for n*(n+1)/2 > maxCombos {
		n--
	}
	return n
}

// words is the number of uint64 words holding combos 2-bit slots.
func words(combos int64) int64 { return (2*combos + 63) / 64 }

// Grow extends a triangular matrix to cover every ID the dictionary has
// interned, up to the cache's row cap, and moves the map's verdicts for
// newly covered pairs into it. Existing offsets never move: the new
// rows are appended, zeroed (unknown), with amortized reallocation.
// It is a no-op on caches without a triangular matrix. Grow writes the
// cache, so it must not overlap any other use of it.
func (c *Cache) Grow() {
	rows := min(int64(c.left.Len()), c.maxRows)
	if rows <= c.rows {
		return
	}
	need := words(rows * (rows + 1) / 2)
	if need > int64(cap(c.bits)) {
		nc := min(max(need, 2*int64(cap(c.bits))), words(c.maxRows*(c.maxRows+1)/2))
		bits := make([]uint64, need, nc)
		copy(bits, c.bits)
		c.bits = bits
	} else {
		c.bits = c.bits[:need] // never-written words: still zero
	}
	old := c.rows
	c.rows = rows
	for key, verdict := range c.m {
		if b := int64(key & 0xffffffff); b >= old && b < rows {
			c.setBit(c.offset(ID(key>>32), ID(b)), verdict)
			delete(c.m, key)
		}
	}
}

// Rows returns how many dictionary IDs the triangular matrix covers (0
// for map-only and rectangular caches).
func (c *Cache) Rows() int { return int(c.rows) }

// Bytes estimates the heap the cache holds: its matrix words plus its
// map entries.
func (c *Cache) Bytes() int64 {
	return int64(cap(c.bits))*8 + int64(len(c.m))*mapEntryBytes
}

// offset maps a canonicalized ID pair to its bit offset in the matrix,
// or -1 when no matrix covers the pair.
func (c *Cache) offset(a, b ID) int64 {
	if int64(b) < c.rows {
		return (int64(b)*(int64(b)+1)/2 + int64(a)) * 2
	}
	if c.stride != 0 {
		return (int64(a)*c.stride + int64(b)) * 2
	}
	return -1
}

// setBit records a verdict at a matrix offset.
func (c *Cache) setBit(off int64, verdict bool) {
	m := uint64(1) << uint(off&63)
	if verdict {
		m |= m << 1
	}
	c.bits[off>>6] |= m
}

// storeMap records a verdict in the map backend while under its cap.
func (c *Cache) storeMap(a, b ID, verdict bool) {
	if len(c.m) >= c.maxEntries {
		return
	}
	if c.m == nil {
		c.m = make(map[uint64]bool)
	}
	c.m[uint64(a)<<32|uint64(b)] = verdict
}

// Similar returns the memoized verdict of the operator on the two
// values, evaluating it on the first encounter of the (canonicalized)
// pair.
func (c *Cache) Similar(a, b ID) bool {
	c.lookups++
	if c.shared {
		if a == b {
			return true // reflexivity: no cache slot needed
		}
		if a > b {
			a, b = b, a // symmetry: canonical (min, max) key
		}
	}
	if off := c.offset(a, b); off >= 0 {
		w := c.bits[off>>6] >> uint(off&63)
		if w&1 != 0 {
			return w&2 != 0
		}
		verdict := c.eval(a, b)
		c.setBit(off, verdict)
		return verdict
	}
	if verdict, ok := c.m[uint64(a)<<32|uint64(b)]; ok {
		return verdict
	}
	verdict := c.eval(a, b)
	c.storeMap(a, b, verdict)
	return verdict
}

// Store records a verdict computed elsewhere (canonicalizing the key
// like Similar). Concurrent callers use it to evaluate the operator
// outside their write lock and only lock for the store; storing a
// reflexive pair or re-storing an existing key is a no-op.
func (c *Cache) Store(a, b ID, verdict bool) {
	if c.shared {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
	}
	if off := c.offset(a, b); off >= 0 {
		c.setBit(off, verdict)
		return
	}
	c.storeMap(a, b, verdict)
}

// Peek returns the cached verdict without evaluating on a miss. It
// performs no writes, so concurrent callers may Peek under a read lock
// and fall back to Similar under the write lock.
func (c *Cache) Peek(a, b ID) (verdict, known bool) {
	if c.shared {
		if a == b {
			return true, true
		}
		if a > b {
			a, b = b, a
		}
	}
	if off := c.offset(a, b); off >= 0 {
		w := c.bits[off>>6] >> uint(off&63)
		return w&2 != 0, w&1 != 0
	}
	verdict, known = c.m[uint64(a)<<32|uint64(b)]
	return verdict, known
}

func (c *Cache) eval(a, b ID) bool {
	c.evals++
	if c.rop != nil {
		return c.rop.SimilarRunes(c.left.Runes(a), c.right.Runes(b))
	}
	return c.op.Similar(c.left.Value(a), c.right.Value(b))
}

// Evaluations returns the number of actual operator evaluations (cache
// misses) performed so far.
func (c *Cache) Evaluations() int64 { return c.evals }

// Lookups returns the number of Similar calls so far; together with
// Evaluations it is the verdict-cache hit ratio (hits = lookups -
// evaluations, counting the reflexive short-circuit as a hit).
func (c *Cache) Lookups() int64 { return c.lookups }

// Op returns the cached operator.
func (c *Cache) Op() similarity.Operator { return c.op }
