package values

import (
	"fmt"
	"math/rand"
	"testing"

	"mdmatch/internal/similarity"
)

// TestGrowableCacheInterleaved interns values in bursts, growing the
// triangular matrix after some bursts and not others, and checks every
// pair against the map backend and the bare operator after each burst.
// Verdicts looked up before a Grow live in the map until the Grow that
// covers them moves them into the matrix, so the growable cache never
// evaluates a pair twice: its evaluation count equals the map
// backend's.
func TestGrowableCacheInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := generatedValues(rng, 60)
	op := similarity.DL(0.8)
	d := NewDict()
	grown := NewGrowableCache(op, d)
	mapped := NewCache(op, d, d)
	for next, burst := 0, 0; next < len(vals); burst++ {
		for end := min(next+1+rng.Intn(9), len(vals)); next < end; next++ {
			d.Intern(vals[next])
		}
		if burst%3 != 1 {
			grown.Grow()
			if grown.Rows() != d.Len() {
				t.Fatalf("burst %d: Rows = %d after Grow, dictionary holds %d", burst, grown.Rows(), d.Len())
			}
		}
		n := d.Len()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := ID(i), ID(j)
				want := op.Similar(d.Value(a), d.Value(b))
				if got := grown.Similar(a, b); got != want {
					t.Fatalf("burst %d: growable(%q, %q) = %v, operator says %v", burst, d.Value(a), d.Value(b), got, want)
				}
				if got := mapped.Similar(a, b); got != want {
					t.Fatalf("burst %d: map(%q, %q) = %v, operator says %v", burst, d.Value(a), d.Value(b), got, want)
				}
			}
		}
		if grown.Evaluations() != mapped.Evaluations() {
			t.Fatalf("burst %d: growable evaluated %d pairs, map backend %d", burst, grown.Evaluations(), mapped.Evaluations())
		}
	}
	grown.Grow()
	if len(grown.m) != 0 {
		t.Fatalf("%d map entries left after a Grow covering the whole dictionary", len(grown.m))
	}
}

// TestGrowableCacheOffsetsStable stores a verdict for every pair, grows
// the matrix several times, and checks that every stored verdict reads
// back known and unchanged with no further evaluation: appended rows
// never move an existing offset.
func TestGrowableCacheOffsetsStable(t *testing.T) {
	op := similarity.DL(0.8)
	d := NewDict()
	for i := 0; i < 40; i++ {
		d.Intern(fmt.Sprintf("value %d", i))
	}
	c := NewGrowableCache(op, d)
	c.Grow()
	want := map[[2]ID]bool{}
	for a := ID(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			v := (a*7+b*3)%5 == 0 // arbitrary, not the operator's verdict
			c.Store(a, b, v)
			want[[2]ID{a, b}] = v
		}
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 37; i++ { // row counts cross word boundaries
			d.Intern(fmt.Sprintf("round %d value %d", round, i))
		}
		c.Grow()
		for p, v := range want {
			got, known := c.Peek(p[1], p[0])
			if !known || got != v {
				t.Fatalf("round %d: Peek(%d, %d) = %v, %v; stored %v", round, p[1], p[0], got, known, v)
			}
		}
	}
	if c.Evaluations() != 0 {
		t.Fatalf("%d evaluations: stored verdicts were lost across growth", c.Evaluations())
	}
}

// TestGrowableCachePastRows checks the pairs no grown row covers: Peek
// reports them unknown (never a stray matrix bit), and Similar and
// Store keep them in the map without growing the matrix.
func TestGrowableCachePastRows(t *testing.T) {
	op := similarity.DL(0.8)
	d := NewDict()
	for _, v := range []string{"Clifford", "Cliford", "Murray"} {
		d.Intern(v)
	}
	c := NewGrowableCache(op, d)
	c.Grow()
	for a := ID(0); a < 3; a++ {
		for b := ID(0); b < 3; b++ {
			c.Similar(a, b)
		}
	}
	late := []ID{d.Intern("Murray Hill"), d.Intern("Clifforde"), d.Intern("Murrey")}
	for _, b := range late {
		for a := ID(0); a <= b; a++ {
			if a == b {
				continue
			}
			if _, known := c.Peek(a, b); known {
				t.Fatalf("Peek(%d, %d) known past the %d grown rows", a, b, c.Rows())
			}
		}
	}
	before := c.Bytes()
	if !c.Similar(0, late[1]) { // Clifford ≈ Clifforde
		t.Fatal("Similar(Clifford, Clifforde) = false")
	}
	c.Store(late[0], 2, false)
	if c.Rows() != 3 || len(c.m) != 2 {
		t.Fatalf("Rows = %d, map entries = %d; want 3 rows and 2 map entries", c.Rows(), len(c.m))
	}
	if got := c.Bytes() - before; got != 2*mapEntryBytes {
		t.Fatalf("Bytes grew by %d for 2 map entries", got)
	}
	if v, known := c.Peek(late[1], 0); !known || !v {
		t.Fatalf("Peek of a map-held pair = %v, %v", v, known)
	}
}

// TestGrowableCacheRowCap fills a dictionary past the rows that fit
// DefaultMaxCombos: Grow stops at the cap, and pairs whose larger ID
// lies beyond it go to the map.
func TestGrowableCacheRowCap(t *testing.T) {
	maxRows := maxTriRows(DefaultMaxCombos)
	if maxRows*(maxRows+1)/2 > DefaultMaxCombos || (maxRows+1)*(maxRows+2)/2 <= DefaultMaxCombos {
		t.Fatalf("maxTriRows = %d is not the largest triangle within %d combos", maxRows, DefaultMaxCombos)
	}
	d := NewDict()
	for i := int64(0); i < maxRows+5; i++ {
		d.Intern(fmt.Sprintf("%08d", i))
	}
	c := NewGrowableCache(similarity.DL(0.8), d)
	c.Grow()
	if int64(c.Rows()) != maxRows {
		t.Fatalf("Rows = %d, want the cap %d", c.Rows(), maxRows)
	}
	if got, limit := c.Bytes(), DefaultMaxCombos/4+8; got > limit {
		t.Fatalf("matrix holds %d bytes, over the %d-byte cap", got, limit)
	}
	last := ID(maxRows - 1)
	if !c.Similar(last-1, last) || len(c.m) != 0 {
		t.Fatalf("pair inside the cap: map entries = %d", len(c.m))
	}
	past := ID(maxRows + 2)
	if !c.Similar(past-1, past) || len(c.m) != 1 {
		t.Fatalf("pair past the cap: map entries = %d, want 1", len(c.m))
	}
	if v, known := c.Peek(past, past-1); !known || !v {
		t.Fatalf("Peek of the capped pair = %v, %v", v, known)
	}
}

// TestFixedCacheCap keeps NewFixedCache's contract for the triangular
// case: nil over the cap, exactly the dictionary's rows otherwise, and
// no growth afterwards.
func TestFixedCacheCap(t *testing.T) {
	op := similarity.DL(0.8)
	d := NewDict()
	for i := 0; i < 10; i++ {
		d.Intern(fmt.Sprintf("v%d", i))
	}
	if c := NewFixedCache(op, d, d, 54); c != nil {
		t.Fatal("10 values (55 combos) fit a 54-combo cap")
	}
	c := NewFixedCache(op, d, d, 55)
	if c == nil || c.Rows() != 10 {
		t.Fatalf("fixed cache over 10 values: %v", c)
	}
	d.Intern("v10")
	c.Grow()
	if c.Rows() != 10 {
		t.Fatalf("fixed cache grew to %d rows", c.Rows())
	}
	if got, want := c.Similar(3, 10), op.Similar("v3", "v10"); got != want {
		t.Fatalf("late pair = %v, operator says %v", got, want)
	}
}
