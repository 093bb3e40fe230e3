package similarity

import (
	"fmt"
	"math/rand"
	"testing"
)

// unfilteredDL is the pre-filter reference verdict: the full scorer
// with no length filter, band or early exit.
func unfilteredDL(theta float64, a, b string) bool {
	if a == b {
		return true
	}
	return NormalizedDL(a, b) >= theta
}

func unfilteredLev(theta float64, a, b string) bool {
	if a == b {
		return true
	}
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1 >= theta
	}
	return 1-float64(Levenshtein(a, b))/float64(m) >= theta
}

// randomValue draws strings of wildly varying lengths over a small
// alphabet so that near-threshold distances, length-filter rejections
// and band-edge cases all occur.
func randomValue(rng *rand.Rand) string {
	n := rng.Intn(24)
	buf := make([]rune, n)
	alphabet := []rune("abcdeé 0123")
	for i := range buf {
		buf[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(buf)
}

// mutate returns a small edit of s, biasing the sample toward pairs
// near the decision boundary.
func mutate(rng *rand.Rand, s string) string {
	rs := []rune(s)
	edits := rng.Intn(4)
	for e := 0; e < edits; e++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(rs) > 0: // delete
			i := rng.Intn(len(rs))
			rs = append(rs[:i], rs[i+1:]...)
		case op == 1: // insert
			i := rng.Intn(len(rs) + 1)
			rs = append(rs[:i], append([]rune{'x'}, rs[i:]...)...)
		case op == 2 && len(rs) > 1: // transpose
			i := rng.Intn(len(rs) - 1)
			rs[i], rs[i+1] = rs[i+1], rs[i]
		}
	}
	return string(rs)
}

// TestEditOpMatchesUnfilteredScorer drives the filtered banded
// evaluator against the unfiltered scorer on random and
// boundary-biased string pairs across several thresholds: the length
// filter, the band and the early exit must never flip a verdict.
func TestEditOpMatchesUnfilteredScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	thetas := []float64{0, 0.3, 0.5, 0.8, 0.9, 1.0}
	for _, theta := range thetas {
		dl := DL(theta)
		lev := Lev(theta)
		for i := 0; i < 4000; i++ {
			a := randomValue(rng)
			var b string
			if i%2 == 0 {
				b = randomValue(rng)
			} else {
				b = mutate(rng, a)
			}
			if got, want := dl.Similar(a, b), unfilteredDL(theta, a, b); got != want {
				t.Fatalf("dl(%.2f).Similar(%q, %q) = %v, unfiltered scorer says %v", theta, a, b, want, got)
			}
			if got, want := lev.Similar(a, b), unfilteredLev(theta, a, b); got != want {
				t.Fatalf("lev(%.2f).Similar(%q, %q) = %v, unfiltered scorer says %v", theta, a, b, got, want)
			}
		}
	}
}

// TestEditOpLengthFilter pins the filter itself: a length gap beyond
// (1−θ)·max must reject, and SimilarRunes must agree with Similar.
func TestEditOpLengthFilter(t *testing.T) {
	dl := DL(0.8).(editOp)
	if dl.Similar("ab", "abcdefgh") {
		t.Fatal("dl(0.80) accepted a pair with length gap 6 of max 8")
	}
	if !dl.Similar("abcdefghij", "abcdefgh") {
		t.Fatal("dl(0.80) rejected a 2-deletion pair of max length 10")
	}
	pairs := [][2]string{{"", ""}, {"", "abc"}, {"kitten", "sitting"}, {"abcd", "abdc"}}
	for _, p := range pairs {
		if got, want := dl.SimilarRunes([]rune(p[0]), []rune(p[1])), dl.Similar(p[0], p[1]); got != want {
			t.Fatalf("SimilarRunes(%q, %q) = %v, Similar = %v", p[0], p[1], got, want)
		}
	}
}

// TestEditOpDistanceTable pins the tabulated distance bound: for every
// length the table covers, and past it where the operator falls back to
// the search, limit(m) equals maxDistFor(θ, m) across thresholds on
// both sides of (0, 1) and for both edit operators.
func TestEditOpDistanceTable(t *testing.T) {
	for _, theta := range []float64{-1, 0, 0.3, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 1, 1.5} {
		for _, op := range []Operator{DL(theta), Lev(theta)} {
			o := op.(editOp)
			for m := 0; m <= editStackRow+8; m++ {
				if got, want := o.limit(m), maxDistFor(theta, m); got != want {
					t.Fatalf("%s: limit(%d) = %d, maxDistFor = %d", o.Name(), m, got, want)
				}
			}
		}
	}
}

// TestEditOpExtremeThetas covers thresholds outside (0, 1): θ > 1
// accepts only equal values, θ ≤ 0 accepts everything.
func TestEditOpExtremeThetas(t *testing.T) {
	hi := DL(1.5)
	if !hi.Similar("x", "x") {
		t.Fatal("dl(1.50) must stay reflexive")
	}
	if hi.Similar("x", "y") {
		t.Fatal("dl(1.50) accepted unequal values")
	}
	lo := DL(-1)
	if !lo.Similar("abc", "zzzzzzzz") {
		t.Fatal("dl(-1.00) rejected a pair")
	}
}

func BenchmarkEditOpSimilar(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 256
	as := make([]string, n)
	bs := make([]string, n)
	for i := range as {
		as[i] = randomValue(rng)
		bs[i] = mutate(rng, as[i])
	}
	for _, theta := range []float64{0.8} {
		dl := DL(theta)
		b.Run(fmt.Sprintf("dl_%.2f", theta), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dl.Similar(as[i%n], bs[i%n])
			}
		})
	}
}
