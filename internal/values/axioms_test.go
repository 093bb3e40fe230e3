package values

import (
	"math/rand"
	"testing"

	"mdmatch/internal/similarity"
)

// The (minID, maxID) cache key of this package is sound only because
// every operator of Θ satisfies the paper's generic axioms
// (Section 2.1):
//
//   - reflexivity   makes a == b answerable as true with no cache slot;
//   - symmetry      makes the canonical (min, max) key lose no
//     information;
//   - equality subsumption makes the equality operator a plain ID
//     comparison over a shared dictionary.
//
// This test drives every built-in operator constructor across generated
// value sets and checks all three axioms pairwise, so a future operator
// that silently breaks one cannot corrupt the cache.

func builtinOperators() []similarity.Operator {
	return []similarity.Operator{
		similarity.Eq(),
		similarity.DL(0.8),
		similarity.DL(0.5),
		similarity.Lev(0.8),
		similarity.JaroOp(0.85),
		similarity.JaroWinklerOp(0.90),
		similarity.JaccardOp(2, 0.70),
		similarity.DiceOp(2, 0.70),
		similarity.CosineOp(2, 0.70),
		similarity.TokenOp(0.60),
		similarity.SoundexEq(),
		similarity.PrefixOp(3),
		similarity.SynonymOp(similarity.Eq(), map[string]string{"usa": "united states"}),
	}
}

func generatedValues(rng *rand.Rand, n int) []string {
	alphabet := []rune("abcdeE expr 018é")
	out := make([]string, 0, n)
	out = append(out, "", "usa", "united states", "USA") // synonym / fold edges
	for len(out) < n {
		buf := make([]rune, rng.Intn(14))
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		out = append(out, string(buf))
	}
	return out
}

func TestOperatorAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := generatedValues(rng, 28)
	for _, op := range builtinOperators() {
		op := op
		t.Run(op.Name(), func(t *testing.T) {
			for i, a := range vals {
				if !op.Similar(a, a) {
					t.Fatalf("reflexivity: %s.Similar(%q, %q) = false", op.Name(), a, a)
				}
				for _, b := range vals[i+1:] {
					ab, ba := op.Similar(a, b), op.Similar(b, a)
					if ab != ba {
						t.Fatalf("symmetry: %s.Similar(%q, %q) = %v but reversed = %v", op.Name(), a, b, ab, ba)
					}
					if a == b && !ab {
						t.Fatalf("equality subsumption: %s.Similar(%q, %q) = false", op.Name(), a, b)
					}
				}
			}
			// RuneSimilar implementations must agree with the string path
			// on every pair — the cache evaluates through them.
			if rop, ok := op.(similarity.RuneSimilar); ok {
				for _, a := range vals {
					for _, b := range vals {
						if got, want := rop.SimilarRunes([]rune(a), []rune(b)), op.Similar(a, b); got != want {
							t.Fatalf("%s.SimilarRunes(%q, %q) = %v, Similar = %v", op.Name(), a, b, got, want)
						}
					}
				}
			}
		})
	}
}

// TestCacheMatchesOperator checks every cache backend against direct
// operator evaluation on every ID pair of shared and split
// dictionaries: memoization plus key canonicalization must be
// invisible.
func TestCacheMatchesOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := generatedValues(rng, 24)
	for _, op := range builtinOperators() {
		shared := NewDict()
		for _, v := range vals {
			shared.Intern(v)
		}
		growable := NewGrowableCache(op, shared)
		growable.Grow()
		for _, c := range []*Cache{
			NewFixedCache(op, shared, shared, 0),
			NewCache(op, shared, shared),
			growable,
		} {
			if c == nil {
				t.Fatalf("%s: fixed cache unexpectedly over cap", op.Name())
			}
			for pass := 0; pass < 2; pass++ { // second pass: all hits
				for i := range vals {
					for j := range vals {
						got := c.Similar(ID(i), ID(j))
						want := op.Similar(vals[i], vals[j])
						if got != want {
							t.Fatalf("%s cache(%q, %q) = %v, operator says %v", op.Name(), vals[i], vals[j], got, want)
						}
					}
				}
			}
			// Canonicalization: at most one eval per unordered pair with
			// distinct IDs (reflexive pairs are eval-free).
			n := int64(len(vals))
			if max := n * (n - 1) / 2; c.Evaluations() > max {
				t.Fatalf("%s: %d evaluations for %d unordered pairs", op.Name(), c.Evaluations(), max)
			}
		}
	}
}

// TestCacheSplitDicts covers the rectangular (two-dictionary) layout,
// where equal strings carry different IDs and reflexivity must come
// from the operator, not the ID comparison.
func TestCacheSplitDicts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := generatedValues(rng, 20)
	op := similarity.DL(0.8)
	left, right := NewDict(), NewDict()
	for i, v := range vals {
		left.Intern(v)
		right.Intern(vals[len(vals)-1-i]) // different insertion order
	}
	for _, c := range []*Cache{NewFixedCache(op, left, right, 0), NewCache(op, left, right)} {
		for i := range vals {
			for j := range vals {
				a, _ := left.Lookup(vals[i])
				b, _ := right.Lookup(vals[j])
				if got, want := c.Similar(a, b), op.Similar(vals[i], vals[j]); got != want {
					t.Fatalf("split cache(%q, %q) = %v, operator says %v", vals[i], vals[j], got, want)
				}
			}
		}
	}
}
