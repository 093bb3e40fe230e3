package similarity

// RuneSimilar is implemented by operators that can decide similarity on
// pre-decoded rune slices. The interned value store (internal/values)
// decodes each distinct value once and evaluates operators through this
// interface, skipping the per-call []rune conversions of the string
// path. Implementations must agree exactly with Similar on the decoded
// strings.
type RuneSimilar interface {
	SimilarRunes(a, b []rune) bool
}

// editOp is a thresholded edit-distance operator (dl(θ), lev(θ)):
// v ≈θ v′ iff 1 − d(v, v′)/max(|v|, |v′|) ≥ θ. Unlike the generic
// funcOp scorer it decides the threshold without always computing the
// full distance matrix:
//
//   - length filter: d ≥ ||v|−|v′||, so when the length gap alone pushes
//     the normalized score below θ — equivalently when
//     ||v|−|v′|| > (1−θ)·max(|v|,|v′|) — the verdict is false with no
//     matrix at all;
//   - banded evaluation: only cells within the maximal admissible
//     distance k of the diagonal can stay ≤ k, so the DP touches
//     O(k·min(|v|,|v′|)) cells instead of O(|v|·|v′|);
//   - row-min early exit: row minima of the (transposition-extended)
//     matrix never decrease across two consecutive rows, so once two
//     adjacent rows exceed k the verdict is false.
//
// All three are exact for the threshold decision: the verdict equals
// the unfiltered scorer's on every input (property-tested against
// NormalizedDL / Levenshtein in edit_test.go).
type editOp struct {
	name           string
	theta          float64
	transpositions bool // Damerau (OSA) vs plain Levenshtein
	// maxDist[m] is maxDistFor(theta, m) for every m ≤ editStackRow,
	// tabulated once when the operator is built so evaluations skip the
	// binary search; longer values search as before.
	maxDist *[editStackRow + 1]int8
}

func newEditOp(name string, theta float64, osa bool) editOp {
	o := editOp{name: name, theta: theta, transpositions: osa, maxDist: new([editStackRow + 1]int8)}
	for m := range o.maxDist {
		o.maxDist[m] = int8(maxDistFor(theta, m))
	}
	return o
}

func (o editOp) Name() string { return o.name }

// Similar reports whether the values are within the threshold.
func (o editOp) Similar(a, b string) bool {
	if a == b {
		return true // subsumption of equality
	}
	return o.SimilarRunes([]rune(a), []rune(b))
}

// SimilarRunes is the rune-slice fast path (RuneSimilar).
func (o editOp) SimilarRunes(ra, rb []rune) bool {
	la, lb := len(ra), len(rb)
	m := la
	if lb > m {
		m = lb
	}
	if equalRunes(ra, rb) {
		return true // reflexivity / equality subsumption
	}
	// k is the maximal edit distance that still satisfies the threshold,
	// derived from the exact float predicate of the unfiltered scorer so
	// the two paths can never disagree on boundary distances.
	k := o.limit(m)
	if k < 0 {
		return false
	}
	// Length filter: d >= |la-lb|.
	if la-lb > k || lb-la > k {
		return false
	}
	return editWithin(ra, rb, k, o.transpositions)
}

func equalRunes(a, b []rune) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// limit is maxDistFor(o.theta, m), from the table when m is covered.
func (o editOp) limit(m int) int {
	if m <= editStackRow {
		return int(o.maxDist[m])
	}
	return maxDistFor(o.theta, m)
}

// maxDistFor returns the largest distance d in [0, m] with
// 1 − d/m ≥ θ, or −1 when none qualifies. The predicate is evaluated
// with the exact float expression of NormalizedDL, and is monotone in
// d, so a binary search finds the boundary.
func maxDistFor(theta float64, m int) int {
	ok := func(d int) bool { return 1-float64(d)/float64(m) >= theta }
	if !ok(0) {
		return -1
	}
	lo, hi := 0, m
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// editStackRow bounds the row length served from stack arrays; longer
// values (rare) fall back to heap rows.
const editStackRow = 64

// editWithin decides d(ra, rb) <= k for the optimal-string-alignment
// distance (with transpositions when osa is set, plain Levenshtein
// otherwise), touching only the diagonal band |i−j| <= k.
//
// Out-of-band cells are pinned to k+1: their true value is at least
// |i−j| > k, and since every in-band path through such a cell costs at
// least k+1 in the computed matrix too, the decision d <= k is exact.
// Each row keeps one sentinel cell on each side of its band so the
// rotated row buffers never expose stale values to the next rows.
func editWithin(ra, rb []rune, k int, osa bool) bool {
	la, lb := len(ra), len(rb)
	inf := int32(k + 1)

	var s0, s1, s2 [editStackRow]int32
	var d0, d1, d2 []int32
	if lb+1 <= editStackRow {
		d0, d1, d2 = s0[:lb+1], s1[:lb+1], s2[:lb+1]
	} else {
		d0, d1, d2 = make([]int32, lb+1), make([]int32, lb+1), make([]int32, lb+1)
	}

	// Row 0: d[0][j] = j inside the band, sentinel just past it.
	hi0 := k
	if hi0 > lb {
		hi0 = lb
	}
	for j := 0; j <= hi0; j++ {
		d1[j] = int32(j)
	}
	if hi0+1 <= lb {
		d1[hi0+1] = inf
	}

	prevMin := int32(0) // row 0 minimum
	for i := 1; i <= la; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > lb {
			hi = lb
		}
		rowMin := inf
		if i <= k {
			d2[0] = int32(i)
			rowMin = int32(i)
		} else {
			d2[0] = inf
		}
		if lo-1 >= 1 {
			d2[lo-1] = inf // left sentinel
		}
		ai := ra[i-1]
		for j := lo; j <= hi; j++ {
			cost := int32(1)
			if ai == rb[j-1] {
				cost = 0
			}
			v := d1[j] + 1 // deletion
			if t := d2[j-1] + 1; t < v {
				v = t // insertion
			}
			if t := d1[j-1] + cost; t < v {
				v = t // substitution / match
			}
			if osa && i > 1 && j > 1 && ai == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := d0[j-2] + 1; t < v {
					v = t // adjacent transposition
				}
			}
			if v > inf {
				v = inf
			}
			d2[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if hi+1 <= lb {
			d2[hi+1] = inf // right sentinel
		}
		// Row minima of adjacent rows never decrease (each cell derives
		// from the two previous rows with non-negative increments), so
		// two consecutive rows beyond k end the game.
		if rowMin > int32(k) && prevMin > int32(k) {
			return false
		}
		prevMin = rowMin
		d0, d1, d2 = d1, d2, d0
	}
	return d1[lb] <= int32(k)
}
