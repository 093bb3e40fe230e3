package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mdmatch/internal/core"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
)

// The dense sweep (scanDense) visits its frontier in place, so a pair
// that a mid-scan firing brings into the frontier is visited only if
// the sweep re-reads its filters at the right moment. The test below
// drives a small all-similarity Σ whose firings touch rows behind, at
// and ahead of the cursor on both sides — including columns that become
// dirty in the middle of a row the sweep walks sparsely — and checks
// every insert against the seed chase and against an independent
// worklist oracle that counts the pairs a correct sweep examines.

// sweepSigma is a dense Σ over sweepRel. κ0–κ2 chain two unions into
// one q class (sweepCrafted relies on it); κ3's RHS writes c on the
// left tuple and d on the right one, and κ4 reads c on the left and d
// on the right, so class write-backs also touch a row on one side only.
func sweepSigma(ctx schema.Pair) []core.MD {
	d := similarity.DL(0.5)
	md := func(l, r, zl, zr string) core.MD {
		return core.MustMD(ctx, []core.Conjunct{core.C(l, d, r)}, []core.AttrPair{core.P(zl, zr)})
	}
	return []core.MD{
		md("s", "s", "q", "q"),
		md("t", "t", "p", "p"),
		md("p", "p", "q", "q"),
		md("q", "q", "c", "d"),
		md("c", "d", "s", "s"),
	}
}

var sweepRel = schema.MustStrings("r", "s", "t", "p", "q", "c", "d")

// sweepCrafted is a four-record history whose last insert makes a
// column dirty in the middle of a row the sweep walks sparsely. Rows
// 0–2 are mutually dissimilar, hence stable as given. Inserting row 3:
// κ0 unites q of rows 1, 2, 3 (s "ab" ≈ "a", "b"; "qq22" is longest, so
// row 2 stays clean); κ1 copies p "pqr" into row 1, so p(0) ≈ p(1) now.
// κ2's sweep then walks row 0 over the dirty columns {1, 3}: (0, 1)
// fires and writes q(0) = "LONGEST0" through the whole q class, making
// column 2 dirty ahead of row 0's cursor at column 1 — pair (0, 2) must be
// visited before (0, 3).
func sweepCrafted() []*record.Tuple {
	rows := [][]string{
		{"mmmm", "nnnn", "pq", "LONGEST0", "ccc", "ccc"},
		{"a", "c", "zz", "q1", "ddd", "ddd"},
		{"b", "gggg", "yyyy", "qq22", "eee", "eee"},
		{"ab", "cd", "pqr", "q3", "fff", "fff"},
	}
	out := make([]*record.Tuple, len(rows))
	for i, v := range rows {
		out[i] = &record.Tuple{ID: 100 + i, Values: v}
	}
	return out
}

// sweepTuples draws n records of short strings over a two-letter
// alphabet, so most pairs are similar and firings are frequent.
func sweepTuples(n int, seed int64) []*record.Tuple {
	rng := rand.New(rand.NewSource(seed))
	word := func() string {
		b := make([]byte, 1+rng.Intn(4))
		for i := range b {
			b[i] = "xy"[rng.Intn(2)]
		}
		return string(b)
	}
	out := make([]*record.Tuple, n)
	for i := range out {
		vals := make([]string, sweepRel.Arity())
		for j := range vals {
			vals[j] = word()
		}
		out[i] = &record.Tuple{ID: 100 + i, Values: vals}
	}
	return out
}

// sweepCoverage counts the mid-scan touches the oracle saw, by side
// (0 left, 1 right) and position relative to the cursor (0 behind, 1
// at, 2 ahead): rows against the cursor row on the left, columns
// against the cursor column on the right. rowJoins counts sparse rows
// that entered the left filter at the cursor; colJoins counts columns
// that became dirty ahead of the cursor in a sparse row.
type sweepCoverage struct {
	touches            [2][3]int
	rowJoins, colJoins int
}

// worklistOracle runs the dense worklist chase on in (mutated to its
// fixpoint) from a frontier of just row newRow, independently of the
// Enforcer: each rule's scan walks the whole n×n grid in (left, right)
// order and visits a pair iff, at that moment, its row is in the left
// filter or its column in the right one. A firing's changed cells dirty
// their rows for every rule reading or writing the column and widen the
// running scan. It returns the pairs examined, applications and passes.
func worklistOracle(t *testing.T, in *record.Instance, sigma []core.MD, newRow int, cov *sweepCoverage) (pairs int64, apps, passes int) {
	t.Helper()
	n, arity := in.Len(), in.Rel.Arity()
	type rule struct {
		lhs        [][2]int
		rhs        [][2]int
		relL, relR []bool
		dirtyL     []bool
		dirtyR     []bool
	}
	col := func(name string) int {
		i, ok := in.Rel.Index(name)
		if !ok {
			t.Fatalf("no attribute %q", name)
		}
		return i
	}
	rules := make([]rule, len(sigma))
	for k, md := range sigma {
		r := &rules[k]
		r.relL, r.relR = make([]bool, arity), make([]bool, arity)
		r.dirtyL, r.dirtyR = make([]bool, n), make([]bool, n)
		r.dirtyL[newRow], r.dirtyR[newRow] = true, true
		for _, c := range md.LHS {
			p := [2]int{col(c.Pair.Left), col(c.Pair.Right)}
			r.lhs = append(r.lhs, p)
			r.relL[p[0]], r.relR[p[1]] = true, true
		}
		for _, q := range md.RHS {
			p := [2]int{col(q.Left), col(q.Right)}
			r.rhs = append(r.rhs, p)
			r.relL[p[0]], r.relR[p[1]] = true, true
		}
	}
	ch := newOracleChase(in)
	before := make([]string, n*arity)
	where := func(x, cursor int) int { return min(max(x-cursor, -1), 1) + 1 }
	for {
		passes++
		if passes > n*arity+2 {
			t.Fatal("worklist oracle did not terminate")
		}
		fired := false
		for k, md := range sigma {
			r := &rules[k]
			inL, inR := slices.Clone(r.dirtyL), slices.Clone(r.dirtyR)
			clear(r.dirtyL)
			clear(r.dirtyR)
			for i1 := 0; i1 < n; i1++ {
				for i2 := 0; i2 < n; i2++ {
					if !inL[i1] && !inR[i2] {
						continue
					}
					pairs++
					t1, t2 := in.Tuples[i1], in.Tuples[i2]
					match := true
					for ci, p := range r.lhs {
						if !md.LHS[ci].Op.Similar(t1.Values[p[0]], t2.Values[p[1]]) {
							match = false
							break
						}
					}
					if !match {
						continue
					}
					equal := true
					for _, p := range r.rhs {
						if t1.Values[p[0]] != t2.Values[p[1]] {
							equal = false
						}
					}
					if equal {
						continue
					}
					for ti, tup := range in.Tuples {
						copy(before[ti*arity:], tup.Values)
					}
					for _, p := range r.rhs {
						ch.union(i1*arity+p[0], i2*arity+p[1])
					}
					ch.flush()
					fired = true
					apps++
					for cell, v := range before {
						ti, ai := cell/arity, cell%arity
						if in.Tuples[ti].Values[ai] == v {
							continue
						}
						for o := range rules {
							rules[o].dirtyL[ti] = rules[o].dirtyL[ti] || rules[o].relL[ai]
							rules[o].dirtyR[ti] = rules[o].dirtyR[ti] || rules[o].relR[ai]
						}
						if r.relL[ai] {
							cov.touches[0][where(ti, i1)]++
							if ti == i1 && !inL[ti] {
								cov.rowJoins++
							}
							inL[ti] = true
						}
						if r.relR[ai] {
							cov.touches[1][where(ti, i2)]++
							if ti > i2 && !inL[i1] && !inR[ti] {
								cov.colJoins++
							}
							inR[ti] = true
						}
					}
				}
			}
		}
		if !fired {
			return pairs, apps, passes
		}
	}
}

// TestDenseSweepMidScanTouches checks the dense sweep per insert against
// the seed chase (instance, Applications, Passes, clusters) and against
// worklistOracle (pairs examined, and the same instance), serially and
// at four workers with speculation forced on, and asserts the inputs
// really exercise every kind of mid-scan touch.
func TestDenseSweepMidScanTouches(t *testing.T) {
	forceSpeculation(t, 4, 1)
	ctx := schema.MustPair(sweepRel, sweepRel)
	sigma := sweepSigma(ctx)
	inputs := map[string][]*record.Tuple{"crafted": sweepCrafted()}
	for seed := int64(1); seed <= 4; seed++ {
		inputs[fmt.Sprintf("seed=%d", seed)] = sweepTuples(14, seed)
	}
	var cov sweepCoverage
	for name, tuples := range inputs {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("sweep(%s,workers=%d)", name, workers)
			checkStreamed(t, label, ctx, sigma, tuples, nil, WithWorkers(workers))

			e, err := New(ctx, sigma, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for k, tup := range tuples {
				step := fmt.Sprintf("%s/step%d", label, k)
				oin := e.Instance().Clone()
				if _, err := oin.AppendWithID(tup.ID, slices.Clone(tup.Values)); err != nil {
					t.Fatal(err)
				}
				wantPairs, wantApps, wantPasses := worklistOracle(t, oin, sigma, k, &cov)
				pairsBefore := e.Stats().Chase.PairsExamined
				res, err := e.Insert(tup.ID, tup.Values)
				if err != nil {
					t.Fatal(err)
				}
				if got := e.Stats().Chase.PairsExamined - pairsBefore; got != wantPairs {
					t.Fatalf("%s: PairsExamined = %d, worklist oracle = %d", step, got, wantPairs)
				}
				if res.Applications != wantApps || res.Passes != wantPasses {
					t.Fatalf("%s: applications/passes = %d/%d, worklist oracle = %d/%d",
						step, res.Applications, res.Passes, wantApps, wantPasses)
				}
				sameInstance(t, step, e.Instance(), oin)
			}
		}
	}
	for side, name := range []string{"left", "right"} {
		for pos, at := range []string{"behind", "at", "ahead of"} {
			if cov.touches[side][pos] == 0 {
				t.Errorf("no %s touch %s the cursor: the inputs do not exercise it", name, at)
			}
		}
	}
	if cov.rowJoins == 0 || cov.colJoins == 0 {
		t.Errorf("mid-row filter growth not exercised: %d rows, %d columns joined", cov.rowJoins, cov.colJoins)
	}
	t.Logf("touches %v, rows joined mid-row %d, columns joined mid-row %d", cov.touches, cov.rowJoins, cov.colJoins)
}
