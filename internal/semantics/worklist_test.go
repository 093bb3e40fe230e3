package semantics

import (
	"fmt"
	"testing"

	"mdmatch/internal/core"
	"mdmatch/internal/gen"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/semantics/seedref"
	"mdmatch/internal/similarity"
)

// The equivalence property tests validate the worklist chase against
// seedref.Enforce — the frozen, verbatim copy of the pre-kernel seed
// implementation (interpreted evaluation, full rescans, flush per
// firing) — and against EnforceFullScan, the compiled quadratic
// reference.

// sameInstances asserts two pair instances agree tuple-by-tuple.
func sameInstances(t *testing.T, label string, a, b *record.PairInstance) {
	t.Helper()
	cmp := func(side string, x, y *record.Instance) {
		t.Helper()
		if x.Len() != y.Len() {
			t.Fatalf("%s: %s sizes differ: %d vs %d", label, side, x.Len(), y.Len())
		}
		for i, tx := range x.Tuples {
			ty := y.Tuples[i]
			if tx.ID != ty.ID {
				t.Fatalf("%s: %s tuple %d ids differ: %d vs %d", label, side, i, tx.ID, ty.ID)
			}
			for j := range tx.Values {
				if tx.Values[j] != ty.Values[j] {
					t.Errorf("%s: %s t%d[%d] = %q vs %q", label, side, tx.ID, j, tx.Values[j], ty.Values[j])
				}
			}
		}
	}
	cmp("left", a.Left, b.Left)
	cmp("right", a.Right, b.Right)
}

// checkEquivalence runs the seed reference, the compiled full scan and
// the worklist on d and asserts identical stable instances,
// Applications and Passes.
func checkEquivalence(t *testing.T, label string, d *record.PairInstance, sigma []core.MD) {
	t.Helper()
	ref, err := seedref.Enforce(d, sigma)
	if err != nil {
		t.Fatalf("%s: seed: %v", label, err)
	}
	full, err := EnforceFullScan(d, sigma)
	if err != nil {
		t.Fatalf("%s: fullscan: %v", label, err)
	}
	wl, err := Enforce(d, sigma)
	if err != nil {
		t.Fatalf("%s: worklist: %v", label, err)
	}
	for _, got := range []struct {
		name string
		res  EnforceResult
	}{{"fullscan", full}, {"worklist", wl}} {
		if got.res.Applications != ref.Applications {
			t.Errorf("%s: %s Applications = %d, seed = %d", label, got.name, got.res.Applications, ref.Applications)
		}
		if got.res.Passes != ref.Passes {
			t.Errorf("%s: %s Passes = %d, seed = %d", label, got.name, got.res.Passes, ref.Passes)
		}
		sameInstances(t, label+"/"+got.name, got.res.Instance, ref.Instance)
	}
	if wl.Stats.RuleFirings != int64(wl.Applications) {
		t.Errorf("%s: RuleFirings = %d, Applications = %d", label, wl.Stats.RuleFirings, wl.Applications)
	}
	if wl.Stats.PairsExamined > full.Stats.PairsExamined {
		t.Errorf("%s: worklist examined %d pairs, more than full scan's %d",
			label, wl.Stats.PairsExamined, full.Stats.PairsExamined)
	}
	if wl.Stats.LHSEvaluations > full.Stats.LHSEvaluations {
		t.Errorf("%s: worklist evaluated %d operators, more than full scan's %d",
			label, wl.Stats.LHSEvaluations, full.Stats.LHSEvaluations)
	}
	// The result must actually be stable.
	stable, err := IsStable(wl.Instance, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Errorf("%s: worklist result is not stable", label)
	}
}

// TestWorklistEquivalenceGen is the property test of the worklist chase:
// across generated credit/billing datasets (the paper's Section 6.2
// dirtying protocol), the worklist must reproduce the seed full-scan
// chase exactly — same stable instance, same Applications, same Passes.
func TestWorklistEquivalenceGen(t *testing.T) {
	type input struct {
		k    int
		seed int64
	}
	var inputs []input
	for _, k := range []int{25, 60} {
		for _, seed := range []int64{1, 2, 3} {
			inputs = append(inputs, input{k, seed})
		}
	}
	inputs = append(inputs, input{40, 7})
	for _, in := range inputs {
		cfg := gen.DefaultConfig(in.k)
		cfg.Seed = in.seed
		ds, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, fmt.Sprintf("gen(K=%d,seed=%d)", in.k, in.seed), ds.Pair(), gen.HolderMDs(ds.Ctx))
	}
}

// TestWorklistEquivalencePaper runs the equivalence check on the paper's
// instances: the Figure 1 / Example 3.5 credit-billing instance with Σc,
// and the Figure 3 / Example 3.1 self-match instance with Σ0.
func TestWorklistEquivalencePaper(t *testing.T) {
	_, sigmaC, _, dc := figure1(t)
	checkEquivalence(t, "figure1/Σc", dc, sigmaC)
	// Enforcing single rules exercises the blockable path in isolation.
	for i := range sigmaC {
		checkEquivalence(t, fmt.Sprintf("figure1/ϕ%d", i+1), dc, sigmaC[i:i+1])
	}
	_, sigma0, d0 := figure3(t)
	checkEquivalence(t, "figure3/Σ0", d0, sigma0)
}

// TestWorklistSelfMatchTouch exercises the self-match path where one
// firing touches a tuple on both sides of the pair at once.
func TestWorklistSelfMatchTouch(t *testing.T) {
	r := schema.MustStrings("R", "A", "B", "C")
	ctx := schema.MustPair(r, r)
	sigma := []core.MD{
		core.MustMD(ctx, []core.Conjunct{core.Eq("A", "A")}, []core.AttrPair{core.P("B", "B")}),
		core.MustMD(ctx, []core.Conjunct{core.Eq("B", "B")}, []core.AttrPair{core.P("C", "C")}),
		core.MustMD(ctx, []core.Conjunct{core.Eq("C", "C")}, []core.AttrPair{core.P("A", "A")}),
	}
	in := record.NewInstance(r)
	in.MustAppend("a", "b1", "c1")
	in.MustAppend("a", "b2", "c2")
	in.MustAppend("x", "b2", "c3")
	in.MustAppend("y", "b4", "c3")
	d, err := record.NewPairInstance(ctx, in, in)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "selfmatch", d, sigma)
}

// TestWorklistCountersReported checks the chase counters that
// cmd/mdreason and the examples report: a chase that fires must examine
// pairs and evaluate operators.
func TestWorklistCountersReported(t *testing.T) {
	_, sigma, _, d := figure1(t)
	res, err := Enforce(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applications == 0 {
		t.Fatal("expected firings on the Figure 1 instance")
	}
	s := res.Stats
	if s.PairsExamined == 0 || s.LHSEvaluations == 0 {
		t.Errorf("counters not wired: %+v", s)
	}
	if s.RuleFirings != int64(res.Applications) {
		t.Errorf("RuleFirings = %d, want %d", s.RuleFirings, res.Applications)
	}
}

// TestWorklistMidRowLeftTouch is the regression test for a scan-order
// bug in the dense filtered scan: a firing that touches the *current*
// left row mid-row must widen the row filter for the remaining cells
// of that very row (the reference loop's per-cell check sees it), not
// only for later rows. With the row filter hoisted to row level, this
// instance needed an extra pass: the (L0, R1) visit after the (L0, R0)
// firing was deferred although the seed chase performs it in-pass.
func TestWorklistMidRowLeftTouch(t *testing.T) {
	left := schema.MustStrings("l", "a", "b")
	right := schema.MustStrings("r", "a", "b")
	ctx := schema.MustPair(left, right)
	md := core.MustMD(ctx,
		[]core.Conjunct{core.C("a", similarity.DL(0.8), "a")},
		[]core.AttrPair{core.P("b", "b")})
	li := record.NewInstance(left)
	li.MustAppend("aaaaa", "bbbbb")
	li.MustAppend("aaabb", "zzzzz")
	ri := record.NewInstance(right)
	ri.MustAppend("aaaab", "bbbbb")
	ri.MustAppend("aaaac", "bbbbb")
	d, err := record.NewPairInstance(ctx, li, ri)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "mid-row-left-touch", d, []core.MD{md})
}
