package stream

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"mdmatch/internal/core"
	"mdmatch/internal/gen"
	"mdmatch/internal/similarity"
)

// explainRun inserts the tuples one at a time with an Explain sink
// attached to each insertion and returns the enforcer plus the
// per-insertion provenance, in insertion order.
func explainRun(t *testing.T, workers int, opts ...Option) (*Enforcer, []*Explain) {
	t.Helper()
	ctx, tuples := shuffledCredit(t, 18, 3)
	sigma := gen.DedupMDs(ctx)
	all := append([]Option{ClusterRules(gen.DedupClusterRules()...), WithWorkers(workers)}, opts...)
	e, err := New(ctx, sigma, all...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Explain, 0, len(tuples))
	for _, tup := range tuples {
		ex := NewExplain(len(sigma))
		c := WithTraceSink(context.Background(), ex)
		res, err := e.InsertCtx(c, tup.ID, tup.Values)
		if err != nil {
			t.Fatal(err)
		}
		// The firing sequence IS the applied-MD sequence: same events,
		// observed at the same commit points.
		rules := make([]int, 0, len(ex.Firings))
		for _, f := range ex.Firings {
			rules = append(rules, f.Rule)
		}
		if want := res.AppliedMDs; !slices.Equal(rules, want) && !(len(rules) == 0 && len(want) == 0) {
			t.Fatalf("insert %d: explain firing rules = %v, InsertResult.AppliedMDs = %v",
				tup.ID, rules, want)
		}
		out = append(out, ex)
	}
	return e, out
}

// TestStreamExplainDeterminism is the provenance property test: with
// speculation forced on, the full explain stream of every insertion —
// funnel counts, firing sequence with cell-level before/after values,
// link events — must be bit-identical at every worker count, because
// provenance is recorded only at serial commit points.
func TestStreamExplainDeterminism(t *testing.T) {
	forceSpeculation(t, 16, 1)
	_, ref := explainRun(t, 1)
	for _, workers := range []int{2, 4} {
		_, got := explainRun(t, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d explains, serial %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: insert %d explain diverges:\n got %+v\nwant %+v",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestStreamExplainDenseDeterminism repeats the determinism property on
// an all-similarity rule set, so every scan is a dense sweep, with
// speculation thresholds forced low. Each sweep reports its frontier
// at scan start, |D_L|·n + n·|D_R| − |D_L|·|D_R|: every insert's first
// pass has at least the new row dirty on both sides for every rule, so
// each rule reports at least 2n−1 candidates, and exactly that when
// nothing fires (one pass).
func TestStreamExplainDenseDeterminism(t *testing.T) {
	forceSpeculation(t, 8, 1)
	ctx, tuples := shuffledCredit(t, 15, 3)
	d := similarity.DL(0.8)
	sigma := []core.MD{
		core.MustMD(ctx,
			[]core.Conjunct{core.C("cno", d, "cno")},
			[]core.AttrPair{core.P("fn", "fn"), core.P("ln", "ln"), core.P("dob", "dob")}),
		core.MustMD(ctx,
			[]core.Conjunct{core.C("dob", d, "dob"), core.C("ln", d, "ln"), core.C("fn", d, "fn")},
			[]core.AttrPair{core.P("tel", "tel"), core.P("email", "email")}),
	}
	run := func(workers int) []*Explain {
		t.Helper()
		e, err := New(ctx, sigma, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*Explain, 0, len(tuples))
		for _, tup := range tuples {
			ex := NewExplain(len(sigma))
			if _, err := e.InsertCtx(WithTraceSink(context.Background(), ex), tup.ID, tup.Values); err != nil {
				t.Fatal(err)
			}
			out = append(out, ex)
		}
		return out
	}
	ref := run(1)
	for i, ex := range ref {
		frontier := int64(2*(i+1) - 1)
		for _, f := range ex.Funnel {
			if f.Candidates < frontier {
				t.Fatalf("insert %d rule %d: %d candidates, want at least %d", i, f.Rule, f.Candidates, frontier)
			}
			if len(ex.Firings) == 0 && f.Candidates != frontier {
				t.Fatalf("insert %d rule %d: %d candidates in a one-pass insert, want %d", i, f.Rule, f.Candidates, frontier)
			}
		}
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for i := range ref {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: insert %d explain diverges:\n got %+v\nwant %+v",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestStreamExplainFunnelShape pins the funnel's internal consistency
// on the serial chase: every rule examines at most its candidates (when
// any frontier was enumerated), matches at most what it examined, and
// fires at most what it matched; firing cells resolve to the longer of
// the two before values and never shrink either side.
func TestStreamExplainFunnelShape(t *testing.T) {
	_, explains := explainRun(t, 1)
	fired := 0
	for i, ex := range explains {
		for _, f := range ex.Funnel {
			if f.Matched > f.Examined {
				t.Fatalf("insert %d rule %d: matched %d > examined %d", i, f.Rule, f.Matched, f.Examined)
			}
			if f.Fired > f.Matched {
				t.Fatalf("insert %d rule %d: fired %d > matched %d", i, f.Rule, f.Fired, f.Matched)
			}
		}
		for _, fir := range ex.Firings {
			for _, c := range fir.Cells {
				if len(c.After) < len(c.LeftBefore) || len(c.After) < len(c.RightBefore) {
					t.Fatalf("insert %d firing %d: resolved %q shorter than before (%q, %q)",
						i, fir.Seq, c.After, c.LeftBefore, c.RightBefore)
				}
			}
			fired++
		}
		for _, l := range ex.Links {
			if l.Rule < 0 {
				t.Fatalf("insert %d: live link with restored-rule marker: %+v", i, l)
			}
		}
	}
	if fired == 0 {
		t.Fatal("dataset produced no firings; the property test is vacuous")
	}
}

// TestClusterTrail checks the link side log: every record's trail is
// exactly the committed link events of its cluster, the trail grows the
// cluster from singletons (members = trail links + 1 when the cluster
// was built purely by live links), and unknown ids report absence.
func TestClusterTrail(t *testing.T) {
	e, _ := explainRun(t, 1)
	if _, ok := e.ClusterTrail(1 << 30); ok {
		t.Fatal("trail reported for an unknown id")
	}
	trails := 0
	for _, tup := range e.Instance().Tuples {
		cl, ok := e.ClusterOf(tup.ID)
		if !ok {
			t.Fatalf("no cluster for %d", tup.ID)
		}
		trail, ok := e.ClusterTrail(tup.ID)
		if !ok {
			t.Fatalf("no trail for %d", tup.ID)
		}
		if want := len(cl.Members) - 1; len(trail) != want {
			t.Fatalf("record %d: %d trail links, cluster of %d members wants %d",
				tup.ID, len(trail), len(cl.Members), want)
		}
		member := make(map[int]bool, len(cl.Members))
		for _, id := range cl.Members {
			member[id] = true
		}
		for _, ev := range trail {
			if !member[ev.Left] || !member[ev.Right] {
				t.Fatalf("record %d: trail link %+v outside cluster %v", tup.ID, ev, cl.Members)
			}
			if ev.Rule < 0 {
				t.Fatalf("record %d: live trail carries restored marker: %+v", tup.ID, ev)
			}
		}
		if len(trail) > 0 {
			trails++
		}
	}
	if trails == 0 {
		t.Fatal("no record has a non-empty trail; the test is vacuous")
	}
}

// TestClusterTrailDeterminism: the trail, like the explain stream, is
// identical at every worker count.
func TestClusterTrailDeterminism(t *testing.T) {
	forceSpeculation(t, 16, 1)
	serial, _ := explainRun(t, 1)
	for _, workers := range []int{2, 4} {
		e, _ := explainRun(t, workers)
		for _, tup := range serial.Instance().Tuples {
			want, _ := serial.ClusterTrail(tup.ID)
			got, _ := e.ClusterTrail(tup.ID)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d record %d: trail %v, serial %v", workers, tup.ID, got, want)
			}
		}
	}
}

// TestExplainJSONStable pins the wire shape of the explain payload the
// daemon serves (?explain=1): field names are API.
func TestExplainJSONStable(t *testing.T) {
	ex := NewExplain(1)
	ex.Candidates(0, 3)
	ex.Examined(0)
	ex.Matched(0, 1, 2)
	ex.Linked(0, 1, 2)
	ex.Fired(0, 1, 2, []CellChange{{LeftCol: 4, RightCol: 4, LeftBefore: "a", RightBefore: "ab", After: "ab"}})
	b, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	want := `{"funnel":[{"rule":0,"candidates":3,"examined":1,"matched":1,"fired":1}],` +
		`"firings":[{"seq":1,"rule":0,"left":1,"right":2,"cells":[{"left_col":4,"right_col":4,` +
		`"left_before":"a","right_before":"ab","after":"ab"}]}],` +
		`"links":[{"rule":0,"left":1,"right":2}]}`
	if got != want {
		t.Fatalf("explain JSON drifted:\n got %s\nwant %s", got, want)
	}
}
