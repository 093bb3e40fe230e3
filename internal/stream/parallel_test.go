package stream

import (
	"fmt"
	"slices"
	"testing"

	"mdmatch/internal/core"
	"mdmatch/internal/gen"
	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
)

// forceSpeculation shrinks the parallel-chase thresholds so speculation
// engages — with many chunks, commit barriers and invalidation windows
// — on the small property-test datasets. Defaults are restored when
// the test ends.
func forceSpeculation(t *testing.T, chunk, minPairs int) {
	t.Helper()
	t.Cleanup(TuneSpeculation(chunk, minPairs))
}

// TestStreamParallelInsertEquivalence is the per-insertion property
// test of the parallel incremental chase: with speculation forced on
// and workers ∈ {2, 4, 8}, every insertion must remain bit-identical —
// instance, applications, passes, applied rules, clusters — to the
// from-scratch seed chase, exactly as the serial enforcer is. Runs
// under -race in CI at GOMAXPROCS 1 and 4.
func TestStreamParallelInsertEquivalence(t *testing.T) {
	forceSpeculation(t, 16, 1)
	ctx, tuples := shuffledCredit(t, 18, 3)
	for _, workers := range []int{2, 4, 8} {
		checkStreamed(t, fmt.Sprintf("parallel(workers=%d)", workers),
			ctx, gen.DedupMDs(ctx), tuples, gen.DedupClusterRules(), WithWorkers(workers))
	}
}

// denseSigma is an all-similarity rule set: every rule scans densely.
func denseSigma(ctx schema.Pair) []core.MD {
	d := similarity.DL(0.8)
	return []core.MD{
		core.MustMD(ctx,
			[]core.Conjunct{core.C("cno", d, "cno")},
			[]core.AttrPair{core.P("fn", "fn"), core.P("ln", "ln"), core.P("dob", "dob")}),
		core.MustMD(ctx,
			[]core.Conjunct{core.C("dob", d, "dob"), core.C("ln", d, "ln"), core.C("fn", d, "fn")},
			[]core.AttrPair{core.P("tel", "tel"), core.P("email", "email")}),
	}
}

// TestStreamParallelDenseEquivalence repeats the per-insertion test
// with an all-similarity rule set, so every scan is a dense sweep, at
// one worker and at four with speculation thresholds forced low (dense
// sweeps stay serial at any worker count).
func TestStreamParallelDenseEquivalence(t *testing.T) {
	forceSpeculation(t, 8, 1)
	ctx, tuples := shuffledCredit(t, 15, 3)
	for _, workers := range []int{1, 4} {
		checkStreamed(t, fmt.Sprintf("parallel-dense(workers=%d)", workers),
			ctx, denseSigma(ctx), tuples, nil, WithWorkers(workers))
	}
}

// TestStreamParallelBatchEquivalence checks InsertBatch under the
// parallel chase (including the parallel index seeding): on an empty
// enforcer it must still reproduce the batch chase on the whole dataset
// exactly.
func TestStreamParallelBatchEquivalence(t *testing.T) {
	forceSpeculation(t, 32, 1)
	cfg := gen.DefaultConfig(40)
	cfg.Seed = 5
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	sigma := gen.DedupMDs(ctx)
	want := oracleEnforce(t, ctx, ds.Credit.Clone(), sigma, nil)
	for _, workers := range []int{2, 8} {
		e, err := New(ctx, sigma, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.InsertBatch(ds.Credit)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("batch(workers=%d)", workers)
		if res.Applications != want.apps || res.Passes != want.passes {
			t.Fatalf("%s: applications/passes = %d/%d, reference = %d/%d",
				label, res.Applications, res.Passes, want.apps, want.passes)
		}
		if !slices.Equal(res.AppliedMDs, want.applied) {
			t.Fatalf("%s: applied MDs = %v, reference = %v", label, res.AppliedMDs, want.applied)
		}
		sameInstance(t, label, e.Instance(), want.inst)
	}
}

// TestStreamParallelCounters pins the deterministic chase counters:
// at every worker count the parallel enforcer must report exactly the
// serial enforcer's PairsExamined, RuleFirings and per-rule telemetry
// (examined/matched/fired are all counted at serial commit), while
// LHSEvaluations may only exceed the serial count (invalidated
// speculations), never undercut it.
func TestStreamParallelCounters(t *testing.T) {
	forceSpeculation(t, 16, 1)
	ctx, tuples := shuffledCredit(t, 20, 5)
	sigma := gen.DedupMDs(ctx)
	run := func(workers int) *Enforcer {
		t.Helper()
		e, err := New(ctx, sigma, ClusterRules(gen.DedupClusterRules()...), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range tuples {
			if _, err := e.InsertTuple(tup); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	serial := run(1)
	ss := serial.Stats()
	for _, workers := range []int{2, 4, 8} {
		e := run(workers)
		st := e.Stats()
		label := fmt.Sprintf("workers=%d", workers)
		if st.Chase.PairsExamined != ss.Chase.PairsExamined {
			t.Errorf("%s: PairsExamined = %d, serial = %d", label, st.Chase.PairsExamined, ss.Chase.PairsExamined)
		}
		if st.Chase.RuleFirings != ss.Chase.RuleFirings {
			t.Errorf("%s: RuleFirings = %d, serial = %d", label, st.Chase.RuleFirings, ss.Chase.RuleFirings)
		}
		if st.Applications != ss.Applications || st.Passes != ss.Passes {
			t.Errorf("%s: Applications/Passes = %d/%d, serial = %d/%d",
				label, st.Applications, st.Passes, ss.Applications, ss.Passes)
		}
		if st.Chase.LHSEvaluations < ss.Chase.LHSEvaluations {
			t.Errorf("%s: LHSEvaluations = %d, below serial %d", label, st.Chase.LHSEvaluations, ss.Chase.LHSEvaluations)
		}
		if !slices.Equal(e.RuleStats(), serial.RuleStats()) {
			t.Errorf("%s: RuleStats = %v, serial = %v", label, e.RuleStats(), serial.RuleStats())
		}
	}
}

// TestSpeculationAccounting pins the evaluation accounting across the
// parallel layer: verdict-cache misses plus the speculative fills
// merged equal Stats().Chase.LHSEvaluations, every speculated pair
// commits once (from its verdict or invalidated), and a serial
// enforcer speculates nothing. Both rule shapes run: the blocked loop
// speculates at four workers, and an all-dense Σ speculates nothing at
// any worker count (dense sweeps are serial).
func TestSpeculationAccounting(t *testing.T) {
	forceSpeculation(t, 16, 1)
	ctx, tuples := shuffledCredit(t, 18, 3)
	for _, rs := range []struct {
		name  string
		sigma []core.MD
	}{{"dedup", gen.DedupMDs(ctx)}, {"dense", denseSigma(ctx)}} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/workers=%d", rs.name, workers)
			e, err := New(ctx, rs.sigma, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range tuples {
				if _, err := e.InsertTuple(tup); err != nil {
					t.Fatal(err)
				}
			}
			_, misses := e.CacheStats()
			sp := e.SpeculationStats()
			if evals := e.Stats().Chase.LHSEvaluations; misses+sp.Fills != evals {
				t.Errorf("%s: cache misses %d + speculative fills %d != LHSEvaluations %d",
					label, misses, sp.Fills, evals)
			}
			if sp.Speculated != sp.Committed+sp.Invalidated {
				t.Errorf("%s: speculated %d != committed %d + invalidated %d",
					label, sp.Speculated, sp.Committed, sp.Invalidated)
			}
			if workers == 1 && sp != (SpeculationStats{}) {
				t.Errorf("%s: serial enforcer reports speculation %+v", label, sp)
			}
			switch {
			case rs.name == "dense" && sp != (SpeculationStats{}):
				t.Errorf("%s: dense sweeps speculated %+v", label, sp)
			case rs.name != "dense" && workers > 1 && (sp.Committed == 0 || sp.Fills == 0):
				t.Errorf("%s: speculation forced on but did not engage: %+v", label, sp)
			}
		}
	}
}
