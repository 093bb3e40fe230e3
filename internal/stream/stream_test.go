package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mdmatch/internal/core"
	"mdmatch/internal/gen"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/semantics"
	"mdmatch/internal/semantics/seedref"
	"mdmatch/internal/similarity"
)

// The equivalence property tests validate the incremental chase against
// seedref.Enforce — the frozen seed implementation — on the Enforcer's
// own dataset: after every insertion, the Enforcer's state must be
// bit-identical to a from-scratch chase on (previous stable instance ∪
// new record). Cluster links are validated against an instrumented copy
// of the reference loop (oracleEnforce), itself cross-checked against
// seedref on every run.

// oracleResult is the reference outcome of one from-scratch chase.
type oracleResult struct {
	apps, passes int
	inst         *record.Instance
	// matches holds the (left, right) record ids of every LHS match the
	// reference loop observed — the cluster links (a superset of the
	// pairs that fired).
	matches [][2]int
	applied []int // Σ indices fired, sorted, deduplicated
}

// oracleEnforce runs the instrumented reference loop — a verbatim
// seed-chase (full rescans, flush per firing) that additionally records
// which rule fired on which record pair, and the LHS matches of the
// cluster-linking rules (linkRules; nil links every rule) — and
// cross-checks its outcome against seedref.Enforce.
func oracleEnforce(t *testing.T, ctx schema.Pair, in *record.Instance, sigma []core.MD, linkRules []int) oracleResult {
	links := map[int]bool{}
	if linkRules == nil {
		for i := range sigma {
			links[i] = true
		}
	} else {
		for _, i := range linkRules {
			links[i] = true
		}
	}
	t.Helper()
	d, err := record.NewPairInstance(ctx, in, in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := seedref.Enforce(d, sigma)
	if err != nil {
		t.Fatal(err)
	}

	out := d.Clone()
	ch := newOracleChase(out.Left)
	res := oracleResult{inst: out.Left}
	appliedSet := map[int]bool{}
	for {
		res.passes++
		if res.passes > len(ch.parent)+2 {
			t.Fatal("oracle chase did not terminate")
		}
		fired := false
		for mi, md := range sigma {
			for i1, t1 := range out.Left.Tuples {
				for i2, t2 := range out.Right.Tuples {
					ok := true
					for _, c := range md.LHS {
						if !c.Op.Similar(out.Left.MustGet(t1, c.Pair.Left), out.Right.MustGet(t2, c.Pair.Right)) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					if t1.ID != t2.ID && links[mi] {
						res.matches = append(res.matches, [2]int{t1.ID, t2.ID})
					}
					eq := true
					for _, p := range md.RHS {
						if out.Left.MustGet(t1, p.Left) != out.Right.MustGet(t2, p.Right) {
							eq = false
							break
						}
					}
					if eq {
						continue
					}
					for _, p := range md.RHS {
						li, _ := out.Left.Rel.Index(p.Left)
						ri, _ := out.Right.Rel.Index(p.Right)
						ch.union(i1*ch.arity+li, i2*ch.arity+ri)
					}
					ch.flush()
					fired = true
					res.apps++
					appliedSet[mi] = true
				}
			}
		}
		if !fired {
			break
		}
	}
	for mi := range appliedSet {
		res.applied = append(res.applied, mi)
	}
	slices.Sort(res.applied)

	// The instrumented loop must agree with the frozen oracle exactly.
	if res.apps != ref.Applications || res.passes != ref.Passes {
		t.Fatalf("oracle self-check: apps/passes = %d/%d, seedref = %d/%d",
			res.apps, res.passes, ref.Applications, ref.Passes)
	}
	sameInstance(t, "oracle self-check", res.inst, ref.Instance.Left)
	return res
}

// oracleChase is the seed union-find with flush-per-firing, over one
// self-match instance.
type oracleChase struct {
	in      *record.Instance
	arity   int
	parent  []int
	value   []string
	members [][]int
}

func newOracleChase(in *record.Instance) *oracleChase {
	ch := &oracleChase{in: in, arity: in.Rel.Arity()}
	for _, t := range in.Tuples {
		for _, v := range t.Values {
			id := len(ch.parent)
			ch.parent = append(ch.parent, id)
			ch.value = append(ch.value, v)
			ch.members = append(ch.members, []int{id})
		}
	}
	return ch
}

func (ch *oracleChase) find(x int) int {
	for ch.parent[x] != x {
		ch.parent[x] = ch.parent[ch.parent[x]]
		x = ch.parent[x]
	}
	return x
}

func (ch *oracleChase) union(a, b int) {
	ra, rb := ch.find(a), ch.find(b)
	if ra == rb {
		return
	}
	if len(ch.members[ra]) < len(ch.members[rb]) {
		ra, rb = rb, ra
	}
	ch.parent[rb] = ra
	ch.value[ra] = semantics.ResolveValue(ch.value[ra], ch.value[rb])
	ch.members[ra] = append(ch.members[ra], ch.members[rb]...)
	ch.members[rb] = nil
}

func (ch *oracleChase) flush() {
	for ti, t := range ch.in.Tuples {
		for ai := range t.Values {
			t.Values[ai] = ch.value[ch.find(ti*ch.arity+ai)]
		}
	}
}

func sameInstance(t *testing.T, label string, a, b *record.Instance) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: sizes differ: %d vs %d", label, a.Len(), b.Len())
	}
	for i, ta := range a.Tuples {
		tb := b.Tuples[i]
		if ta.ID != tb.ID {
			t.Fatalf("%s: tuple %d ids differ: %d vs %d", label, i, ta.ID, tb.ID)
		}
		for j := range ta.Values {
			if ta.Values[j] != tb.Values[j] {
				t.Errorf("%s: t%d[%d] = %q vs %q", label, ta.ID, j, ta.Values[j], tb.Values[j])
			}
		}
	}
}

// recUF accumulates the oracle's cluster links.
type recUF struct{ parent map[int]int }

func newRecUF() *recUF { return &recUF{parent: map[int]int{}} }

func (u *recUF) add(id int) {
	if _, ok := u.parent[id]; !ok {
		u.parent[id] = id
	}
}

func (u *recUF) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *recUF) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// clusters groups the known ids by root, as (min-id, sorted members),
// ordered by cluster id.
func (u *recUF) clusters() []Cluster {
	byRoot := map[int][]int{}
	for id := range u.parent {
		byRoot[u.find(id)] = append(byRoot[u.find(id)], id)
	}
	var out []Cluster
	for _, members := range byRoot {
		slices.Sort(members)
		out = append(out, Cluster{ID: members[0], Members: members})
	}
	slices.SortFunc(out, func(a, b Cluster) int { return a.ID - b.ID })
	return out
}

func sameClusters(t *testing.T, label string, got, want []Cluster) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !slices.Equal(got[i].Members, want[i].Members) {
			t.Fatalf("%s: cluster %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// checkStreamed inserts the tuples one at a time and validates every
// step against a from-scratch reference chase on the Enforcer's own
// dataset at that step. linkRules selects the cluster-linking rules
// (nil = all); extra options (e.g. WithWorkers) pass through.
func checkStreamed(t *testing.T, label string, ctx schema.Pair, sigma []core.MD, tuples []*record.Tuple, linkRules []int, extra ...Option) {
	t.Helper()
	var opts []Option
	if linkRules != nil {
		opts = append(opts, ClusterRules(linkRules...))
	}
	opts = append(opts, extra...)
	e, err := New(ctx, sigma, opts...)
	if err != nil {
		t.Fatal(err)
	}
	uf := newRecUF()
	totalApps := 0
	for k, tup := range tuples {
		step := fmt.Sprintf("%s/step%d(id=%d)", label, k, tup.ID)
		// The reference input: the current stable instance plus the new
		// record with its original values.
		oin := e.Instance().Clone()
		if _, err := oin.AppendWithID(tup.ID, slices.Clone(tup.Values)); err != nil {
			t.Fatal(err)
		}
		want := oracleEnforce(t, ctx, oin, sigma, linkRules)

		res, err := e.Insert(tup.ID, tup.Values)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if res.Applications != want.apps || res.Passes != want.passes {
			t.Fatalf("%s: applications/passes = %d/%d, reference = %d/%d",
				step, res.Applications, res.Passes, want.apps, want.passes)
		}
		if !slices.Equal(res.AppliedMDs, want.applied) {
			t.Fatalf("%s: applied MDs = %v, reference = %v", step, res.AppliedMDs, want.applied)
		}
		sameInstance(t, step, e.Instance(), want.inst)

		uf.add(tup.ID)
		for _, f := range want.matches {
			uf.union(f[0], f[1])
		}
		sameClusters(t, step, e.Clusters(), uf.clusters())
		if wantCl := uf.clusters(); len(wantCl) > 0 {
			cl, ok := e.ClusterOf(tup.ID)
			if !ok {
				t.Fatalf("%s: ClusterOf(%d) missing", step, tup.ID)
			}
			if cl.ID != res.Cluster {
				t.Fatalf("%s: ClusterOf = %d, InsertResult.Cluster = %d", step, cl.ID, res.Cluster)
			}
		}
		totalApps += res.Applications
	}
	st := e.Stats()
	if st.Applications != totalApps {
		t.Errorf("%s: Stats.Applications = %d, sum of steps = %d", label, st.Applications, totalApps)
	}
	if st.Records != len(tuples) {
		t.Errorf("%s: Stats.Records = %d, want %d", label, st.Records, len(tuples))
	}
	// The final instance is stable for Σ.
	d, err := record.NewPairInstance(ctx, e.Instance(), e.Instance())
	if err != nil {
		t.Fatal(err)
	}
	stable, err := semantics.IsStable(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Errorf("%s: final streamed instance is not stable", label)
	}
}

// shuffled returns the credit tuples of a generated dataset in a
// deterministic shuffled order.
func shuffledCredit(t *testing.T, k int, seed int64) (schema.Pair, []*record.Tuple) {
	t.Helper()
	cfg := gen.DefaultConfig(k)
	cfg.Seed = seed
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	tuples := slices.Clone(ds.Credit.Tuples)
	rng := rand.New(rand.NewSource(seed * 1031))
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	return ctx, tuples
}

// TestStreamInsertEquivalenceGen is the property test of the
// incremental chase: across generated credit corpora inserted in
// shuffled order, every insertion must be bit-identical — instance,
// applications, passes, applied rules, clusters — to a from-scratch
// seed chase on the Enforcer's dataset at that step.
func TestStreamInsertEquivalenceGen(t *testing.T) {
	for _, k := range []int{12, 25} {
		for seed := int64(1); seed <= 2; seed++ {
			ctx, tuples := shuffledCredit(t, k, seed)
			checkStreamed(t, fmt.Sprintf("gen(K=%d,seed=%d)", k, seed), ctx, gen.DedupMDs(ctx), tuples, gen.DedupClusterRules())
		}
	}
}

// TestStreamInsertEquivalenceHolderStyle repeats the property test with
// a rule set containing only similarity conjuncts (every rule scans
// densely), exercising the dense frontier paths.
func TestStreamInsertEquivalenceDense(t *testing.T) {
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
	checkStreamed(t, "dense", ctx, sigma, tuples, nil)
}

// TestStreamBatchEquivalence checks InsertBatch: on an empty Enforcer
// it reproduces the batch chase on the whole dataset exactly, and on a
// warm Enforcer it is a from-scratch chase on (stable ∪ batch).
func TestStreamBatchEquivalence(t *testing.T) {
	cfg := gen.DefaultConfig(40)
	cfg.Seed = 5
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	sigma := gen.DedupMDs(ctx)

	t.Run("from-empty", func(t *testing.T) {
		want := oracleEnforce(t, ctx, ds.Credit.Clone(), sigma, nil)
		e, err := New(ctx, sigma)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.InsertBatch(ds.Credit)
		if err != nil {
			t.Fatal(err)
		}
		if res.Applications != want.apps || res.Passes != want.passes {
			t.Fatalf("batch applications/passes = %d/%d, reference = %d/%d",
				res.Applications, res.Passes, want.apps, want.passes)
		}
		if !slices.Equal(res.AppliedMDs, want.applied) {
			t.Fatalf("batch applied MDs = %v, reference = %v", res.AppliedMDs, want.applied)
		}
		sameInstance(t, "batch", e.Instance(), want.inst)
		uf := newRecUF()
		for _, tup := range ds.Credit.Tuples {
			uf.add(tup.ID)
		}
		for _, f := range want.matches {
			uf.union(f[0], f[1])
		}
		sameClusters(t, "batch", e.Clusters(), uf.clusters())
	})

	t.Run("warm", func(t *testing.T) {
		e, err := New(ctx, sigma)
		if err != nil {
			t.Fatal(err)
		}
		split := ds.Credit.Len() / 3
		for _, tup := range ds.Credit.Tuples[:split] {
			if _, err := e.InsertTuple(tup); err != nil {
				t.Fatal(err)
			}
		}
		oin := e.Instance().Clone()
		rest := record.NewInstance(ds.Credit.Rel)
		for _, tup := range ds.Credit.Tuples[split:] {
			if _, err := oin.AppendWithID(tup.ID, slices.Clone(tup.Values)); err != nil {
				t.Fatal(err)
			}
			if _, err := rest.AppendWithID(tup.ID, slices.Clone(tup.Values)); err != nil {
				t.Fatal(err)
			}
		}
		want := oracleEnforce(t, ctx, oin, sigma, nil)
		res, err := e.InsertBatch(rest)
		if err != nil {
			t.Fatal(err)
		}
		if res.Applications != want.apps || res.Passes != want.passes {
			t.Fatalf("warm batch applications/passes = %d/%d, reference = %d/%d",
				res.Applications, res.Passes, want.apps, want.passes)
		}
		sameInstance(t, "warm batch", e.Instance(), want.inst)
	})
}

// TestStreamNotConfluentWithBatch pins the reason the streaming
// contract is per-insertion rather than whole-history: online
// enforcement is order-sensitive. Enforcing as records arrive resolves
// values as it goes, and a grown value can fail a similarity threshold
// its original passed — so folding insertions is NOT the same function
// as batch-enforcing the final dataset, for any engine that does not
// re-run the batch chase per insert.
//
// Σ (order matters): δ1 = B≈B → C⇌C, δ2 = A=A → B⇌B.
//
//   - Batch over {a, c, b}: δ1 fires on (a, b) first ("smith" ≈
//     "smyth"), identifying C; then δ2 grows a.B to c's longer value.
//     All three records end in one cluster.
//   - Streamed a, then c, then b: inserting c fires δ2, growing a.B to
//     "smitherson-jones" — so when b arrives, δ1's threshold fails
//     against the grown value and b stays a singleton.
func TestStreamNotConfluentWithBatch(t *testing.T) {
	rel := schema.MustStrings("r", "a", "b", "c")
	ctx := schema.MustPair(rel, rel)
	d := similarity.DL(0.8)
	sigma := []core.MD{
		core.MustMD(ctx, []core.Conjunct{core.C("b", d, "b")}, []core.AttrPair{core.P("c", "c")}),
		core.MustMD(ctx, []core.Conjunct{core.Eq("a", "a")}, []core.AttrPair{core.P("b", "b")}),
	}
	rows := [][]string{
		{"k1", "smith", "c-a"},
		{"k1", "smitherson-jones", "c-c"},
		{"k2", "smyth", "c-b"},
	}

	// The batch chase merges everything into one cluster.
	batchIn := record.NewInstance(rel)
	for i, r := range rows {
		if _, err := batchIn.AppendWithID(i, slices.Clone(r)); err != nil {
			t.Fatal(err)
		}
	}
	want := oracleEnforce(t, ctx, batchIn, sigma, nil)
	uf := newRecUF()
	for i := range rows {
		uf.add(i)
	}
	for _, f := range want.matches {
		uf.union(f[0], f[1])
	}
	if n := len(uf.clusters()); n != 1 {
		t.Fatalf("batch chase yields %d clusters, expected 1 (bad test fixture)", n)
	}

	// The streamed fold does not — and per-step it is still exactly the
	// reference chase on its own dataset (checkStreamed validates that).
	tuples := make([]*record.Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = &record.Tuple{ID: i, Values: slices.Clone(r)}
	}
	e, err := New(ctx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if _, err := e.InsertTuple(tup); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.Clusters()); n != 2 {
		t.Fatalf("streamed fold yields %d clusters, expected 2 (order sensitivity vanished?)", n)
	}
	checkStreamed(t, "non-confluence", ctx, sigma, tuples, nil)
}

// TestStreamSmallShuffles stress-tests the per-step contract on a small
// adversarial instance across many insertion orders: values chosen so
// firings grow values across thresholds and rules cascade.
func TestStreamSmallShuffles(t *testing.T) {
	rel := schema.MustStrings("r", "a", "b", "c")
	ctx := schema.MustPair(rel, rel)
	d := similarity.DL(0.8)
	sigma := []core.MD{
		core.MustMD(ctx, []core.Conjunct{core.C("b", d, "b")}, []core.AttrPair{core.P("c", "c")}),
		core.MustMD(ctx, []core.Conjunct{core.Eq("a", "a")}, []core.AttrPair{core.P("b", "b"), core.P("c", "c")}),
		core.MustMD(ctx, []core.Conjunct{core.C("c", d, "c"), core.C("b", d, "b")}, []core.AttrPair{core.P("a", "a")}),
	}
	rows := [][]string{
		{"k1", "smith", "cc-1"},
		{"k1", "smitherson-jones", "cc-23"},
		{"k2", "smyth", "cc-2"},
		{"k3", "smythe", "cc-23"},
		{"k2", "jones", "cc-1"},
		{"k4", "smithers", "dd-9"},
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		order := rng.Perm(len(rows))
		tuples := make([]*record.Tuple, len(rows))
		for i, oi := range order {
			tuples[i] = &record.Tuple{ID: oi, Values: slices.Clone(rows[oi])}
		}
		checkStreamed(t, fmt.Sprintf("shuffle%d(%v)", trial, order), ctx, sigma, tuples, nil)
	}
}

// TestStreamErrors covers the construction and insertion error paths.
func TestStreamErrors(t *testing.T) {
	credit := gen.CreditSchema()
	billing := gen.BillingSchema()
	if _, err := New(schema.MustPair(credit, billing), nil); err == nil {
		t.Error("New accepted a non-self-match context")
	}
	ctx := schema.MustPair(credit, credit)
	if _, err := New(ctx, []core.MD{{}}); err == nil {
		t.Error("New accepted an invalid MD")
	}
	e, err := New(ctx, gen.DedupMDs(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(1, []string{"too", "short"}); err == nil {
		t.Error("Insert accepted a short row")
	}
	row := make([]string, credit.Arity())
	if _, err := e.Insert(1, row); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(1, row); err == nil {
		t.Error("Insert accepted a duplicate id")
	}
	other := record.NewInstance(billing)
	if _, err := e.InsertBatch(other); err == nil {
		t.Error("InsertBatch accepted a foreign relation")
	}
	// A rejected batch must mutate nothing: rows before the offending
	// one must not be appended, seeded, or clustered.
	bad := record.NewInstance(credit)
	if _, err := bad.AppendWithID(50, make([]string, credit.Arity())); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.AppendWithID(1, make([]string, credit.Arity())); err != nil { // id 1 exists
		t.Fatal(err)
	}
	before := e.Len()
	if _, err := e.InsertBatch(bad); err == nil {
		t.Error("InsertBatch accepted a batch with a duplicate id")
	}
	if e.Len() != before {
		t.Errorf("rejected batch changed Len: %d -> %d", before, e.Len())
	}
	if _, ok := e.ClusterOf(50); ok {
		t.Error("rejected batch left record 50 in the cluster store")
	}
	res, err := e.Insert(51, make([]string, credit.Arity()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Applications != 0 {
		t.Errorf("insert after rejected batch consumed leftover frontier: %+v", res)
	}
	if _, ok := e.ClusterOf(99); ok {
		t.Error("ClusterOf found an unknown record")
	}
	if _, ok := e.Record(99); ok {
		t.Error("Record found an unknown record")
	}
	if vals, ok := e.Record(1); !ok || len(vals) != credit.Arity() {
		t.Error("Record did not return the inserted row")
	}
}

// TestStreamConcurrentReads exercises the lock: concurrent ClusterOf /
// Stats / Record calls while insertions run (validated under -race).
func TestStreamConcurrentReads(t *testing.T) {
	ctx, tuples := shuffledCredit(t, 15, 7)
	e, err := New(ctx, gen.DedupMDs(ctx))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tup := range tuples {
			if _, err := e.InsertTuple(tup); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		e.Stats()
		e.ClusterOf(tuples[i%len(tuples)].ID)
		e.Record(tuples[i%len(tuples)].ID)
		e.Len()
		e.CacheBytes()
	}
	<-done
	if e.Len() != len(tuples) {
		t.Fatalf("Len = %d, want %d", e.Len(), len(tuples))
	}
}

// TestCacheBackendChoice pins which verdict caches get the growable
// triangular matrix: the conjuncts of dense rules (no equality or
// Soundex seed), grown over the whole dictionary at every enforcement.
// Conjuncts that only blocked rules read keep the map backend — with
// the blockable-only Σ (the soak's rule shapes), every one of them.
func TestCacheBackendChoice(t *testing.T) {
	ctx, tuples := shuffledCredit(t, 25, 1)
	full := gen.DedupMDs(ctx)
	for _, tc := range []struct {
		name   string
		sigma  []core.MD
		matrix []string // columns whose DL conjunct gets the matrix
		conjs  int
	}{
		{"DedupMDs", full, []string{"cno", "ln", "dob", "fn", "street"}, 5},
		{"blockable-only", blockableOnly(full), nil, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(ctx, tc.sigma)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.conjs) != tc.conjs {
				t.Fatalf("%d verdict caches, want %d", len(e.conjs), tc.conjs)
			}
			matrix := map[int]bool{}
			for _, name := range tc.matrix {
				col, _ := ctx.Left.Index(name)
				matrix[col] = true
			}
			for _, tup := range tuples {
				if _, err := e.InsertTuple(tup); err != nil {
					t.Fatal(err)
				}
				for k, c := range e.conjs {
					want := 0
					if matrix[k.lcol] {
						want = e.cols.Dict(k.lcol).Len()
					}
					if c.Rows() != want {
						t.Fatalf("after record %d: %s conjunct on column %d covers %d rows, want %d",
							tup.ID, k.op, k.lcol, c.Rows(), want)
					}
				}
			}
			if e.CacheBytes() <= 0 {
				t.Fatalf("CacheBytes = %d after %d inserts", e.CacheBytes(), len(tuples))
			}
		})
	}
}
