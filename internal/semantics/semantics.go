// Package semantics gives matching dependencies their dynamic semantics
// (Section 2.1) and implements enforcement: the chase that turns an
// instance D into a stable instance D′ by repeatedly applying MDs as
// matching rules (Section 3.1).
//
// The package is the operational counterpart of the schema-level
// reasoning in internal/core: the property tests validate that whatever
// core.Deduce proves at compile time actually holds on instances.
//
// All instance-level loops execute through the compiled evaluation
// kernel (internal/exec): each MD is compiled once per call — attribute
// references resolved to positional columns, hash-encodable conjuncts
// identified — and tuple pairs are evaluated on positional value slices.
// Enforce is a candidate-driven worklist chase (see worklist.go);
// EnforceFullScan keeps the paper-literal quadratic loop as the
// validation and benchmarking reference.
package semantics

import (
	"fmt"

	"mdmatch/internal/core"
	"mdmatch/internal/metrics"
	"mdmatch/internal/record"
)

// MatchLHS reports whether the tuple pair (t1, t2) ∈ D matches the LHS of
// md in D: t1[X1[j]] ≈j t2[X2[j]] for every conjunct j. It is the
// single-pair, spec-level check; the enforcement and satisfaction loops
// use the compiled form instead.
func MatchLHS(d *record.PairInstance, md core.MD, t1, t2 *record.Tuple) (bool, error) {
	for _, c := range md.LHS {
		v1, err := d.Left.Get(t1, c.Pair.Left)
		if err != nil {
			return false, err
		}
		v2, err := d.Right.Get(t2, c.Pair.Right)
		if err != nil {
			return false, err
		}
		if !c.Op.Similar(v1, v2) {
			return false, nil
		}
	}
	return true, nil
}

// Satisfies decides (D, D′) ⊨ md: for every pair (t1, t2) ∈ D that
// matches LHS(md) in D, (a) the RHS attributes are identified in D′, and
// (b) the pair still matches LHS(md) in D′. D′ must extend D (same tuple
// ids present).
func Satisfies(d, dPrime *record.PairInstance, md core.MD) (bool, error) {
	if err := md.Validate(); err != nil {
		return false, err
	}
	if !dPrime.Extends(d) {
		return false, fmt.Errorf("semantics: D′ does not extend D")
	}
	cm, err := compileMD(d.Ctx, md)
	if err != nil {
		return false, err
	}
	cmP, err := compileMD(dPrime.Ctx, md)
	if err != nil {
		return false, err
	}
	for _, t1 := range d.Left.Tuples {
		for _, t2 := range d.Right.Tuples {
			if !cm.matchLHS(t1.Values, t2.Values, nil) {
				continue
			}
			t1p, _ := dPrime.Left.ByID(t1.ID)
			t2p, _ := dPrime.Right.ByID(t2.ID)
			if !cmP.rhsEqual(t1p.Values, t2p.Values) {
				return false, nil
			}
			if !cmP.matchLHS(t1p.Values, t2p.Values, nil) {
				return false, nil
			}
		}
	}
	return true, nil
}

// SatisfiesPersistent decides the persistent-match reading of
// (D, D′) ⊨ md: for every pair (t1, t2) that matches LHS(md) both in D
// and still in D′, the RHS attributes must be identified in D′.
//
// This is the reading under which the closure algorithm of Section 4 is
// sound. Under the literal reading of Section 2.1 (clause (b) as an
// obligation rather than a condition), even the paper's own Example 3.5
// deductions admit instance-level counterexamples: a rule of Σ can
// overwrite an LHS attribute of the deduced MD on some pair, breaking
// clause (b) for that pair while every rule of Σ remains satisfied. See
// TestLiteralReadingCounterexample and DESIGN.md §2.3.
func SatisfiesPersistent(d, dPrime *record.PairInstance, md core.MD) (bool, error) {
	if err := md.Validate(); err != nil {
		return false, err
	}
	if !dPrime.Extends(d) {
		return false, fmt.Errorf("semantics: D′ does not extend D")
	}
	cm, err := compileMD(d.Ctx, md)
	if err != nil {
		return false, err
	}
	cmP, err := compileMD(dPrime.Ctx, md)
	if err != nil {
		return false, err
	}
	for _, t1 := range d.Left.Tuples {
		for _, t2 := range d.Right.Tuples {
			if !cm.matchLHS(t1.Values, t2.Values, nil) {
				continue
			}
			t1p, _ := dPrime.Left.ByID(t1.ID)
			t2p, _ := dPrime.Right.ByID(t2.ID)
			if !cmP.matchLHS(t1p.Values, t2p.Values, nil) {
				continue // match did not persist: no obligation
			}
			if !cmP.rhsEqual(t1p.Values, t2p.Values) {
				return false, nil
			}
		}
	}
	return true, nil
}

// SatisfiesAll decides (D, D′) ⊨ Σ.
func SatisfiesAll(d, dPrime *record.PairInstance, sigma []core.MD) (bool, error) {
	for _, md := range sigma {
		ok, err := Satisfies(d, dPrime, md)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// IsStable decides whether D is stable for Σ: (D, D) ⊨ Σ (Section 3.1).
// Equivalently: whenever a pair matches the LHS of a rule, the rule's RHS
// attributes are already equal.
func IsStable(d *record.PairInstance, sigma []core.MD) (bool, error) {
	ok, _, err := stableCheck(d, sigma)
	return ok, err
}

// Violation describes one unenforced rule application, for diagnostics.
type Violation struct {
	MD      core.MD
	LeftID  int
	RightID int
}

func (v Violation) String() string {
	return fmt.Sprintf("(t%d, t%d) matches LHS of %s but RHS differs", v.LeftID, v.RightID, v.MD)
}

// Violations lists all unenforced rule applications in D (empty iff D is
// stable for Σ).
func Violations(d *record.PairInstance, sigma []core.MD) ([]Violation, error) {
	_, vs, err := stableCheck(d, sigma)
	return vs, err
}

func stableCheck(d *record.PairInstance, sigma []core.MD) (bool, []Violation, error) {
	var out []Violation
	for mi, md := range sigma {
		if err := md.Validate(); err != nil {
			return false, nil, err
		}
		cm, err := compileMD(d.Ctx, md)
		if err != nil {
			return false, nil, err
		}
		for _, t1 := range d.Left.Tuples {
			for _, t2 := range d.Right.Tuples {
				if !cm.matchLHS(t1.Values, t2.Values, nil) {
					continue
				}
				if !cm.rhsEqual(t1.Values, t2.Values) {
					out = append(out, Violation{MD: sigma[mi], LeftID: t1.ID, RightID: t2.ID})
				}
			}
		}
	}
	return len(out) == 0, out, nil
}

// ResolveValue is the deterministic value-resolution policy of the
// enforcement chase: when cells are identified, the class takes the
// longest value, breaking ties lexicographically (largest). The ⇌
// operator only requires the values to become identical (Example 2.2);
// preferring longer values keeps the more informative representation, as
// in Figure 2 where "NJ" and "NJ07974" resolve to "NJ07974".
func ResolveValue(a, b string) string {
	if len(a) > len(b) {
		return a
	}
	if len(b) > len(a) {
		return b
	}
	if a >= b {
		return a
	}
	return b
}

// EnforceResult reports what the chase did.
type EnforceResult struct {
	// Instance is the stable instance D′ ⊒ D.
	Instance *record.PairInstance
	// Applications is the number of rule firings (pair × rule with an
	// actual update).
	Applications int
	// Passes is the number of rule rounds, including the final
	// fixpoint-confirming round.
	Passes int
	// Stats counts the chase's work: candidate pairs examined, operator
	// evaluations, firings. Enforce examines far fewer pairs than the
	// quadratic reference (see EnforceFullScan); the counters make the
	// difference observable to callers (cmd/mdreason, the examples).
	Stats metrics.ChaseStats
}

// Enforce runs the chase: it repeatedly applies the MDs of Σ as matching
// rules to a copy of D, identifying RHS cells via union-find with the
// ResolveValue policy, until the instance is stable for Σ. D itself is
// not modified ("in the matching process instance D may not be updated",
// Section 2.1).
//
// Enforcement is candidate-driven: rules are compiled through the
// internal/exec kernel, pairs are seeded from blocking-style joins over
// each rule's hash-encodable conjuncts where operators allow (full cross
// product per rule otherwise, once), and after a firing only pairs
// involving touched tuples are reconsidered. The firing sequence — and
// therefore the stable instance, Applications and Passes — is identical
// to the quadratic reference loop EnforceFullScan; see worklist.go for
// the argument.
//
// Termination: every firing merges at least one pair of distinct cell
// classes, and there are finitely many cells, so the number of firings
// is bounded by the total cell count; the pass loop is additionally
// guarded.
func Enforce(d *record.PairInstance, sigma []core.MD) (EnforceResult, error) {
	out := d.Clone()
	mds, err := compileSigma(out.Ctx, sigma)
	if err != nil {
		return EnforceResult{}, err
	}
	return newWorklist(out, mds).run()
}

// StableFor builds a stable instance for Σ from D by enforcement and
// additionally reports whether the chase's outcome satisfies the pair
// semantics (D, D′) ⊨ Σ. The second value can be false when enforcing
// one rule breaks the LHS match of another (the chase still guarantees
// stability of D′ itself, clause (a)+(b) on D′).
func StableFor(d *record.PairInstance, sigma []core.MD) (*record.PairInstance, bool, error) {
	res, err := Enforce(d, sigma)
	if err != nil {
		return nil, false, err
	}
	ok, err := SatisfiesAll(d, res.Instance, sigma)
	if err != nil {
		return nil, false, err
	}
	return res.Instance, ok, nil
}

// MatchByKey reports whether (t1, t2) match the LHS of the relative key
// ψ: the operational use of RCKs as matching rules ("to identify t1[Y1]
// and t2[Y2] it suffices to inspect whether the attributes of t1[X1] and
// t2[X2] pairwise match w.r.t. C", Section 2.2).
func MatchByKey(d *record.PairInstance, key core.Key, t1, t2 *record.Tuple) (bool, error) {
	return MatchLHS(d, key.AsMD(), t1, t2)
}
