package similarity

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Operator is a similarity operator ≈ from the set Θ of Section 2.1.
// Operators are identified by Name(); the reasoning algorithms treat two
// operators with the same name as the same element of Θ.
//
// Implementations must satisfy the generic axioms: Similar(x, x) is true,
// Similar(x, y) == Similar(y, x), and x == y implies Similar(x, y).
type Operator interface {
	// Name is the canonical identifier, e.g. "=", "dl(0.80)", "jaro(0.85)".
	Name() string
	// Similar reports whether the two values are close enough.
	Similar(a, b string) bool
}

// EqName is the canonical name of the equality operator.
const EqName = "="

// eqOp is the equality relation =, the only transitive member of Θ.
type eqOp struct{}

func (eqOp) Name() string             { return EqName }
func (eqOp) Similar(a, b string) bool { return a == b }

// Eq returns the equality operator.
func Eq() Operator { return eqOp{} }

// IsEq reports whether op is the equality operator.
func IsEq(op Operator) bool { return op != nil && op.Name() == EqName }

// funcOp wraps a score function and threshold into an Operator.
type funcOp struct {
	name  string
	score func(a, b string) float64
	min   float64
}

func (o funcOp) Name() string { return o.name }
func (o funcOp) Similar(a, b string) bool {
	if a == b {
		return true // subsumption of equality, regardless of scorer quirks
	}
	return o.score(a, b) >= o.min
}

// DL returns the paper's thresholded Damerau–Levenshtein operator ≈θ:
// v ≈θ v′ iff dl(v, v′) ≤ (1−θ)·max(|v|, |v′|)  (Section 6.2, θ=0.8 in
// all paper experiments). Equivalently NormalizedDL(v,v′) ≥ θ. The
// operator decides the threshold through the filtered banded evaluator
// (see editOp): length filter, diagonal band, row-min early exit — all
// exact for the threshold decision — and implements RuneSimilar for the
// interned value store.
func DL(theta float64) Operator {
	return newEditOp(fmt.Sprintf("dl(%.2f)", theta), theta, true)
}

// Lev returns a thresholded normalized-Levenshtein operator with the
// same filtered banded evaluation as DL (minus transpositions).
func Lev(theta float64) Operator {
	return newEditOp(fmt.Sprintf("lev(%.2f)", theta), theta, false)
}

// JaroOp returns a thresholded Jaro operator.
func JaroOp(theta float64) Operator {
	return funcOp{name: fmt.Sprintf("jaro(%.2f)", theta), score: Jaro, min: theta}
}

// JaroWinklerOp returns a thresholded Jaro–Winkler operator.
func JaroWinklerOp(theta float64) Operator {
	return funcOp{name: fmt.Sprintf("jw(%.2f)", theta), score: JaroWinkler, min: theta}
}

// JaccardOp returns a thresholded q-gram Jaccard operator.
func JaccardOp(q int, theta float64) Operator {
	return funcOp{
		name:  fmt.Sprintf("jaccard%d(%.2f)", q, theta),
		score: func(a, b string) float64 { return JaccardQGram(a, b, q) },
		min:   theta,
	}
}

// DiceOp returns a thresholded q-gram Dice operator.
func DiceOp(q int, theta float64) Operator {
	return funcOp{
		name:  fmt.Sprintf("dice%d(%.2f)", q, theta),
		score: func(a, b string) float64 { return DiceQGram(a, b, q) },
		min:   theta,
	}
}

// CosineOp returns a thresholded q-gram cosine operator.
func CosineOp(q int, theta float64) Operator {
	return funcOp{
		name:  fmt.Sprintf("cosine%d(%.2f)", q, theta),
		score: func(a, b string) float64 { return CosineQGram(a, b, q) },
		min:   theta,
	}
}

// TokenOp returns a thresholded token-Jaccard operator (case-folded
// word-set overlap), useful for address-like multi-token fields.
func TokenOp(theta float64) Operator {
	return funcOp{name: fmt.Sprintf("token(%.2f)", theta), score: TokenJaccard, min: theta}
}

// SoundexEq returns an operator that holds when the Soundex codes of the
// two values agree (after case folding). Symmetric and reflexive; not
// transitive across empty encodings only in the degenerate sense, and it
// subsumes equality.
func SoundexEq() Operator {
	return funcOp{
		name: "soundex",
		score: func(a, b string) float64 {
			if Soundex(a) == Soundex(b) {
				return 1
			}
			return 0
		},
		min: 1,
	}
}

// PrefixOp returns an operator that holds when the case-folded values
// share a common prefix of at least n runes (or are equal).
func PrefixOp(n int) Operator {
	return funcOp{
		name: fmt.Sprintf("prefix(%d)", n),
		score: func(a, b string) float64 {
			ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
			k := 0
			for k < len(ra) && k < len(rb) && ra[k] == rb[k] {
				k++
			}
			if k >= n {
				return 1
			}
			return 0
		},
		min: 1,
	}
}

// SynonymOp wraps an operator with a constant-equivalence table: two
// values are similar if the base operator says so after canonicalizing
// each value through the table. This implements the "augment similarity
// relations with constants, to capture domain-specific synonym rules"
// extension of Section 8 (e.g. "USA" ≡ "United States"). The table is
// applied case-insensitively and symmetrically. The resulting operator
// remains reflexive, symmetric and equality-subsuming.
//
// The canonical name includes the sorted table entries: two SynonymOps
// are the same element of Θ only if base and table agree. This is what
// the Operator contract requires ("two operators with the same name are
// the same element of Θ") and what the compiled kernel's conjunct
// deduplication (internal/exec, the chase memo) relies on.
func SynonymOp(base Operator, synonyms map[string]string) Operator {
	canon := make(map[string]string, len(synonyms)*2)
	for from, to := range synonyms {
		canon[strings.ToLower(from)] = strings.ToLower(to)
	}
	entries := make([]string, 0, len(canon))
	for from, to := range canon {
		entries = append(entries, from+"->"+to)
	}
	sort.Strings(entries)
	// Resolve chains (a→b, b→c): canonicalize to a fixpoint, with a
	// bound to guard against accidental cycles.
	resolve := func(s string) string {
		cur := strings.ToLower(s)
		for i := 0; i < len(canon)+1; i++ {
			next, ok := canon[cur]
			if !ok || next == cur {
				break
			}
			cur = next
		}
		return cur
	}
	return funcOp{
		name: fmt.Sprintf("syn[%s;%s]", base.Name(), strings.Join(entries, ",")),
		score: func(a, b string) float64 {
			if base.Similar(resolve(a), resolve(b)) {
				return 1
			}
			return 0
		},
		min: 1,
	}
}

// Registry is a named collection of operators: the fixed set Θ available
// to a reasoning session. Equality is always present. A Registry is safe
// for concurrent use.
type Registry struct {
	mu  sync.RWMutex
	ops map[string]Operator
}

// NewRegistry builds a registry containing equality plus the given
// operators.
func NewRegistry(ops ...Operator) *Registry {
	r := &Registry{ops: make(map[string]Operator, len(ops)+1)}
	r.ops[EqName] = Eq()
	for _, op := range ops {
		r.ops[op.Name()] = op
	}
	return r
}

// DefaultRegistry returns a registry with the operators used throughout
// the paper's examples and experiments: equality, dl(0.8) (the paper's
// ≈d), jaro(0.85), jw(0.90), jaccard2(0.70), token(0.60) and soundex.
func DefaultRegistry() *Registry {
	return NewRegistry(
		DL(0.8),
		JaroOp(0.85),
		JaroWinklerOp(0.90),
		JaccardOp(2, 0.70),
		TokenOp(0.60),
		SoundexEq(),
	)
}

// Register adds (or replaces) an operator.
func (r *Registry) Register(op Operator) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[op.Name()] = op
}

// Lookup returns the operator with the given canonical name.
func (r *Registry) Lookup(name string) (Operator, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.ops[name]
	return op, ok
}

// Names returns the sorted canonical names of all registered operators.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ops))
	for n := range r.ops {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered operators (the quantity p in the
// complexity bound of Theorem 4.1).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ops)
}

// Resolve parses an operator spec of the forms used by the rule language:
// "=", "name", or "name(arg)", where arg is a float threshold (and for
// q-gram families the q is part of the name, e.g. "jaccard2(0.7)").
// Known constructors: dl, lev, jaro, jw, jaccardQ, diceQ, cosineQ, token,
// soundex, prefix. If the spec names an already-registered operator it is
// returned as-is; freshly constructed operators are registered so that
// repeated references share identity.
func (r *Registry) Resolve(spec string) (Operator, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("similarity: empty operator spec")
	}
	if op, ok := r.Lookup(spec); ok {
		return op, nil
	}
	name, arg, hasArg, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	var op Operator
	switch {
	case name == "dl":
		op = DL(argOr(arg, hasArg, 0.8))
	case name == "lev":
		op = Lev(argOr(arg, hasArg, 0.8))
	case name == "jaro":
		op = JaroOp(argOr(arg, hasArg, 0.85))
	case name == "jw":
		op = JaroWinklerOp(argOr(arg, hasArg, 0.9))
	case name == "token":
		op = TokenOp(argOr(arg, hasArg, 0.6))
	case name == "soundex":
		op = SoundexEq()
	case name == "prefix":
		op = PrefixOp(int(argOr(arg, hasArg, 3)))
	case strings.HasPrefix(name, "jaccard"):
		q, qerr := strconv.Atoi(strings.TrimPrefix(name, "jaccard"))
		if qerr != nil || q <= 0 {
			return nil, fmt.Errorf("similarity: bad q in %q", spec)
		}
		op = JaccardOp(q, argOr(arg, hasArg, 0.7))
	case strings.HasPrefix(name, "dice"):
		q, qerr := strconv.Atoi(strings.TrimPrefix(name, "dice"))
		if qerr != nil || q <= 0 {
			return nil, fmt.Errorf("similarity: bad q in %q", spec)
		}
		op = DiceOp(q, argOr(arg, hasArg, 0.7))
	case strings.HasPrefix(name, "cosine"):
		q, qerr := strconv.Atoi(strings.TrimPrefix(name, "cosine"))
		if qerr != nil || q <= 0 {
			return nil, fmt.Errorf("similarity: bad q in %q", spec)
		}
		op = CosineOp(q, argOr(arg, hasArg, 0.7))
	default:
		return nil, fmt.Errorf("similarity: unknown operator %q", spec)
	}
	// Re-check under the canonical name (e.g. "dl(0.8)" canonicalizes to
	// "dl(0.80)") so references share identity.
	if existing, ok := r.Lookup(op.Name()); ok {
		return existing, nil
	}
	r.Register(op)
	return op, nil
}

func splitSpec(spec string) (name string, arg float64, hasArg bool, err error) {
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		return spec, 0, false, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", 0, false, fmt.Errorf("similarity: malformed operator spec %q", spec)
	}
	name = spec[:open]
	inner := spec[open+1 : len(spec)-1]
	arg, err = strconv.ParseFloat(strings.TrimSpace(inner), 64)
	if err != nil {
		return "", 0, false, fmt.Errorf("similarity: bad threshold in %q: %v", spec, err)
	}
	return name, arg, true, nil
}

func argOr(arg float64, has bool, def float64) float64 {
	if has {
		return arg
	}
	return def
}
