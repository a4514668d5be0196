package typestate

import (
	"fmt"
	"math/bits"
	"strings"
)

// This file implements the interned ground domains of the type-state
// analysis: access paths, path sets, global FSM states, type-state
// transformers, allocation sites, abstract states and precondition formulas.
// Everything is interned to dense integer IDs so the framework's sets and
// maps operate on ordered integers, and so equality is O(1).
//
// The runtime-mutated tables (path sets, transformers, abstract states,
// formulas) are single-goroutine intern tables (intern.go). The
// construction-only tables (paths, sites, properties, the may-alias
// matrix, the rooted/field indexes) are plain slices and maps, frozen by
// NewAnalysis and read-only afterwards, so slice clones may share them
// across goroutines.

// PathID identifies an access path: a variable v or a one-field path v.f.
type PathID int32

// SetID identifies an interned set of paths.
type SetID int32

// SiteID identifies an allocation site. Site 0 is the distinguished "none"
// site of the bootstrap abstract state, which tracks no object.
type SiteID int32

// GState is a global FSM state: 0 is the None state (no tracked object);
// the states of each property occupy a contiguous block after it.
type GState int32

// TransID identifies an interned type-state transformer ι: a total function
// GState → GState represented as a dense vector.
type TransID int32

// AbsID identifies an interned abstract state (h, t, a, n).
type AbsID int32

// FormulaID identifies an interned conjunction of precondition literals.
// Formula 0 is true (the empty conjunction).
type FormulaID int32

// path is the structural form of an access path.
type path struct {
	base  string
	field string // "" for a plain variable
}

func (p path) String() string {
	if p.field == "" {
		return p.base
	}
	return p.base + "." + p.field
}

// litKind enumerates precondition literal kinds. Literals constrain the
// incoming abstract state (σ0 in the paper's γ definitions).
type litKind int32

const (
	litInA litKind = iota // path ∈ must set (the paper's have)
	litNotInA
	litInN // path ∈ must-not set
	litNotInN
	litMay // mayalias(path, h) per the global may-alias oracle
	litNotMay
)

// literal packs a path and a kind into one ordered value.
type literal int32

func mkLit(p PathID, k litKind) literal { return literal(int32(p)<<3 | int32(k)) }
func (l literal) path() PathID          { return PathID(int32(l) >> 3) }
func (l literal) kind() litKind         { return litKind(int32(l) & 7) }

// negation pairs: kinds 2i and 2i+1 contradict each other on the same path.
func (l literal) negated() literal { return literal(int32(l) ^ 1) }

// absState is the structural form of an abstract state (h, t, a, n). The
// must set a is stored explicitly (it is small). The must-not set n is
// stored as its complement nc — the set of paths NOT known to differ from
// the object — because must-not sets are co-finite in practice: a freshly
// allocated object is must-not-aliased by every existing path (Fink et
// al.'s uniqueness), and the transfer functions keep that form closed.
type absState struct {
	h  SiteID
	t  GState
	a  SetID
	nc SetID // complement of the must-not set: p ∈ n ⟺ p ∉ nc
}

// inMustNot reports p ∈ n for a state.
func (t *tables) inMustNot(s absState, p PathID) bool { return !t.setHas(s.nc, p) }

// tables owns every interning table of one analysis instance. The four
// runtime-hot tables (sets, trans, abs, forms) and the two memos grow
// during a run; everything else is populated by NewAnalysis and immutable
// afterwards, which is what lets slice clones share it.
type tables struct {
	// paths (interned during construction only; lookups at runtime)
	paths    []path
	pathIDs  map[path]PathID
	rootedOf map[string][]PathID // variable → sorted paths rooted at it
	fieldOf  map[string][]PathID // field → sorted paths carrying it

	// path sets, as bitset rows over the frozen path universe
	sets *table[uint64]
	// univSet is the set of all paths; it is the nc component of states
	// with an empty must-not set.
	univSet SetID

	// sites (construction-only)
	siteIDs    map[string]SiteID
	sites      []string
	sitePropOf []int // property index per site, -1 if untracked

	// properties and global states (construction-only)
	props    []*Property
	propBase []GState // first global state of each property
	numG     int
	propOfG  []int // property index per global state, -1 for None
	localOfG []State
	isErrorG []bool

	// transformers, as dense GState vectors
	trans       *table[GState]
	idTrans     TransID
	errTrans    TransID // per-property error; None stays None
	methodTrans map[string]TransID
	composeMemo map[[2]TransID]TransID

	// abstract states, encoded as [h, t, a, nc]
	abs *table[int32]

	// formulas (sorted literal conjunctions)
	forms *table[literal]

	// may-alias oracle matrix: mayAlias[p][h]
	mayAlias [][]bool
	// relevant[p] reports whether path p may point to any tracked object.
	// Irrelevant paths are treated as must-not-aliased without case
	// splitting — the static type filter real Java type-state analyses
	// apply, and the reason the paper's dominant relational case is "the
	// identity function with a certain precondition".
	relevant []bool
}

// ---- paths ----

func (t *tables) internPath(p path) PathID {
	if id, ok := t.pathIDs[p]; ok {
		return id
	}
	id := PathID(len(t.paths))
	t.pathIDs[p] = id
	t.paths = append(t.paths, p)
	return id
}

func (t *tables) pathAt(id PathID) path { return t.paths[id] }

func (t *tables) numPaths() int { return len(t.paths) }

func (t *tables) pathString(p PathID) string { return t.pathAt(p).String() }

// ---- path sets ----

// internSet interns the set of the given duplicate-free paths.
func (t *tables) internSet(paths []PathID) SetID {
	row := t.sets.scratch
	clear(row)
	for _, p := range paths {
		row[p>>6] |= 1 << (p & 63)
	}
	return SetID(t.sets.intern(row))
}

// setElems materialises a set's sorted paths, for the codecs and the
// rendering code; the set operations work on the bitset rows directly.
func (t *tables) setElems(s SetID) []PathID { return t.appendSetElems(nil, s) }

// appendSetElems appends a set's paths to dst in ascending order.
func (t *tables) appendSetElems(dst []PathID, s SetID) []PathID {
	for i, w := range t.sets.at(int32(s)) {
		dst = appendWord(dst, i, w)
	}
	return dst
}

// appendWord appends the paths of the set bits of row word i.
func appendWord(dst []PathID, i int, w uint64) []PathID {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, PathID(i<<6+bits.TrailingZeros64(w)))
	}
	return dst
}

// minusElems returns the sorted paths of s∖rm without interning the
// difference, for rendering.
func (t *tables) minusElems(s, rm SetID) []PathID {
	rr := t.sets.at(int32(rm))
	var out []PathID
	for i, w := range t.sets.at(int32(s)) {
		out = appendWord(out, i, w&^rr[i])
	}
	return out
}

func (t *tables) setHas(s SetID, p PathID) bool {
	return t.sets.at(int32(s))[p>>6]&(1<<(p&63)) != 0
}

func (t *tables) setInsert(s SetID, p PathID) SetID {
	if t.setHas(s, p) {
		return s
	}
	row := t.sets.scratch
	copy(row, t.sets.at(int32(s)))
	row[p>>6] |= 1 << (p & 63)
	return SetID(t.sets.intern(row))
}

// setMinus removes the paths rm from s.
func (t *tables) setMinus(s SetID, rm []PathID) SetID {
	row := t.sets.scratch
	copy(row, t.sets.at(int32(s)))
	removed := false
	for _, p := range rm {
		if m := uint64(1) << (p & 63); row[p>>6]&m != 0 {
			row[p>>6] &^= m
			removed = true
		}
	}
	if !removed {
		return s
	}
	return SetID(t.sets.intern(row))
}

// setMinusSet removes the paths of set rm from s.
func (t *tables) setMinusSet(s, rm SetID) SetID {
	rs, rr, row := t.sets.at(int32(s)), t.sets.at(int32(rm)), t.sets.scratch
	var removed uint64
	for i, w := range rs {
		removed |= w & rr[i]
		row[i] = w &^ rr[i]
	}
	if removed == 0 {
		return s
	}
	return SetID(t.sets.intern(row))
}

// setUnion returns a ∪ b. A union equal to an operand returns that
// operand without a table probe: its row is interned under that ID.
func (t *tables) setUnion(a, b SetID) SetID {
	if a == b {
		return a
	}
	ra, rb, row := t.sets.at(int32(a)), t.sets.at(int32(b)), t.sets.scratch
	var onlyA, onlyB uint64
	for i, x := range ra {
		y := rb[i]
		onlyA |= x &^ y
		onlyB |= y &^ x
		row[i] = x | y
	}
	switch {
	case onlyB == 0:
		return a
	case onlyA == 0:
		return b
	}
	return SetID(t.sets.intern(row))
}

// setUnionElems unions a sorted path slice into a set.
func (t *tables) setUnionElems(s SetID, add []PathID) SetID {
	if len(add) == 0 {
		return s
	}
	return t.setUnion(s, t.internSet(add))
}

// setIntersect returns a ∩ b; like setUnion, it returns an operand equal
// to the result without a table probe.
func (t *tables) setIntersect(a, b SetID) SetID {
	if a == b {
		return a
	}
	ra, rb, row := t.sets.at(int32(a)), t.sets.at(int32(b)), t.sets.scratch
	var onlyA, onlyB uint64
	for i, x := range ra {
		y := rb[i]
		onlyA |= x &^ y
		onlyB |= y &^ x
		row[i] = x & y
	}
	switch {
	case onlyA == 0:
		return a
	case onlyB == 0:
		return b
	}
	return SetID(t.sets.intern(row))
}

// rooted returns the sorted paths rooted at variable v (v itself and every
// v.f in the program's path universe).
func (t *tables) rooted(v string) []PathID { return t.rootedOf[v] }

// withField returns the sorted paths of the form _.f.
func (t *tables) withField(f string) []PathID { return t.fieldOf[f] }

// ---- co-sets ----

// coSet represents a possibly co-finite path set: the explicit set when Co
// is false, or the complement (universe minus Set) when Co is true. The keep
// components a0/n0 of relational transformers start as the full universe
// (id# keeps everything) and only ever shrink by removing small sets, so the
// complement representation keeps them small.
type coSet struct {
	Co  bool
	Set SetID
}

func (t *tables) coUniverse() coSet { return coSet{Co: true, Set: t.internSet(nil)} }

func (t *tables) coHas(c coSet, p PathID) bool {
	if c.Co {
		return !t.setHas(c.Set, p)
	}
	return t.setHas(c.Set, p)
}

// coMinus removes the sorted paths rm from the co-set.
func (t *tables) coMinus(c coSet, rm []PathID) coSet {
	if c.Co {
		s := c.Set
		for _, p := range rm {
			s = t.setInsert(s, p)
		}
		return coSet{Co: true, Set: s}
	}
	return coSet{Co: false, Set: t.setMinus(c.Set, rm)}
}

// coMinusSet is coMinus with the paths of set rm as the subtrahend. On a
// co-finite set it inserts them one at a time in ascending order, exactly
// as coMinus does, so it interns the same intermediate sets.
func (t *tables) coMinusSet(c coSet, rm SetID) coSet {
	if !c.Co {
		return coSet{Co: false, Set: t.setMinusSet(c.Set, rm)}
	}
	s := c.Set
	for i, w := range t.sets.at(int32(rm)) {
		for ; w != 0; w &= w - 1 {
			s = t.setInsert(s, PathID(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return coSet{Co: true, Set: s}
}

// coIntersect intersects two co-sets.
func (t *tables) coIntersect(a, b coSet) coSet {
	switch {
	case a.Co && b.Co:
		return coSet{Co: true, Set: t.setUnion(a.Set, b.Set)}
	case a.Co:
		return coSet{Co: false, Set: t.setMinusSet(b.Set, a.Set)}
	case b.Co:
		return coSet{Co: false, Set: t.setMinusSet(a.Set, b.Set)}
	default:
		return coSet{Co: false, Set: t.setIntersect(a.Set, b.Set)}
	}
}

// coIntersectSet intersects an explicit set with a co-set.
func (t *tables) coIntersectSet(s SetID, c coSet) SetID {
	if c.Co {
		return t.setMinusSet(s, c.Set)
	}
	return t.setIntersect(s, c.Set)
}

// applyMustNot maps a complement-represented must-not set through a
// transformer's keep/gen components: n_out = (n ∩ N0) ∪ N1, i.e.
// nc_out = (nc ∪ complement(N0)) ∖ N1. The keep component of a transformer
// is always co-finite (it starts as the universe in id# and only shrinks),
// which keeps the complement representation closed.
func (t *tables) applyMustNot(nc SetID, nK coSet, nG SetID) SetID {
	if !nK.Co {
		panic("typestate: transformer must-not keep set must be co-finite")
	}
	return t.setMinusSet(t.setUnion(nc, nK.Set), nG)
}

// ---- sites ----

func (t *tables) internSite(name string, propIdx int) SiteID {
	if id, ok := t.siteIDs[name]; ok {
		return id
	}
	id := SiteID(len(t.sites))
	t.siteIDs[name] = id
	t.sites = append(t.sites, name)
	t.sitePropOf = append(t.sitePropOf, propIdx)
	return id
}

// ---- transformers ----

func (t *tables) internTrans(vec []GState) TransID { return TransID(t.trans.intern(vec)) }

// applyTrans applies transformer ι to a global state.
func (t *tables) applyTrans(id TransID, g GState) GState { return t.trans.at(int32(id))[g] }

// compose returns after ∘ before (first before, then after), memoized.
func (t *tables) compose(after, before TransID) TransID {
	if before == t.idTrans {
		return after
	}
	if after == t.idTrans {
		return before
	}
	key := [2]TransID{after, before}
	if id, ok := t.composeMemo[key]; ok {
		return id
	}
	av, bv := t.trans.at(int32(after)), t.trans.at(int32(before))
	out := make([]GState, len(bv))
	for i, mid := range bv {
		out[i] = av[mid]
	}
	id := t.internTrans(out)
	t.composeMemo[key] = id
	return id
}

// methodTransformer returns [m], the global transformer of method m: on each
// property that defines m it follows the property's table; on every other
// state (including None) it is the identity.
func (t *tables) methodTransformer(m string) TransID {
	if id, ok := t.methodTrans[m]; ok {
		return id
	}
	vec := make([]GState, t.numG)
	for g := range vec {
		vec[g] = GState(g)
		pi := t.propOfG[g]
		if pi < 0 {
			continue
		}
		if tab, ok := t.props[pi].Methods[m]; ok {
			vec[g] = t.propBase[pi] + GState(tab[t.localOfG[g]])
		}
	}
	id := t.internTrans(vec)
	t.methodTrans[m] = id
	return id
}

// ---- abstract states ----

func (t *tables) internAbs(s absState) AbsID {
	k := t.abs.scratch[:4]
	k[0], k[1], k[2], k[3] = int32(s.h), int32(s.t), int32(s.a), int32(s.nc)
	return AbsID(t.abs.intern(k))
}

func (t *tables) absOf(id AbsID) absState {
	k := t.abs.at(int32(id))
	return absState{h: SiteID(k[0]), t: GState(k[1]), a: SetID(k[2]), nc: SetID(k[3])}
}

// ---- formulas ----

// internFormula interns a sorted, duplicate-free literal conjunction.
func (t *tables) internFormula(sorted []literal) FormulaID {
	return FormulaID(t.forms.intern(sorted))
}

// formLits returns the literal conjunction interned under f.
func (t *tables) formLits(f FormulaID) []literal { return t.forms.at(int32(f)) }

// conj conjoins extra literals onto a formula, reporting ok=false when the
// result is contradictory (p ∈ a ∧ p ∉ a, etc.).
func (t *tables) conj(f FormulaID, extra ...literal) (FormulaID, bool) {
	if len(extra) == 0 {
		return f, true
	}
	lits := t.formLits(f)
	out := make([]literal, len(lits), len(lits)+len(extra))
	copy(out, lits)
	for _, l := range extra {
		pos := 0
		dup := false
		for pos < len(out) && out[pos] < l {
			pos++
		}
		if pos < len(out) && out[pos] == l {
			dup = true
		}
		if !dup {
			out = append(out, 0)
			copy(out[pos+1:], out[pos:])
			out[pos] = l
		}
	}
	// contradiction check: negation pairs are adjacent after sorting
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1].negated() {
			return f, false
		}
	}
	return t.internFormula(out), true
}

// conjFormulas conjoins two formulas.
func (t *tables) conjFormulas(f, g FormulaID) (FormulaID, bool) {
	if f == g {
		return f, true
	}
	return t.conj(f, t.formLits(g)...)
}

// implies reports whether formula p entails formula q: every literal of q
// occurs in p (sound and complete for conjunctions over independent
// literals).
func (t *tables) implies(p, q FormulaID) bool {
	lp, lq := t.formLits(p), t.formLits(q)
	i := 0
	for _, l := range lq {
		for i < len(lp) && lp[i] < l {
			i++
		}
		if i >= len(lp) || lp[i] != l {
			return false
		}
	}
	return true
}

// holds evaluates a formula on an abstract state.
func (t *tables) holds(f FormulaID, s absState) bool {
	for _, l := range t.formLits(f) {
		p := l.path()
		var v bool
		switch l.kind() {
		case litInA:
			v = t.setHas(s.a, p)
		case litNotInA:
			v = !t.setHas(s.a, p)
		case litInN:
			v = t.inMustNot(s, p)
		case litNotInN:
			v = !t.inMustNot(s, p)
		case litMay:
			v = t.mayAlias[p][s.h]
		case litNotMay:
			v = !t.mayAlias[p][s.h]
		}
		if !v {
			return false
		}
	}
	return true
}

// formulaString renders a formula for diagnostics.
func (t *tables) formulaString(f FormulaID) string {
	lits := t.formLits(f)
	if len(lits) == 0 {
		return "true"
	}
	var b strings.Builder
	for i, l := range lits {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		p := t.pathString(l.path())
		switch l.kind() {
		case litInA:
			fmt.Fprintf(&b, "have(%s)", p)
		case litNotInA:
			fmt.Fprintf(&b, "notHave(%s)", p)
		case litInN:
			fmt.Fprintf(&b, "mustNot(%s)", p)
		case litNotInN:
			fmt.Fprintf(&b, "notMustNot(%s)", p)
		case litMay:
			fmt.Fprintf(&b, "mayalias(%s,h)", p)
		case litNotMay:
			fmt.Fprintf(&b, "¬mayalias(%s,h)", p)
		}
	}
	return b.String()
}
