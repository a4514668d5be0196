package typestate

import (
	"cmp"
	"fmt"
	"slices"

	"swift/internal/ir"
)

// This file implements the bottom-up relational domain of Figure 3,
// extended with must-not sets: abstract relations are either constant
// relations (σ, φ) or transformers (ι, a0, a1, n0, n1, φ). A transformer
// relates an incoming state (h, t, a, n) satisfying φ to
//
//	(h, ι(t), (a ∩ a0) ∪ a1, (n ∩ n0) ∪ n1).
//
// The keep components a0/n0 are co-sets (they start as the universe in id#
// and only shrink), the gen components a1/n1 are explicit sets, and the
// precondition φ is a conjunction of have/notHave/mustNot/notMustNot/
// mayalias literals over the incoming state.

type relKind uint8

const (
	kConst relKind = iota // constant relation (σ, φ)
	kXform                // transformer (ι, a0, a1, n0, n1, φ)
)

// rel is the structural form of an abstract relation.
type rel struct {
	kind relKind
	out  AbsID // kConst: the constant output state
	iota TransID
	aK   coSet // a0
	aG   SetID // a1
	nK   coSet // n0
	nG   SetID // n1
	pre  FormulaID
}

// RelID identifies an interned abstract relation.
type RelID int32

// The relation table stores a relation as relWidth int32s: its kind with
// aK.Co in bit 1 and nK.Co in bit 2, then out, iota, aK.Set, aG, nK.Set,
// nG and pre. internRel encodes a relation, relOf decodes it.
const relWidth = 8

// internRel canonicalizes and interns a relation. Canonicalization removes
// gen paths from the keep components (p ∈ a1 makes p's membership in a0
// irrelevant), which merges syntactically different but semantically equal
// transformers.
func (a *Analysis) internRel(r rel) RelID {
	t := a.tab
	if r.kind == kXform {
		r.aK = t.coMinusSet(r.aK, r.aG)
		r.nK = t.coMinusSet(r.nK, r.nG)
	}
	k := a.rels.scratch[:relWidth]
	k[0] = int32(r.kind) | flag(r.aK.Co)<<1 | flag(r.nK.Co)<<2
	k[1], k[2], k[3], k[4] = int32(r.out), int32(r.iota), int32(r.aK.Set), int32(r.aG)
	k[5], k[6], k[7] = int32(r.nK.Set), int32(r.nG), int32(r.pre)
	return RelID(a.rels.intern(k))
}

func (a *Analysis) relOf(id RelID) rel {
	k := a.rels.at(int32(id))
	return rel{
		kind: relKind(k[0] & 1), out: AbsID(k[1]), iota: TransID(k[2]),
		aK: coSet{Co: k[0]&2 != 0, Set: SetID(k[3])}, aG: SetID(k[4]),
		nK: coSet{Co: k[0]&4 != 0, Set: SetID(k[5])}, nG: SetID(k[6]),
		pre: FormulaID(k[7]),
	}
}

func flag(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Applies implements core.Client: s ∈ dom(r) iff s satisfies the
// precondition.
func (a *Analysis) Applies(r RelID, s AbsID) bool {
	return a.tab.holds(a.relOf(r).pre, a.tab.absOf(s))
}

// Apply implements core.Client: relations are functional, so the result is
// a single state.
func (a *Analysis) Apply(r RelID, s AbsID) []AbsID {
	t := a.tab
	rr := a.relOf(r)
	if rr.kind == kConst {
		return []AbsID{rr.out}
	}
	st := t.absOf(s)
	out := absState{
		h:  st.h,
		t:  t.applyTrans(rr.iota, st.t),
		a:  t.setUnion(t.coIntersectSet(st.a, rr.aK), rr.aG),
		nc: t.applyMustNot(st.nc, rr.nK, rr.nG),
	}
	return []AbsID{t.internAbs(out)}
}

// PreOf implements core.Client.
func (a *Analysis) PreOf(r RelID) FormulaID { return a.relOf(r).pre }

// RelString renders a relation for diagnostics and tests.
func (a *Analysis) RelString(r RelID) string {
	t := a.tab
	rr := a.relOf(r)
	if rr.kind == kConst {
		return fmt.Sprintf("const%s if %s", a.StateString(rr.out), t.formulaString(rr.pre))
	}
	iota := "ι"
	if rr.iota == t.idTrans {
		iota = "id"
	} else if rr.iota == t.errTrans {
		iota = "λt.error"
	}
	aK := "V"
	if rr.aK.Co {
		if elems := t.setElems(rr.aK.Set); len(elems) > 0 {
			aK = "V∖{" + a.pathSetString(rr.aK.Set) + "}"
		}
	} else {
		aK = "{" + a.pathSetString(rr.aK.Set) + "}"
	}
	nK := "V"
	if rr.nK.Co {
		if elems := t.setElems(rr.nK.Set); len(elems) > 0 {
			nK = "V∖{" + a.pathSetString(rr.nK.Set) + "}"
		}
	} else {
		nK = "{" + a.pathSetString(rr.nK.Set) + "}"
	}
	return fmt.Sprintf("(%s, %s, {%s}, %s, {%s}) if %s",
		iota, aK, a.pathSetString(rr.aG), nK, a.pathSetString(rr.nG),
		t.formulaString(rr.pre))
}

// Reduce implements core.Client: drop relations whose meaning is contained
// in another's — same constant output or same transformer components under
// a weaker precondition. Branch joins constantly produce such pairs (the
// identity under `true` from one path and under `mustNot(v)` from another),
// and keeping only the weakest-precondition representative is what lets one
// relational case cover a procedure's dominant behaviour.
func (a *Analysis) Reduce(rels []RelID) []RelID {
	if len(rels) < 2 {
		return rels
	}
	// Group by transformer — a relation's encoded row without its last
	// word, the precondition — by sorting copies of the rows, ties broken
	// by input position: each group then lies contiguously, in input
	// order.
	type item struct {
		key [relWidth - 1]int32
		pre FormulaID
		pos int32
	}
	items := make([]item, len(rels))
	for i, id := range rels {
		row := a.rels.at(int32(id))
		copy(items[i].key[:], row)
		items[i].pre, items[i].pos = FormulaID(row[relWidth-1]), int32(i)
	}
	slices.SortFunc(items, func(x, y item) int {
		if c := slices.Compare(x.key[:], y.key[:]); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	})
	// groups holds each group's span of items; its first item is its
	// first appearance in the input, which orders the output.
	type span struct{ lo, hi int }
	groups := make([]span, 0, len(items))
	for lo := 0; lo < len(items); {
		hi := lo + 1
		for hi < len(items) && items[hi].key == items[lo].key {
			hi++
		}
		groups = append(groups, span{lo, hi})
		lo = hi
	}
	slices.SortFunc(groups, func(x, y span) int { return cmp.Compare(items[x.lo].pos, items[y.lo].pos) })
	out := make([]RelID, 0, len(rels))
	for _, g := range groups {
		members := items[g.lo:g.hi]
		for _, r := range members {
			dominated := false
			for _, s := range members {
				if rels[s.pos] != rels[r.pos] && a.tab.implies(r.pre, s.pre) {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, rels[r.pos])
			}
		}
	}
	return out
}

// ---- three-valued output-membership status ----

type tri uint8

const (
	triNo tri = iota
	triYes
	triUnknown
)

// formHas reports whether the formula contains the literal.
func (t *tables) formHas(f FormulaID, l literal) bool {
	lits := t.formLits(f)
	lo, hi := 0, len(lits)
	for lo < hi {
		mid := (lo + hi) / 2
		if lits[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(lits) && lits[lo] == l
}

// outStatusA decides whether path p is in the transformer's output must
// set: yes if generated, no if dropped from the keep set, and otherwise
// whatever the precondition says about p's membership in the incoming must
// set (unknown if it says nothing).
func (a *Analysis) outStatusA(r rel, p PathID) tri {
	t := a.tab
	if !t.relevant[p] {
		return triNo
	}
	if t.setHas(r.aG, p) {
		return triYes
	}
	if !t.coHas(r.aK, p) {
		return triNo
	}
	if t.formHas(r.pre, mkLit(p, litInA)) {
		return triYes
	}
	if t.formHas(r.pre, mkLit(p, litNotInA)) {
		return triNo
	}
	return triUnknown
}

// outStatusN is outStatusA for the must-not set.
func (a *Analysis) outStatusN(r rel, p PathID) tri {
	t := a.tab
	if !t.relevant[p] {
		return triYes
	}
	if t.setHas(r.nG, p) {
		return triYes
	}
	if !t.coHas(r.nK, p) {
		return triNo
	}
	if t.formHas(r.pre, mkLit(p, litInN)) {
		return triYes
	}
	if t.formHas(r.pre, mkLit(p, litNotInN)) {
		return triNo
	}
	return triUnknown
}

// relCase is one branch of a case split: the relation with a strengthened
// precondition, plus the decided fact.
type relCase struct {
	r   rel
	yes bool
}

// casesOutA resolves p's output-must membership, splitting the precondition
// when it is unknown (the "sometimes" rows of Figure 3's rtrans).
func (a *Analysis) casesOutA(r rel, p PathID) []relCase {
	switch a.outStatusA(r, p) {
	case triYes:
		return []relCase{{r: r, yes: true}}
	case triNo:
		return []relCase{{r: r, yes: false}}
	}
	var out []relCase
	if f, ok := a.tab.conj(r.pre, mkLit(p, litInA)); ok {
		y := r
		y.pre = f
		out = append(out, relCase{r: y, yes: true})
	}
	if f, ok := a.tab.conj(r.pre, mkLit(p, litNotInA)); ok {
		n := r
		n.pre = f
		out = append(out, relCase{r: n, yes: false})
	}
	return out
}

// casesOutN is casesOutA for the must-not set.
func (a *Analysis) casesOutN(r rel, p PathID) []relCase {
	switch a.outStatusN(r, p) {
	case triYes:
		return []relCase{{r: r, yes: true}}
	case triNo:
		return []relCase{{r: r, yes: false}}
	}
	var out []relCase
	if f, ok := a.tab.conj(r.pre, mkLit(p, litInN)); ok {
		y := r
		y.pre = f
		out = append(out, relCase{r: y, yes: true})
	}
	if f, ok := a.tab.conj(r.pre, mkLit(p, litNotInN)); ok {
		n := r
		n.pre = f
		out = append(out, relCase{r: n, yes: false})
	}
	return out
}

// casesMay resolves the may-alias status of path p with the (preserved)
// incoming object.
func (a *Analysis) casesMay(r rel, p PathID) []relCase {
	if a.tab.formHas(r.pre, mkLit(p, litMay)) {
		return []relCase{{r: r, yes: true}}
	}
	if a.tab.formHas(r.pre, mkLit(p, litNotMay)) {
		return []relCase{{r: r, yes: false}}
	}
	var out []relCase
	if f, ok := a.tab.conj(r.pre, mkLit(p, litMay)); ok {
		y := r
		y.pre = f
		out = append(out, relCase{r: y, yes: true})
	}
	if f, ok := a.tab.conj(r.pre, mkLit(p, litNotMay)); ok {
		n := r
		n.pre = f
		out = append(out, relCase{r: n, yes: false})
	}
	return out
}

// ---- rtrans ----

// RTrans implements core.Client: the relational transfer functions of
// Figure 3, extended to must-not sets and one-field paths. Constant
// relations are transferred by running the top-down trans on their output
// state; transformers are updated component-wise, case-splitting on unknown
// alias statuses.
func (a *Analysis) RTrans(c *ir.Prim, r RelID) []RelID {
	t := a.tab
	rr := a.relOf(r)
	if rr.kind == kConst {
		outs := a.Trans(c, rr.out)
		res := make([]RelID, 0, len(outs))
		for _, o := range outs {
			res = append(res, a.internRel(rel{kind: kConst, out: o, pre: rr.pre}))
		}
		return res
	}
	switch c.Kind {
	case ir.Nop, ir.Assert:
		return []RelID{r}

	case ir.New:
		rooted := t.rooted(c.Dst)
		vp := a.mustPath(c.Dst, "")
		x := rr
		x.aK = t.coMinus(x.aK, rooted)
		x.aG = t.setMinus(x.aG, rooted)
		x.nK = t.coMinus(x.nK, rooted)
		x.nG = t.setMinus(x.nG, rooted)
		if t.relevant[vp] {
			x.nG = t.setInsert(x.nG, vp)
		}
		out := []RelID{a.internRel(x)}
		if site := t.siteIDs[c.Site]; a.spawnsAt(site) {
			fresh := absState{
				h:  site,
				t:  t.propBase[t.sitePropOf[site]],
				a:  t.internSet([]PathID{vp}),
				nc: t.internSet(rooted),
			}
			out = append(out, a.internRel(rel{kind: kConst, out: t.internAbs(fresh), pre: rr.pre}))
		}
		return out

	case ir.Copy:
		if c.Dst == c.Src {
			return []RelID{r}
		}
		return a.copyLikeR(rr, c.Dst, a.mustPath(c.Src, ""))

	case ir.Load:
		return a.copyLikeR(rr, c.Dst, a.mustPath(c.Src, c.Field))

	case ir.Store:
		return a.storeR(rr, c.Dst, c.Field, a.mustPath(c.Src, ""))

	case ir.TSCall:
		return a.tsCallR(rr, a.mustPath(c.Dst, ""), c.Method)

	case ir.Kill:
		rooted := t.rooted(c.Dst)
		x := rr
		x.aK = t.coMinus(x.aK, rooted)
		x.aG = t.setMinus(x.aG, rooted)
		x.nK = t.coMinus(x.nK, rooted)
		x.nG = t.setMinus(x.nG, rooted)
		return []RelID{a.internRel(x)}
	}
	panic(fmt.Sprintf("typestate: RTrans on unknown primitive %v", c.Kind))
}

// copyLikeR is the relational counterpart of copyLike: case-split on the
// source's status in the output must set, then (when not a must-alias) in
// the output must-not set.
func (a *Analysis) copyLikeR(rr rel, dst string, src PathID) []RelID {
	t := a.tab
	rooted := t.rooted(dst)
	dp := a.mustPath(dst, "")
	killDst := func(x rel) rel {
		x.aK = t.coMinus(x.aK, rooted)
		x.aG = t.setMinus(x.aG, rooted)
		x.nK = t.coMinus(x.nK, rooted)
		x.nG = t.setMinus(x.nG, rooted)
		return x
	}
	var out []RelID
	for _, ca := range a.casesOutA(rr, src) {
		if ca.yes {
			x := killDst(ca.r)
			if t.relevant[dp] {
				x.aG = t.setInsert(x.aG, dp)
			}
			out = append(out, a.internRel(x))
			continue
		}
		for _, cn := range a.casesOutN(ca.r, src) {
			x := killDst(cn.r)
			if cn.yes && t.relevant[dp] {
				x.nG = t.setInsert(x.nG, dp)
			}
			out = append(out, a.internRel(x))
		}
	}
	return out
}

// storeR is the relational counterpart of storeTrans.
func (a *Analysis) storeR(rr rel, dst, field string, src PathID) []RelID {
	t := a.tab
	ff := t.withField(field)
	vf := a.mustPath(dst, field)
	killA := func(x rel) rel {
		x.aK = t.coMinus(x.aK, ff)
		x.aG = t.setMinus(x.aG, ff)
		return x
	}
	killN := func(x rel) rel {
		x.nK = t.coMinus(x.nK, ff)
		x.nG = t.setMinus(x.nG, ff)
		return x
	}
	var out []RelID
	for _, ca := range a.casesOutA(rr, src) {
		if ca.yes {
			x := killN(killA(ca.r))
			if t.relevant[vf] {
				x.aG = t.setInsert(x.aG, vf)
			}
			out = append(out, a.internRel(x))
			continue
		}
		for _, cn := range a.casesOutN(ca.r, src) {
			if cn.yes {
				x := cn.r
				if t.relevant[vf] {
					x.nG = t.setInsert(x.nG, vf)
				}
				out = append(out, a.internRel(killA(x)))
			} else {
				out = append(out, a.internRel(killN(killA(cn.r))))
			}
		}
	}
	return out
}

// tsCallR is the relational counterpart of tsCallTrans: strong update when
// the receiver must-alias the object, no-op when it must not, and the
// may-alias split otherwise.
func (a *Analysis) tsCallR(rr rel, v PathID, method string) []RelID {
	t := a.tab
	var out []RelID
	for _, ca := range a.casesOutA(rr, v) {
		if ca.yes {
			x := ca.r
			x.iota = t.compose(t.methodTransformer(method), x.iota)
			out = append(out, a.internRel(x))
			continue
		}
		for _, cn := range a.casesOutN(ca.r, v) {
			if cn.yes {
				out = append(out, a.internRel(cn.r))
				continue
			}
			for _, cm := range a.casesMay(cn.r, v) {
				if cm.yes {
					x := cm.r
					x.iota = t.compose(t.errTrans, x.iota)
					out = append(out, a.internRel(x))
				} else {
					out = append(out, a.internRel(cm.r))
				}
			}
		}
	}
	return out
}

// ---- weakest preconditions and composition ----

// wpFormula computes dom-relative wp(r, f): the literal-wise rules of
// Figure 3. ok=false means no incoming state in dom(r) can establish f.
func (a *Analysis) wpFormula(rr rel, f FormulaID) (FormulaID, bool) {
	t := a.tab
	if rr.kind == kConst {
		if t.holds(f, t.absOf(rr.out)) {
			return 0, true // true: the constant output always satisfies f
		}
		return 0, false
	}
	acc := FormulaID(0)
	for _, l := range t.formLits(f) {
		p := l.path()
		var keep literal
		switch l.kind() {
		case litInA:
			switch a.outStatusA(rr, p) {
			case triYes:
				continue
			case triNo:
				return 0, false
			}
			keep = mkLit(p, litInA)
		case litNotInA:
			switch a.outStatusA(rr, p) {
			case triYes:
				return 0, false
			case triNo:
				continue
			}
			keep = mkLit(p, litNotInA)
		case litInN:
			switch a.outStatusN(rr, p) {
			case triYes:
				continue
			case triNo:
				return 0, false
			}
			keep = mkLit(p, litInN)
		case litNotInN:
			switch a.outStatusN(rr, p) {
			case triYes:
				return 0, false
			case triNo:
				continue
			}
			keep = mkLit(p, litNotInN)
		case litMay, litNotMay:
			// Transformers preserve the tracked object, so may-alias facts
			// transfer unchanged — but the precondition may already decide
			// them.
			if t.formHas(rr.pre, l) {
				continue
			}
			if t.formHas(rr.pre, l.negated()) {
				return 0, false
			}
			keep = l
		}
		var ok bool
		acc, ok = t.conj(acc, keep)
		if !ok {
			return 0, false
		}
	}
	return acc, true
}

// WPre implements core.Client: dom(r) ∧ wp(r, post), or nothing when void.
func (a *Analysis) WPre(r RelID, post FormulaID) []FormulaID {
	w, ok := a.wpFormula(a.relOf(r), post)
	if !ok {
		return nil
	}
	f, ok := a.tab.conjFormulas(a.relOf(r).pre, w)
	if !ok {
		return nil
	}
	return []FormulaID{f}
}

// RComp implements core.Client: the rcomp operator of Figure 3. The
// precondition of the second relation is pulled back through the first via
// wp; the state-transformation parts compose per the r;r′ rules.
func (a *Analysis) RComp(r1, r2 RelID) []RelID {
	t := a.tab
	a1, a2 := a.relOf(r1), a.relOf(r2)
	w, ok := a.wpFormula(a1, a2.pre)
	if !ok {
		return nil
	}
	pre, ok := t.conjFormulas(a1.pre, w)
	if !ok {
		return nil
	}
	if a2.kind == kConst {
		return []RelID{a.internRel(rel{kind: kConst, out: a2.out, pre: pre})}
	}
	if a1.kind == kConst {
		st := t.absOf(a1.out)
		out := absState{
			h:  st.h,
			t:  t.applyTrans(a2.iota, st.t),
			a:  t.setUnion(t.coIntersectSet(st.a, a2.aK), a2.aG),
			nc: t.applyMustNot(st.nc, a2.nK, a2.nG),
		}
		return []RelID{a.internRel(rel{kind: kConst, out: t.internAbs(out), pre: pre})}
	}
	x := rel{
		kind: kXform,
		iota: t.compose(a2.iota, a1.iota),
		aK:   t.coIntersect(a1.aK, a2.aK),
		aG:   t.setUnion(t.coIntersectSet(a1.aG, a2.aK), a2.aG),
		nK:   t.coIntersect(a1.nK, a2.nK),
		nG:   t.setUnion(t.coIntersectSet(a1.nG, a2.nK), a2.nG),
		pre:  pre,
	}
	return []RelID{a.internRel(x)}
}
