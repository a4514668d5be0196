// Package killgen implements the kill/gen analysis family of Section 5.2
// of the paper, together with the automatic synthesis of a bottom-up
// analysis from a top-down one that the section describes.
//
// A kill/gen analysis is specified per primitive command as a list of
// guarded cases: a case fires when the incoming fact set contains all of
// Pos and none of Neg, and transforms the fact set s to (s ∧ Keep) ∨ Gen.
// From that top-down description alone, this package derives the entire
// bottom-up side — abstract relations, rtrans, rcomp, wp — generically:
// relations are guarded kill/gen transformers themselves, and guards are
// pulled back through Keep/Gen algebraically. Conditions C1–C3 hold by
// construction (and are property-tested).
//
// The resulting client plugs into the SWIFT framework exactly like the
// type-state client, demonstrating the framework's genericity; package-
// level taint analysis (taint.go) is the concrete instantiation.
package killgen

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"swift/internal/ir"
)

// Bits is a fixed-width bit vector of analysis facts. All Bits values of
// one Analysis have the same word count.
type Bits []uint64

// has reports whether fact i is set.
func (b Bits) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// set sets fact i.
func (b Bits) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// containsAll reports a ⊇ b.
func containsAll(a, b Bits) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// disjoint reports a ∩ b = ∅.
func disjoint(a, b Bits) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return false
		}
	}
	return true
}

// Case is one guarded kill/gen case of a transfer function: if the incoming
// fact set contains all of Pos and none of Neg, the outgoing fact set is
// (in ∧ Keep) ∨ Gen.
type Case struct {
	Pos  Bits
	Neg  Bits
	Keep Bits
	Gen  Bits
}

// Spec supplies the guarded cases of each primitive command — the complete
// top-down description of a kill/gen analysis.
type Spec func(c *ir.Prim) []Case

// Analysis implements core.Client for a kill/gen analysis. States,
// relations and preconditions are encoded as canonical byte strings (they
// need a total order for the framework's canonical sets):
//
//	S = facts,  R = (Pos, Neg, Keep, Gen),  P = (Pos, Neg).
type Analysis struct {
	nwords int
	nfacts int
	names  []string
	index  map[string]int
	spec   Spec
}

// NewAnalysis creates a kill/gen analysis over the given fact names with
// the given per-command specification. The Spec may capture the returned
// Analysis to build Bits values (via MakeBits) lazily.
func NewAnalysis(facts []string) *Analysis {
	a := &Analysis{
		nfacts: len(facts),
		nwords: (len(facts) + 63) / 64,
		names:  append([]string(nil), facts...),
		index:  map[string]int{},
	}
	if a.nwords == 0 {
		a.nwords = 1
	}
	for i, f := range facts {
		a.index[f] = i
	}
	return a
}

// SetSpec installs the transfer-function specification.
func (a *Analysis) SetSpec(s Spec) { a.spec = s }

// NumFacts returns the number of facts.
func (a *Analysis) NumFacts() int { return a.nfacts }

// FactNames returns the fact names in index order.
func (a *Analysis) FactNames() []string { return a.names }

// MakeBits builds a Bits value with the named facts set; unknown names
// panic (the spec is trusted code).
func (a *Analysis) MakeBits(facts ...string) Bits {
	b := make(Bits, a.nwords)
	for _, f := range facts {
		i, ok := a.index[f]
		if !ok {
			panic(fmt.Sprintf("killgen: unknown fact %q", f))
		}
		b.set(i)
	}
	return b
}

// Full returns the all-ones fact set (the identity Keep mask).
func (a *Analysis) Full() Bits {
	b := make(Bits, a.nwords)
	for i := 0; i < a.nfacts; i++ {
		b.set(i)
	}
	return b
}

// ---- encodings ----

func (a *Analysis) encBits(bs ...Bits) string {
	buf := make([]byte, 0, 8*a.nwords*len(bs))
	var w [8]byte
	for _, b := range bs {
		for _, word := range b {
			binary.LittleEndian.PutUint64(w[:], word)
			buf = append(buf, w[:]...)
		}
	}
	return string(buf)
}

func (a *Analysis) decBits(s string, n int) []Bits {
	out := make([]Bits, n)
	off := 0
	for i := range out {
		b := make(Bits, a.nwords)
		for w := range b {
			b[w] = binary.LittleEndian.Uint64([]byte(s[off : off+8]))
			off += 8
		}
		out[i] = b
	}
	return out
}

// State encodes a fact set as a framework state.
func (a *Analysis) State(b Bits) string { return a.encBits(b) }

// StateBits decodes a framework state.
func (a *Analysis) StateBits(s string) Bits { return a.decBits(s, 1)[0] }

// StateString renders a state's facts for diagnostics.
func (a *Analysis) StateString(s string) string {
	b := a.StateBits(s)
	var facts []string
	for i := 0; i < a.nfacts; i++ {
		if b.has(i) {
			facts = append(facts, a.names[i])
		}
	}
	sort.Strings(facts)
	return "{" + strings.Join(facts, ",") + "}"
}

func (a *Analysis) relOf(pos, neg, keep, gen Bits) string { return a.encBits(pos, neg, keep, gen) }

// ---- core.Client implementation (S = R-encoded strings) ----

// Trans implements core.Client: every case whose guard matches fires.
func (a *Analysis) Trans(c *ir.Prim, s string) []string {
	in := a.StateBits(s)
	var out []string
	for _, cs := range a.spec(c) {
		if !containsAll(in, cs.Pos) || !disjoint(in, cs.Neg) {
			continue
		}
		res := make(Bits, a.nwords)
		for w := range res {
			res[w] = (in[w] & cs.Keep[w]) | cs.Gen[w]
		}
		out = append(out, a.State(res))
	}
	return out
}

// Identity implements core.Client.
func (a *Analysis) Identity() string {
	zero := make(Bits, a.nwords)
	return a.relOf(zero, zero, a.Full(), zero)
}

// RTrans implements core.Client: compose every feasible case of the
// command onto the relation, pulling the case guard back through the
// relation's Keep/Gen masks.
func (a *Analysis) RTrans(c *ir.Prim, r string) []string {
	parts := a.decBits(r, 4)
	pos, neg, keep, gen := parts[0], parts[1], parts[2], parts[3]
	var out []string
	for _, cs := range a.spec(c) {
		comp, ok := a.composeCase(pos, neg, keep, gen, cs)
		if ok {
			out = append(out, comp)
		}
	}
	return out
}

// composeCase computes (r ; case) with guard weakest-precondition, or
// ok=false when infeasible. For each fact f required positive by the case:
// if r generates f the requirement is discharged; if r keeps f it becomes a
// requirement on r's input; otherwise the composition is void — and dually
// for negative requirements.
func (a *Analysis) composeCase(pos, neg, keep, gen Bits, cs Case) (string, bool) {
	pos2 := append(Bits(nil), pos...)
	neg2 := append(Bits(nil), neg...)
	for w := range pos2 {
		needPos := cs.Pos[w]
		if needPos&^(gen[w]|keep[w]) != 0 {
			return "", false // required fact that r can neither keep nor gen
		}
		pos2[w] |= needPos &^ gen[w] // keep-routed requirements fall on the input
		needNeg := cs.Neg[w]
		if needNeg&gen[w] != 0 {
			return "", false // r always generates a fact the case forbids
		}
		neg2[w] |= needNeg & keep[w]
	}
	for w := range pos2 {
		if pos2[w]&neg2[w] != 0 {
			return "", false
		}
	}
	keep2 := make(Bits, a.nwords)
	gen2 := make(Bits, a.nwords)
	for w := range keep2 {
		keep2[w] = keep[w] & cs.Keep[w]
		gen2[w] = (gen[w] & cs.Keep[w]) | cs.Gen[w]
	}
	return a.relOf(pos2, neg2, keep2, gen2), true
}

// RComp implements core.Client.
func (a *Analysis) RComp(r1, r2 string) []string {
	p1 := a.decBits(r1, 4)
	p2 := a.decBits(r2, 4)
	comp, ok := a.composeCase(p1[0], p1[1], p1[2], p1[3],
		Case{Pos: p2[0], Neg: p2[1], Keep: p2[2], Gen: p2[3]})
	if !ok {
		return nil
	}
	return []string{comp}
}

// Applies implements core.Client.
func (a *Analysis) Applies(r string, s string) bool {
	parts := a.decBits(r, 4)
	in := a.StateBits(s)
	return containsAll(in, parts[0]) && disjoint(in, parts[1])
}

// Apply implements core.Client.
func (a *Analysis) Apply(r string, s string) []string {
	parts := a.decBits(r, 4)
	in := a.StateBits(s)
	res := make(Bits, a.nwords)
	for w := range res {
		res[w] = (in[w] & parts[2][w]) | parts[3][w]
	}
	return []string{a.State(res)}
}

// PreOf implements core.Client: the guard (Pos, Neg).
func (a *Analysis) PreOf(r string) string {
	parts := a.decBits(r, 4)
	return a.encBits(parts[0], parts[1])
}

// PreHolds implements core.Client.
func (a *Analysis) PreHolds(pre string, s string) bool {
	parts := a.decBits(pre, 2)
	in := a.StateBits(s)
	return containsAll(in, parts[0]) && disjoint(in, parts[1])
}

// PreImplies implements core.Client: guard p entails guard q when p's
// requirements include q's.
func (a *Analysis) PreImplies(p, q string) bool {
	pp := a.decBits(p, 2)
	qq := a.decBits(q, 2)
	return containsAll(pp[0], qq[0]) && containsAll(pp[1], qq[1])
}

// Reduce implements core.Client: drop relations with the same Keep/Gen
// masks whose guard is strictly stronger than another's.
func (a *Analysis) Reduce(rels []string) []string {
	if len(rels) < 2 {
		return rels
	}
	guardLen := 2 * 8 * a.nwords
	groups := map[string][]string{}
	var order []string
	for _, r := range rels {
		k := r[guardLen:]
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]string, 0, len(rels))
	for _, k := range order {
		g := groups[k]
		for _, r := range g {
			rr := a.decBits(r, 2)
			dominated := false
			for _, s := range g {
				if s == r {
					continue
				}
				ss := a.decBits(s, 2)
				if containsAll(rr[0], ss[0]) && containsAll(rr[1], ss[1]) &&
					(a.encBits(rr[0], rr[1]) != a.encBits(ss[0], ss[1])) {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, r)
			}
		}
	}
	return out
}

// WPre implements core.Client: pull a guard back through a relation.
func (a *Analysis) WPre(r string, post string) []string {
	parts := a.decBits(r, 4)
	pq := a.decBits(post, 2)
	comp, ok := a.composeCase(parts[0], parts[1], parts[2], parts[3],
		Case{Pos: pq[0], Neg: pq[1], Keep: a.Full(), Gen: make(Bits, a.nwords)})
	if !ok {
		return nil
	}
	cp := a.decBits(comp, 4)
	return []string{a.encBits(cp[0], cp[1])}
}

// ---- common case constructors ----

// IdentityCase returns the unguarded no-op case.
func (a *Analysis) IdentityCase() Case {
	z := make(Bits, a.nwords)
	return Case{Pos: z, Neg: z, Keep: a.Full(), Gen: z}
}

// TransferCase returns the two cases of "dst gets the fact-status of src":
// one guarded on src being set (gen dst), one on src being clear (kill
// dst). This is the conditional kill/gen pattern of Section 5.2.
func (a *Analysis) TransferCase(dst, src string) []Case {
	z := make(Bits, a.nwords)
	keepNoDst := a.Full()
	keepNoDst[a.index[dst]>>6] &^= 1 << (uint(a.index[dst]) & 63)
	return []Case{
		{Pos: a.MakeBits(src), Neg: z, Keep: a.Full(), Gen: a.MakeBits(dst)},
		{Pos: z, Neg: a.MakeBits(src), Keep: keepNoDst, Gen: z},
	}
}

// GenCase unconditionally generates the facts.
func (a *Analysis) GenCase(facts ...string) Case {
	z := make(Bits, a.nwords)
	return Case{Pos: z, Neg: z, Keep: a.Full(), Gen: a.MakeBits(facts...)}
}

// KillCase unconditionally kills the facts.
func (a *Analysis) KillCase(facts ...string) Case {
	z := make(Bits, a.nwords)
	keep := a.Full()
	for _, f := range facts {
		i := a.index[f]
		keep[i>>6] &^= 1 << (uint(i) & 63)
	}
	return Case{Pos: z, Neg: z, Keep: keep, Gen: z}
}

// CondGenCase generates the gen facts when the single guard fact is
// present, and is an identity otherwise. The guard is a single fact so the
// two cases partition the state space exactly.
func (a *Analysis) CondGenCase(pos string, gen []string) []Case {
	z := make(Bits, a.nwords)
	return []Case{
		{Pos: a.MakeBits(pos), Neg: z, Keep: a.Full(), Gen: a.MakeBits(gen...)},
		{Pos: z, Neg: a.MakeBits(pos), Keep: a.Full(), Gen: z},
	}
}
