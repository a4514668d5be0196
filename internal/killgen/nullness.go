package killgen

import (
	"sort"
	"strings"

	"swift/internal/ir"
)

// Nullness is a second kill/gen instantiation: a definite-assignment
// analysis that flags method calls through possibly-unassigned (null)
// references. A variable fact means "definitely refers to an object";
// allocation establishes it, copies transfer it, field loads establish it
// only if the field fact says every stored value was definitely assigned
// (a field-insensitive merge, like the taint client), and a type-state
// call through a variable lacking the fact latches the NULLALERT fact.
//
// Like the taint client, only the top-down guarded kill/gen cases are
// written here; the bottom-up relational side is synthesized by the
// generic Analysis per Section 5.2 of the paper.
type Nullness struct {
	*Analysis
	memo map[string][]Case
}

// nullAlertFact is latched when a call through a possibly-null reference
// is observed.
const nullAlertFact = "NULLALERT"

// nnFieldFact is the per-field "all stored values definitely assigned"
// fact. It starts set (vacuously true before any store), so loads from a
// field only ever written with assigned values are assigned; a store of a
// possibly-null value clears it. Loads from never-written fields are thus
// treated optimistically — catching those would need per-field
// written-at-all facts, which this demonstration client omits.
func nnFieldFact(f string) string { return "nnfield:" + f }

// NewNullness builds the definite-assignment client for a lowered program.
func NewNullness(prog *ir.Program) *Nullness {
	vars := map[string]bool{}
	fields := map[string]bool{}
	var prims []*ir.Prim
	var walk func(c ir.Cmd)
	walk = func(c ir.Cmd) {
		switch c := c.(type) {
		case *ir.Prim:
			prims = append(prims, c)
			if c.Dst != "" {
				vars[c.Dst] = true
			}
			if c.Src != "" {
				vars[c.Src] = true
			}
			if c.Field != "" {
				fields[c.Field] = true
			}
		case *ir.Seq:
			for _, s := range c.Cmds {
				walk(s)
			}
		case *ir.Choice:
			for _, s := range c.Alts {
				walk(s)
			}
		case *ir.Loop:
			walk(c.Body)
		}
	}
	for _, name := range prog.ProcNames() {
		walk(prog.Procs[name].Body)
	}
	var facts []string
	for v := range vars {
		facts = append(facts, v)
	}
	for f := range fields {
		facts = append(facts, nnFieldFact(f))
	}
	sort.Strings(facts)
	facts = append(facts, nullAlertFact)
	n := &Nullness{Analysis: NewAnalysis(facts), memo: map[string][]Case{}}
	n.SetSpec(n.cases)
	// Precompute the case table, as in NewTaint.
	for _, p := range prims {
		n.memo[p.Key()] = n.casesOf(p)
	}
	return n
}

// cases is the Spec; see Taint.cases for the read-only memo contract.
func (n *Nullness) cases(c *ir.Prim) []Case {
	if cs, ok := n.memo[c.Key()]; ok {
		return cs
	}
	return n.casesOf(c)
}

func (n *Nullness) casesOf(c *ir.Prim) []Case {
	var out []Case
	switch c.Kind {
	case ir.New:
		out = []Case{n.GenCase(c.Dst)}
	case ir.Copy:
		if c.Dst == c.Src {
			out = []Case{n.IdentityCase()}
		} else {
			out = n.TransferCase(c.Dst, c.Src)
		}
	case ir.Load:
		// The loaded value is definitely assigned only if every value ever
		// stored into the field was — and loading through a possibly-null
		// base is itself an alert.
		out = appendGuardAlert(n.Analysis, n.TransferCase(c.Dst, nnFieldFact(c.Field)), c.Src)
	case ir.Store:
		// The field keeps its "all assigned" fact only while every stored
		// value is assigned; storing through a possibly-null base alerts.
		z := make(Bits, n.nwords)
		keepNoField := n.Full()
		i := n.index[nnFieldFact(c.Field)]
		keepNoField[i>>6] &^= 1 << (uint(i) & 63)
		out = appendGuardAlert(n.Analysis, []Case{
			{Pos: n.MakeBits(c.Src), Neg: z, Keep: n.Full(), Gen: z},
			{Pos: z, Neg: n.MakeBits(c.Src), Keep: keepNoField, Gen: z},
		}, c.Dst)
	case ir.TSCall:
		out = appendGuardAlert(n.Analysis, []Case{n.IdentityCase()}, c.Dst)
	case ir.Kill:
		out = []Case{n.KillCase(c.Dst)}
	default:
		out = []Case{n.IdentityCase()}
	}
	return out
}

// appendGuardAlert splits every case on whether the dereferenced base is
// definitely assigned, latching the alert when it is not.
func appendGuardAlert(a *Analysis, cases []Case, base string) []Case {
	baseBit := a.MakeBits(base)
	alert := a.MakeBits(nullAlertFact)
	var out []Case
	for _, c := range cases {
		// base assigned: original effect.
		ok := c
		ok.Pos = orBits(c.Pos, baseBit)
		if !disjoint(ok.Pos, c.Neg) {
			continue
		}
		out = append(out, ok)
	}
	for _, c := range cases {
		// base possibly null: original effect plus the alert.
		bad := c
		bad.Neg = orBits(c.Neg, baseBit)
		if !disjoint(c.Pos, bad.Neg) {
			continue
		}
		bad.Gen = orBits(c.Gen, alert)
		out = append(out, bad)
	}
	return out
}

// orBits returns a fresh union of two bit vectors.
func orBits(a, b Bits) Bits {
	out := make(Bits, len(a))
	for i := range a {
		out[i] = a[i] | b[i]
	}
	return out
}

// Initial returns the entry state: no variable assigned, every field fact
// vacuously set.
func (n *Nullness) Initial() string {
	b := make(Bits, n.nwords)
	for i, name := range n.names {
		if strings.HasPrefix(name, "nnfield:") {
			b.set(i)
		}
	}
	return n.State(b)
}

// NullAlerted reports whether the state latched a possibly-null call.
func (n *Nullness) NullAlerted(s string) bool {
	return n.StateBits(s).has(n.index[nullAlertFact])
}

// AssignedVars lists the definitely-assigned variable facts of a state.
func (n *Nullness) AssignedVars(s string) []string {
	b := n.StateBits(s)
	var out []string
	for i := 0; i < n.nfacts; i++ {
		if !b.has(i) {
			continue
		}
		name := n.names[i]
		if name == nullAlertFact || strings.HasPrefix(name, "nnfield:") {
			continue
		}
		out = append(out, name)
	}
	return out
}
