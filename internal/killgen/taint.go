package killgen

import (
	"sort"
	"strings"

	"swift/internal/ir"
)

// TaintConfig instantiates the kill/gen family as an interprocedural taint
// analysis over the command IR: allocation at a source site taints the
// destination; taint propagates through copies, loads and stores
// (field-insensitively per field name); sanitizer methods clear their
// receiver; sink methods latch a per-site alert fact when called on a
// tainted receiver.
type TaintConfig struct {
	// Sources are allocation-site labels whose objects are tainted.
	Sources []string
	// Sanitizers are method names (TSCall) that clear their receiver's
	// taint.
	Sanitizers []string
	// Sinks are method names (TSCall) that must not see tainted receivers;
	// a violation latches the global ALERT fact.
	Sinks []string
}

// Taint bundles the generic kill/gen analysis with taint-specific queries.
type Taint struct {
	*Analysis
	cfg    TaintConfig
	sinks  map[string]bool
	sanit  map[string]bool
	source map[string]bool
	memo   map[string][]Case
}

// alertFact is the latched fact recording that some sink saw taint.
const alertFact = "ALERT"

// fieldFact names the taint fact of a field (field-insensitive across base
// objects, a common taint abstraction).
func fieldFact(f string) string { return "field:" + f }

// NewTaint builds the taint client for a lowered program. The fact universe
// is derived from the program: one fact per variable, one per stored or
// loaded field name, plus the alert fact.
func NewTaint(prog *ir.Program, cfg TaintConfig) *Taint {
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
		facts = append(facts, fieldFact(f))
	}
	sort.Strings(facts)
	facts = append(facts, alertFact)

	t := &Taint{
		Analysis: NewAnalysis(facts),
		cfg:      cfg,
		sinks:    map[string]bool{},
		sanit:    map[string]bool{},
		source:   map[string]bool{},
		memo:     map[string][]Case{},
	}
	for _, s := range cfg.Sinks {
		t.sinks[s] = true
	}
	for _, s := range cfg.Sanitizers {
		t.sanit[s] = true
	}
	for _, s := range cfg.Sources {
		t.source[s] = true
	}
	t.SetSpec(t.cases)
	// Precompute the case table for every primitive in the program; cases
	// never writes it at runtime.
	for _, p := range prims {
		t.memo[p.Key()] = t.casesOf(p)
	}
	return t
}

// cases is the Spec: the guarded kill/gen cases of each primitive. Every
// primitive of the analyzed program is precomputed into the memo by
// NewTaint; primitives outside it (synthetic test commands) are computed
// fresh on each call rather than stored, keeping the method read-only.
func (t *Taint) cases(c *ir.Prim) []Case {
	if cs, ok := t.memo[c.Key()]; ok {
		return cs
	}
	return t.casesOf(c)
}

// casesOf computes the guarded kill/gen cases of one primitive.
func (t *Taint) casesOf(c *ir.Prim) []Case {
	var out []Case
	switch c.Kind {
	case ir.Nop, ir.Assert:
		out = []Case{t.IdentityCase()}
	case ir.New:
		if t.source[c.Site] {
			out = []Case{t.GenCase(c.Dst)}
		} else {
			out = []Case{t.KillCase(c.Dst)}
		}
	case ir.Copy:
		if c.Dst == c.Src {
			out = []Case{t.IdentityCase()}
		} else {
			out = t.TransferCase(c.Dst, c.Src)
		}
	case ir.Load:
		out = t.TransferCase(c.Dst, fieldFact(c.Field))
	case ir.Store:
		// Weak update: the field fact accumulates taint.
		out = t.CondGenCase(c.Src, []string{fieldFact(c.Field)})
	case ir.TSCall:
		switch {
		case t.sanit[c.Method]:
			out = []Case{t.KillCase(c.Dst)}
		case t.sinks[c.Method]:
			out = t.CondGenCase(c.Dst, []string{alertFact})
		default:
			out = []Case{t.IdentityCase()}
		}
	case ir.Kill:
		out = []Case{t.KillCase(c.Dst)}
	default:
		out = []Case{t.IdentityCase()}
	}
	return out
}

// Initial returns the entry state: nothing tainted.
func (t *Taint) Initial() string { return t.State(make(Bits, t.nwords)) }

// Alerted reports whether the state has latched a sink violation.
func (t *Taint) Alerted(s string) bool {
	return t.StateBits(s).has(t.index[alertFact])
}

// TaintedVars lists the tainted variable facts of a state (excluding field
// facts and the alert fact), sorted.
func (t *Taint) TaintedVars(s string) []string {
	b := t.StateBits(s)
	var out []string
	for i := 0; i < t.nfacts; i++ {
		if !b.has(i) {
			continue
		}
		name := t.names[i]
		if name == alertFact || strings.HasPrefix(name, "field:") {
			continue
		}
		out = append(out, name)
	}
	return out
}
