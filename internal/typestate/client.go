package typestate

import (
	"fmt"
	"sort"

	"swift/internal/ir"
)

// Oracle answers global may-alias queries: may the access path (base,
// field) point to an object allocated at site? field is empty for plain
// variables. Answering true when unsure is the sound default; the pointer
// package provides a precise implementation backed by Andersen's analysis.
type Oracle interface {
	MayAlias(base, field, site string) bool
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(base, field, site string) bool

// MayAlias implements Oracle.
func (f OracleFunc) MayAlias(base, field, site string) bool { return f(base, field, site) }

// Analysis is the type-state instantiation of the SWIFT framework for one
// program: it implements core.Client[AbsID, RelID, FormulaID]. An
// Analysis is not safe for concurrent use: its interners (intern.go) and
// memos are plain maps. Concurrent sliced runs each get a slice clone
// (slice.go), which shares only the tables frozen at construction.
type Analysis struct {
	tab      *tables
	prog     *ir.Program
	track    map[string]*Property // site label → property
	initial  AbsID
	emptySet SetID

	// slice restricts fresh-tuple spawning to one allocation site: a
	// negative value (the monolithic analysis) spawns at every tracked
	// site, a non-negative value only at that site (see slice.go). The
	// h=0 bootstrap flow is identical either way.
	slice SiteID

	// relation interning
	rels  *interner[rel]
	idRel RelID

	// compiled transfer cache (compile.go), lazily populated
	compiled map[*ir.Prim]func(AbsID, []AbsID) []AbsID
}

// NewAnalysis prepares a type-state analysis of prog. track maps allocation
// site labels to the property governing objects allocated there; sites
// absent from track are untracked (their allocations update alias
// information of tracked objects but spawn no tuples). oracle supplies
// may-alias facts; nil means "may alias everything" (sound but imprecise).
func NewAnalysis(prog *ir.Program, track map[string]*Property, oracle Oracle) (*Analysis, error) {
	for site, p := range track {
		if p == nil {
			return nil, fmt.Errorf("typestate: site %q tracked by nil property", site)
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	a := &Analysis{
		prog:  prog,
		track: track,
		slice: -1,
		tab: &tables{
			paths:    newInterner[path](),
			rootedOf: map[string][]PathID{},
			fieldOf:  map[string][]PathID{},
			siteIDs:  map[string]SiteID{},
		},
	}
	a.resetMutable()
	t := a.tab
	a.buildProperties()
	a.buildUniverse()
	a.buildOracle(oracle)
	// The alias sets only ever track relevant paths: restrict the
	// rooted/field indexes accordingly, so bookkeeping for irrelevant
	// variables neither splits relational cases nor fragments abstract
	// states. (The path universe itself is restricted in initMutable's
	// univSet.)
	for v, ids := range t.rootedOf {
		t.rootedOf[v] = filterRelevant(t, ids)
	}
	for f, ids := range t.fieldOf {
		t.fieldOf[f] = filterRelevant(t, ids)
	}
	a.initMutable()
	return a, nil
}

// resetMutable gives the instance empty mutable interners and memos, the
// tables that grow during a run; initMutable then seeds them.
func (a *Analysis) resetMutable() {
	t := a.tab
	t.sets = newSeqInterner(hashSeq[PathID])
	t.trans = newSeqInterner(hashSeq[GState])
	t.forms = newSeqInterner(hashSeq[literal])
	t.abs = newInterner[absState]()
	t.methodTrans = map[string]TransID{}
	t.composeMemo = map[[2]TransID]TransID{}
	t.setOpMemo = map[uint64]SetID{}
	a.rels = newInterner[rel]()
}

// initMutable seeds the instance's fresh mutable interners from the frozen
// construction tables, in a fixed order. Slice clones (slice.go) replay
// exactly this order into their own fresh interners, so every slice's
// ground IDs — transformer 0/1, formula 0, set 0/1, abstract state 0,
// relation 0 — coincide with a fresh monolithic pipeline's, which is what
// makes per-slice results independent of scheduling.
func (a *Analysis) initMutable() {
	t := a.tab
	// Identity and all-error transformers over the frozen state layout.
	id := make([]GState, t.numG)
	errv := make([]GState, t.numG)
	for g := 0; g < t.numG; g++ {
		id[g] = GState(g)
		if pi := t.propOfG[g]; pi >= 0 {
			errv[g] = t.propBase[pi] + GState(t.props[pi].Error)
		} else {
			errv[g] = GState(g)
		}
	}
	t.idTrans = t.internTrans(id)
	t.errTrans = t.internTrans(errv)

	// Formula 0 is true; set 0 is empty; set 1 is the relevant universe.
	t.internFormula(nil)
	a.emptySet = t.internSet(nil)
	var all []PathID
	for i := 0; i < t.numPaths(); i++ {
		if t.relevant[i] {
			all = append(all, PathID(i))
		}
	}
	t.univSet = t.internSet(all)

	// The bootstrap abstract state: no object tracked yet, and nothing
	// known must-not-alias the (nonexistent) object.
	a.initial = t.internAbs(absState{h: 0, t: 0, a: a.emptySet, nc: t.univSet})

	// The identity relation id#.
	a.idRel = a.internRel(rel{
		kind: kXform,
		iota: t.idTrans,
		aK:   t.coUniverse(), aG: a.emptySet,
		nK: t.coUniverse(), nG: a.emptySet,
		pre: 0,
	})
}

// spawnsAt reports whether an allocation at the site spawns a fresh
// tracked tuple in this analysis instance: the site must be tracked, and a
// slice instance additionally restricts spawning to its own site. Trans,
// RTrans and CompileTrans all gate on it, so the three transfer forms stay
// coherent (C1) within a slice.
func (a *Analysis) spawnsAt(site SiteID) bool {
	return a.tab.sitePropOf[site] >= 0 && (a.slice < 0 || a.slice == site)
}

// buildProperties lays out the global state space: None, then each tracked
// property's states in sorted property-name order.
func (a *Analysis) buildProperties() {
	t := a.tab
	seen := map[*Property]bool{}
	var props []*Property
	for _, p := range a.track {
		if !seen[p] {
			seen[p] = true
			props = append(props, p)
		}
	}
	sort.Slice(props, func(i, j int) bool { return props[i].Name < props[j].Name })
	t.props = props
	t.numG = 1
	t.propOfG = []int{-1}
	t.localOfG = []State{0}
	t.isErrorG = []bool{false}
	for pi, p := range props {
		t.propBase = append(t.propBase, GState(t.numG))
		for si := range p.States {
			t.propOfG = append(t.propOfG, pi)
			t.localOfG = append(t.localOfG, State(si))
			t.isErrorG = append(t.isErrorG, State(si) == p.Error)
			t.numG++
		}
	}
	// The identity and all-error transformers over this layout are
	// interned per instance by initMutable.
}

// buildUniverse scans the program and interns the fixed path and site
// universes: all variables, the one-field paths mentioned by loads and
// stores, the "<none>" bootstrap site and all allocation sites.
func (a *Analysis) buildUniverse() {
	t := a.tab
	vars := map[string]bool{}
	fieldPaths := map[path]bool{}
	sites := map[string]bool{}
	var walk func(c ir.Cmd)
	walk = func(c ir.Cmd) {
		switch c := c.(type) {
		case *ir.Prim:
			if c.Dst != "" {
				vars[c.Dst] = true
			}
			if c.Src != "" {
				vars[c.Src] = true
			}
			switch c.Kind {
			case ir.Load:
				fieldPaths[path{base: c.Src, field: c.Field}] = true
			case ir.Store:
				fieldPaths[path{base: c.Dst, field: c.Field}] = true
			case ir.New:
				sites[c.Site] = true
			}
		case *ir.Seq:
			for _, s := range c.Cmds {
				walk(s)
			}
		case *ir.Choice:
			for _, alt := range c.Alts {
				walk(alt)
			}
		case *ir.Loop:
			walk(c.Body)
		}
	}
	for _, name := range a.prog.ProcNames() {
		walk(a.prog.Procs[name].Body)
	}

	// Intern paths: variables first, then field paths, each sorted.
	allVars := make([]string, 0, len(vars))
	for v := range vars {
		allVars = append(allVars, v)
	}
	sort.Strings(allVars)
	for _, v := range allVars {
		t.internPath(path{base: v})
	}
	fps := make([]path, 0, len(fieldPaths))
	for p := range fieldPaths {
		fps = append(fps, p)
	}
	sort.Slice(fps, func(i, j int) bool {
		if fps[i].base != fps[j].base {
			return fps[i].base < fps[j].base
		}
		return fps[i].field < fps[j].field
	})
	for _, p := range fps {
		t.internPath(p)
	}

	// rootedOf and fieldOf indexes (path IDs are already in sorted order of
	// interning, but collect then sort to be safe).
	for id := 0; id < t.numPaths(); id++ {
		p := t.pathAt(PathID(id))
		t.rootedOf[p.base] = append(t.rootedOf[p.base], PathID(id))
		if p.field != "" {
			t.fieldOf[p.field] = append(t.fieldOf[p.field], PathID(id))
		}
	}
	for _, ids := range t.rootedOf {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	for _, ids := range t.fieldOf {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}

	// Sites: "<none>" first, then program sites sorted.
	t.internSite("<none>", -1)
	siteNames := make([]string, 0, len(sites))
	for s := range sites {
		siteNames = append(siteNames, s)
	}
	sort.Strings(siteNames)
	for _, s := range siteNames {
		pi := -1
		if p, ok := a.track[s]; ok {
			for i, q := range t.props {
				if q == p {
					pi = i
					break
				}
			}
		}
		t.internSite(s, pi)
	}
}

// buildOracle materializes the may-alias matrix over the path and site
// universes. The bootstrap site aliases nothing.
func (a *Analysis) buildOracle(oracle Oracle) {
	t := a.tab
	t.mayAlias = make([][]bool, t.numPaths())
	t.relevant = make([]bool, t.numPaths())
	for pid := 0; pid < t.numPaths(); pid++ {
		p := t.pathAt(PathID(pid))
		row := make([]bool, len(t.sites))
		for sid := 1; sid < len(t.sites); sid++ {
			if oracle == nil {
				row[sid] = true
			} else {
				row[sid] = oracle.MayAlias(p.base, p.field, t.sites[sid])
			}
			if row[sid] && t.sitePropOf[sid] >= 0 {
				t.relevant[pid] = true
			}
		}
		t.mayAlias[pid] = row
	}
}

// filterRelevant keeps the relevant paths of a sorted slice.
func filterRelevant(t *tables, ids []PathID) []PathID {
	out := ids[:0]
	for _, id := range ids {
		if t.relevant[id] {
			out = append(out, id)
		}
	}
	return out
}

// mustPath returns the PathID of a path that is guaranteed to be in the
// universe (it appears in the program text being analyzed).
func (a *Analysis) mustPath(base, field string) PathID {
	id, ok := a.tab.paths.lookup(path{base: base, field: field})
	if !ok {
		panic(fmt.Sprintf("typestate: path %s.%s not in universe", base, field))
	}
	return PathID(id)
}

// InitialState returns the bootstrap abstract state (no tracked object).
func (a *Analysis) InitialState() AbsID { return a.initial }

// MakeState builds an abstract state from surface syntax, for tests and
// examples: site is an allocation-site label (or "<none>" with state ""),
// state names an FSM state of the site's property, and must/mustNot list
// access paths ("v" or "v.f") that must appear in the program text.
func (a *Analysis) MakeState(site, state string, must, mustNot []string) (AbsID, error) {
	t := a.tab
	sid, ok := t.siteIDs[site]
	if !ok {
		return 0, fmt.Errorf("typestate: unknown site %q", site)
	}
	g := GState(0)
	if pi := t.sitePropOf[sid]; pi >= 0 {
		p := t.props[pi]
		found := false
		for i, name := range p.States {
			if name == state {
				g = t.propBase[pi] + GState(i)
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("typestate: property %q has no state %q", p.Name, state)
		}
	} else if state != "" {
		return 0, fmt.Errorf("typestate: site %q is untracked; state must be empty", site)
	}
	toSet := func(paths []string) (SetID, error) {
		var ids []PathID
		for _, s := range paths {
			base, field := s, ""
			for i := 0; i < len(s); i++ {
				if s[i] == '.' {
					base, field = s[:i], s[i+1:]
					break
				}
			}
			id, ok := t.paths.lookup(path{base: base, field: field})
			if !ok {
				return 0, fmt.Errorf("typestate: path %q not in program universe", s)
			}
			ids = append(ids, PathID(id))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return t.internSet(ids), nil
	}
	aSet, err := toSet(must)
	if err != nil {
		return 0, err
	}
	nSet, err := toSet(mustNot)
	if err != nil {
		return 0, err
	}
	nc := t.setMinus(t.univSet, t.setElems(nSet))
	return t.internAbs(absState{h: sid, t: g, a: aSet, nc: nc}), nil
}

// IsError reports whether the abstract state's type-state is a property's
// error state.
func (a *Analysis) IsError(s AbsID) bool { return a.tab.isErrorG[a.tab.absOf(s).t] }

// Site returns the allocation-site label of the state's tracked object, or
// "<none>" for the bootstrap state.
func (a *Analysis) Site(s AbsID) string { return a.tab.sites[a.tab.absOf(s).h] }

// StateName returns the FSM state name of the state's tracked object, or
// "none" for the bootstrap state.
func (a *Analysis) StateName(s AbsID) string {
	t := a.tab
	st := t.absOf(s)
	if pi := t.propOfG[st.t]; pi >= 0 {
		return t.props[pi].States[t.localOfG[st.t]]
	}
	return "none"
}

// TrackedSites returns the sorted labels of every tracked allocation site
// appearing in the program — exactly the slice universe of Slices(), minus
// the degenerate "<none>" bootstrap slice of untracked programs. Query
// validation and seeded query generation both draw from it.
func (a *Analysis) TrackedSites() []string {
	t := a.tab
	var out []string
	for sid := 1; sid < len(t.sites); sid++ {
		if t.sitePropOf[sid] >= 0 {
			out = append(out, t.sites[sid])
		}
	}
	return out
}

// SiteStates returns the FSM state names of the property tracking the
// site, in the property's own state order (index 0 is the initial state).
// Untracked and unknown sites are errors: they have no property states.
func (a *Analysis) SiteStates(site string) ([]string, error) {
	t := a.tab
	sid, ok := t.siteIDs[site]
	if !ok {
		return nil, fmt.Errorf("typestate: unknown site %q", site)
	}
	pi := t.sitePropOf[sid]
	if pi < 0 {
		return nil, fmt.Errorf("typestate: site %q is untracked and has no property states", site)
	}
	return append([]string(nil), t.props[pi].States...), nil
}

// SiteErrorState returns the error-state name of the property tracking the
// site.
func (a *Analysis) SiteErrorState(site string) (string, error) {
	states, err := a.SiteStates(site)
	if err != nil {
		return "", err
	}
	sid := a.tab.siteIDs[site]
	return states[a.tab.props[a.tab.sitePropOf[sid]].Error], nil
}

// ErrorSites returns the sorted distinct site labels among error states.
func (a *Analysis) ErrorSites(states []AbsID) []string {
	set := map[string]bool{}
	for _, s := range states {
		if a.IsError(s) {
			set[a.Site(s)] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// StateString renders an abstract state as (site, state, {must}, {mustNot}).
// Since must-not sets are co-finite, a large one prints in complement form
// V∖{…}.
func (a *Analysis) StateString(s AbsID) string {
	t := a.tab
	st := t.absOf(s)
	name := "none"
	if pi := t.propOfG[st.t]; pi >= 0 {
		name = t.props[pi].States[t.localOfG[st.t]]
	}
	nStr := "V∖{" + a.pathSetString(st.nc) + "}"
	if n := t.setMinus(t.univSet, t.setElems(st.nc)); len(t.setElems(n)) <= 4 {
		nStr = "{" + a.pathSetString(n) + "}"
	}
	return fmt.Sprintf("(%s, %s, {%s}, %s)",
		t.sites[st.h], name, a.pathSetString(st.a), nStr)
}

func (a *Analysis) pathSetString(s SetID) string {
	elems := a.tab.setElems(s)
	out := ""
	for i, p := range elems {
		if i > 0 {
			out += ","
		}
		out += a.tab.pathString(p)
	}
	return out
}

// FormulaString renders a precondition for diagnostics.
func (a *Analysis) FormulaString(f FormulaID) string { return a.tab.formulaString(f) }

// PreHolds implements core.Client.
func (a *Analysis) PreHolds(pre FormulaID, s AbsID) bool {
	return a.tab.holds(pre, a.tab.absOf(s))
}

// PreImplies implements core.Client.
func (a *Analysis) PreImplies(p, q FormulaID) bool { return a.tab.implies(p, q) }

// Identity implements core.Client: it returns id#.
func (a *Analysis) Identity() RelID { return a.idRel }

// PathCount and SiteCount expose universe sizes for reporting.
func (a *Analysis) PathCount() int { return a.tab.numPaths() }

// SiteCount returns the number of allocation sites including "<none>".
func (a *Analysis) SiteCount() int { return len(a.tab.sites) }

// StateCount returns how many distinct abstract states have been interned.
func (a *Analysis) StateCount() int { return a.tab.abs.size() }

// RelCount returns how many distinct abstract relations have been interned.
func (a *Analysis) RelCount() int { return a.rels.size() }
