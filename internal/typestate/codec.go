package typestate

// This file makes the type-state client's artifacts serializable for the
// persistent summary store (internal/store):
//
//   - FrozenDigest fingerprints everything NewAnalysis freezes before any
//     solver runs: the path and site universes, the property layout, the
//     may-alias oracle matrix and the relevance filter. Two Analysis
//     instances with equal digests assign identical IDs to every frozen
//     value (construction is deterministic), and — crucially for soundness
//     — agree on every mayalias literal a stored summary may test. A
//     summary computed under one oracle is NOT valid under another, which
//     is why the digest is part of every store key.
//
//   - EncodeTables/RestoreTables snapshot the mutable interners (path
//     sets, transformers, abstract states, formulas, relations) in dense
//     ID order. Restoring a cold run's snapshot into a freshly built
//     pipeline replays every intern in first-intern order, so the warm
//     pipeline's ID assignment is bit-for-bit the cold run's — which makes
//     the deterministic engines produce byte-identical result tables on
//     reuse (ID order drives sorted sets, worklist order and pruning
//     tie-breaks; see intern.go).
//
//   - EncodeSummaries/DecodeSummaries serialize one trigger outcome (the
//     eta map of pruned bottom-up summaries) structurally: mutable-table
//     IDs are never written, only frozen IDs and inlined set/vector/
//     formula contents, and the relations of each procedure are sorted by
//     their encoded bytes. The encoding is therefore canonical across
//     clients — decode into any same-digest instance and re-encode, and
//     the bytes are identical whatever IDs that instance assigned.
//
// Every decoder treats malformed input as an error (never a panic): the
// store turns codec errors into cache misses.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"

	"swift/internal/core"
	"swift/internal/wire"
)

const (
	tablesMagic    = "SWTB1"
	summariesMagic = "SWSM1"
)

// FrozenDigest returns the hex SHA-256 fingerprint of the analysis's frozen
// construction tables (see the file comment for what that covers and why
// the oracle matrix must be included). Slice clones digest differently from
// the monolithic instance: a slice spawns tuples at one site only, so its
// summaries are not interchangeable with the monolithic run's.
func (a *Analysis) FrozenDigest() string {
	t := a.tab
	var w wire.Writer
	w.Uint(uint64(t.numPaths()))
	for i := 0; i < t.numPaths(); i++ {
		p := t.pathAt(PathID(i))
		w.String(p.base)
		w.String(p.field)
	}
	w.Uint(uint64(len(t.sites)))
	for i, s := range t.sites {
		w.String(s)
		w.Int(int64(t.sitePropOf[i]))
	}
	w.Uint(uint64(len(t.props)))
	for _, p := range t.props {
		w.String(p.Name)
		w.Uint(uint64(len(p.States)))
		for _, s := range p.States {
			w.String(s)
		}
		w.Uint(uint64(p.Error))
		methods := make([]string, 0, len(p.Methods))
		for m := range p.Methods {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		w.Uint(uint64(len(methods)))
		for _, m := range methods {
			w.String(m)
			tab := p.Methods[m]
			w.Uint(uint64(len(tab)))
			for _, st := range tab {
				w.Uint(uint64(st))
			}
		}
	}
	w.Uint(uint64(t.numG))
	for p := 0; p < t.numPaths(); p++ {
		for s := range t.sites {
			w.Bool(t.mayAlias[p][s])
		}
		w.Bool(t.relevant[p])
	}
	w.Int(int64(a.slice))
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}

// ---- intern-table snapshots ----

// EncodeTables serializes the full mutable intern-table state — path sets,
// transformers, formulas, abstract states and relations, each in dense ID
// order — together with the frozen digest the snapshot was taken under.
// Call it only when no solver run is in flight (the engines' entry points
// have returned), as it walks the live tables.
func (a *Analysis) EncodeTables() []byte {
	t := a.tab
	var w wire.Writer
	w.Raw([]byte(tablesMagic))
	w.String(a.FrozenDigest())

	nSets := t.sets.size()
	w.Uint(uint64(nSets))
	for i := 0; i < nSets; i++ {
		wire.WriteI32s(&w, t.sets.at(int32(i)))
	}
	nTrans := t.trans.size()
	w.Uint(uint64(nTrans))
	for i := 0; i < nTrans; i++ {
		wire.WriteI32s(&w, t.trans.at(int32(i)))
	}
	nForms := t.forms.size()
	w.Uint(uint64(nForms))
	for i := 0; i < nForms; i++ {
		wire.WriteI32s(&w, t.forms.at(int32(i)))
	}
	nAbs := t.abs.size()
	w.Uint(uint64(nAbs))
	for i := 0; i < nAbs; i++ {
		s := t.abs.at(int32(i))
		w.Int(int64(s.h))
		w.Int(int64(s.t))
		w.Int(int64(s.a))
		w.Int(int64(s.nc))
	}
	nRels := a.rels.size()
	w.Uint(uint64(nRels))
	for i := 0; i < nRels; i++ {
		r := a.rels.at(int32(i))
		w.Uint(uint64(r.kind))
		w.Int(int64(r.out))
		w.Int(int64(r.iota))
		w.Bool(r.aK.Co)
		w.Int(int64(r.aK.Set))
		w.Int(int64(r.aG))
		w.Bool(r.nK.Co)
		w.Int(int64(r.nK.Set))
		w.Int(int64(r.nG))
		w.Int(int64(r.pre))
	}
	return w.Bytes()
}

// Fresh reports whether the instance's mutable interners hold exactly the
// initMutable seeds — i.e. no solver has interned anything yet. Only a
// fresh instance can restore a snapshot, and only a snapshot taken from
// an instance that STARTED fresh reproduces a cold run's tables (the
// warm-start driver gates its publishes on this). The seed counts
// collapse in degenerate programs (the all-error transformer equals the
// identity when every property state is its own error state; the relevant
// universe is the empty set when nothing is tracked), so they are derived
// from the seed IDs rather than hard-coded.
func (a *Analysis) Fresh() bool {
	t := a.tab
	nTrans := 2 // identity, all-error
	if t.errTrans == t.idTrans {
		nTrans = 1
	}
	nSets := 2 // empty, relevant universe
	if t.univSet == a.emptySet {
		nSets = 1
	}
	return t.sets.size() == nSets &&
		t.trans.size() == nTrans &&
		t.forms.size() == 1 && // true
		t.abs.size() == 1 && // bootstrap state
		a.rels.size() == 1 // id#
}

// id32 narrows a decoded varint to a table ID, bounds-checked.
func id32[T ~int32](v int64, n int, what string) (T, error) {
	if v < 0 || v >= int64(n) {
		return 0, fmt.Errorf("typestate: %s id %d out of range [0,%d)", what, v, n)
	}
	return T(v), nil
}

// RestoreTables replays a snapshot produced by EncodeTables into this
// instance, asserting that every replayed intern receives exactly the ID it
// held in the snapshot. That assertion can only hold when the instance is
// freshly built (only the initMutable seeds interned) and was constructed
// from the same program, property set and oracle (equal FrozenDigest) —
// both are checked and violations are errors, which the warm-start path
// treats as a cache miss. After a successful restore the instance's tables
// are bit-for-bit the snapshotted run's final tables.
func (a *Analysis) RestoreTables(data []byte) error {
	if !a.Fresh() {
		return fmt.Errorf("typestate: RestoreTables needs a freshly built pipeline (tables already populated)")
	}
	t := a.tab
	r := wire.NewReader(data)
	r.Expect(tablesMagic)
	digest := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	if want := a.FrozenDigest(); digest != want {
		return fmt.Errorf("typestate: snapshot frozen digest %.12s… does not match this pipeline's %.12s…", digest, want)
	}

	numPaths, numG := t.numPaths(), t.numG

	nSets := r.Len()
	sets := make([][]PathID, 0, nSets)
	for i := 0; i < nSets && r.Err() == nil; i++ {
		elems := wire.ReadI32s[PathID](r)
		if err := validateIDSlice(elems, numPaths, true, "path"); err != nil {
			return err
		}
		sets = append(sets, elems)
	}
	nTrans := r.Len()
	trans := make([][]GState, 0, nTrans)
	for i := 0; i < nTrans && r.Err() == nil; i++ {
		vec := wire.ReadI32s[GState](r)
		if r.Err() == nil && len(vec) != numG {
			return fmt.Errorf("typestate: transformer vector has %d states, want %d", len(vec), numG)
		}
		if err := validateIDSlice(vec, numG, false, "global state"); err != nil {
			return err
		}
		trans = append(trans, vec)
	}
	nForms := r.Len()
	forms := make([][]literal, 0, nForms)
	for i := 0; i < nForms && r.Err() == nil; i++ {
		lits := wire.ReadI32s[literal](r)
		if err := validateLits(lits, numPaths); err != nil {
			return err
		}
		forms = append(forms, lits)
	}
	nAbs := r.Len()
	abss := make([]absState, 0, nAbs)
	for i := 0; i < nAbs && r.Err() == nil; i++ {
		var s absState
		var err error
		if s.h, err = id32[SiteID](r.Int(), len(t.sites), "site"); err != nil {
			return err
		}
		if s.t, err = id32[GState](r.Int(), numG, "global state"); err != nil {
			return err
		}
		if s.a, err = id32[SetID](r.Int(), nSets, "set"); err != nil {
			return err
		}
		if s.nc, err = id32[SetID](r.Int(), nSets, "set"); err != nil {
			return err
		}
		abss = append(abss, s)
	}
	nRels := r.Len()
	rels := make([]rel, 0, nRels)
	for i := 0; i < nRels && r.Err() == nil; i++ {
		var x rel
		var err error
		kind := r.Uint()
		if kind > uint64(kXform) {
			return fmt.Errorf("typestate: unknown relation kind %d", kind)
		}
		x.kind = relKind(kind)
		if x.out, err = id32[AbsID](r.Int(), nAbs, "abstract state"); err != nil {
			return err
		}
		if x.iota, err = id32[TransID](r.Int(), nTrans, "transformer"); err != nil {
			return err
		}
		x.aK.Co = r.Bool()
		if x.aK.Set, err = id32[SetID](r.Int(), nSets, "set"); err != nil {
			return err
		}
		if x.aG, err = id32[SetID](r.Int(), nSets, "set"); err != nil {
			return err
		}
		x.nK.Co = r.Bool()
		if x.nK.Set, err = id32[SetID](r.Int(), nSets, "set"); err != nil {
			return err
		}
		if x.nG, err = id32[SetID](r.Int(), nSets, "set"); err != nil {
			return err
		}
		if x.pre, err = id32[FormulaID](r.Int(), nForms, "formula"); err != nil {
			return err
		}
		rels = append(rels, x)
	}
	if err := r.Done(); err != nil {
		return err
	}

	// Replay in dense ID order. Each intern must land on its snapshot ID:
	// the seeds interned by initMutable form a prefix of any fresh-pipeline
	// snapshot (same construction order), and every later entry is new to
	// this instance.
	for i, elems := range sets {
		if got := t.internSet(elems); int(got) != i {
			return fmt.Errorf("typestate: snapshot set %d replayed to id %d (duplicate or reordered entry)", i, got)
		}
	}
	for i, vec := range trans {
		if got := t.internTrans(vec); int(got) != i {
			return fmt.Errorf("typestate: snapshot transformer %d replayed to id %d", i, got)
		}
	}
	for i, lits := range forms {
		if got := t.internFormula(lits); int(got) != i {
			return fmt.Errorf("typestate: snapshot formula %d replayed to id %d", i, got)
		}
	}
	for i, s := range abss {
		if got := t.internAbs(s); int(got) != i {
			return fmt.Errorf("typestate: snapshot abstract state %d replayed to id %d", i, got)
		}
	}
	for i, x := range rels {
		// Snapshotted relations are canonical (internRel canonicalizes
		// before interning), so replaying through internRel must not alter
		// them.
		got := a.internRel(x)
		if int(got) != i {
			return fmt.Errorf("typestate: snapshot relation %d replayed to id %d", i, got)
		}
		if a.relOf(got) != x {
			return fmt.Errorf("typestate: snapshot relation %d is not in canonical form", i)
		}
	}
	// A snapshot lists every entry of its tables, the initMutable seeds
	// included; one that omits some would re-encode longer than it is.
	if t.sets.size() != len(sets) || t.trans.size() != len(trans) || t.forms.size() != len(forms) ||
		t.abs.size() != len(abss) || a.rels.size() != len(rels) {
		return fmt.Errorf("typestate: snapshot omits interned seed entries")
	}
	return nil
}

// validateIDSlice checks a decoded slice of frozen-table IDs: every value
// in [0,n), strictly ascending when sorted is set (canonical set form).
func validateIDSlice[T ~int32](xs []T, n int, sorted bool, what string) error {
	for i, x := range xs {
		if int(x) < 0 || int(x) >= n {
			return fmt.Errorf("typestate: %s id %d out of range [0,%d)", what, x, n)
		}
		if sorted && i > 0 && xs[i-1] >= x {
			return fmt.Errorf("typestate: %s set is not in canonical sorted order", what)
		}
	}
	return nil
}

// validateLits checks a decoded formula: literals strictly ascending, known
// kinds, paths in range.
func validateLits(lits []literal, numPaths int) error {
	for i, l := range lits {
		if l.kind() > litNotMay || int(l.path()) < 0 || int(l.path()) >= numPaths {
			return fmt.Errorf("typestate: literal %d out of range", l)
		}
		if i > 0 && lits[i-1] >= l {
			return fmt.Errorf("typestate: formula literals not in canonical sorted order")
		}
	}
	return nil
}

// ---- structural summary encoding ----

// RSet is the concrete summary-element type of this client.
type rsetT = core.RSet[RelID, FormulaID]

// encSet inlines a path set's contents.
func (a *Analysis) encSet(w *wire.Writer, s SetID) { wire.WriteI32s(w, a.tab.setElems(s)) }

// encRel renders one relation self-contained: only frozen IDs (paths,
// sites, global states) appear raw; everything from the mutable tables is
// inlined.
func (a *Analysis) encRel(id RelID) []byte {
	t := a.tab
	r := a.relOf(id)
	var w wire.Writer
	w.Uint(uint64(r.kind))
	if r.kind == kConst {
		out := t.absOf(r.out)
		w.Int(int64(out.h))
		w.Int(int64(out.t))
		a.encSet(&w, out.a)
		a.encSet(&w, out.nc)
	} else {
		wire.WriteI32s(&w, t.trans.at(int32(r.iota)))
		w.Bool(r.aK.Co)
		a.encSet(&w, r.aK.Set)
		a.encSet(&w, r.aG)
		w.Bool(r.nK.Co)
		a.encSet(&w, r.nK.Set)
		a.encSet(&w, r.nG)
	}
	wire.WriteI32s(&w, t.formLits(r.pre))
	return w.Bytes()
}

// encFormula renders one precondition formula self-contained.
func (a *Analysis) encFormula(id FormulaID) []byte {
	var w wire.Writer
	wire.WriteI32s(&w, a.tab.formLits(id))
	return w.Bytes()
}

// decSet decodes and interns an inlined path set.
func (a *Analysis) decSet(r *wire.Reader) (SetID, error) {
	elems := wire.ReadI32s[PathID](r)
	if err := r.Err(); err != nil {
		return 0, err
	}
	if err := validateIDSlice(elems, a.tab.numPaths(), true, "path"); err != nil {
		return 0, err
	}
	return a.tab.internSet(elems), nil
}

// decFormulaLits decodes, validates and interns an inlined formula.
func (a *Analysis) decFormulaLits(r *wire.Reader) (FormulaID, error) {
	lits := wire.ReadI32s[literal](r)
	if err := r.Err(); err != nil {
		return 0, err
	}
	if err := validateLits(lits, a.tab.numPaths()); err != nil {
		return 0, err
	}
	return a.tab.internFormula(lits), nil
}

// decRel decodes one encRel blob into this instance, interning every
// component.
func (a *Analysis) decRel(blob []byte) (RelID, error) {
	t := a.tab
	r := wire.NewReader(blob)
	kind := r.Uint()
	if r.Err() == nil && kind > uint64(kXform) {
		return 0, fmt.Errorf("typestate: unknown relation kind %d", kind)
	}
	var x rel
	x.kind = relKind(kind)
	if x.kind == kConst {
		var out absState
		var err error
		if out.h, err = id32[SiteID](r.Int(), len(t.sites), "site"); err != nil {
			return 0, err
		}
		if out.t, err = id32[GState](r.Int(), t.numG, "global state"); err != nil {
			return 0, err
		}
		if out.a, err = a.decSet(r); err != nil {
			return 0, err
		}
		if out.nc, err = a.decSet(r); err != nil {
			return 0, err
		}
		// kConst relations leave every transformer component at its zero
		// value (exactly how the solvers build them — see RTrans/RComp),
		// so the struct interns back to the original relation.
		x.out = t.internAbs(out)
	} else {
		vec := wire.ReadI32s[GState](r)
		if err := r.Err(); err != nil {
			return 0, err
		}
		if len(vec) != t.numG {
			return 0, fmt.Errorf("typestate: transformer vector has %d states, want %d", len(vec), t.numG)
		}
		if err := validateIDSlice(vec, t.numG, false, "global state"); err != nil {
			return 0, err
		}
		x.iota = t.internTrans(vec)
		var err error
		x.aK.Co = r.Bool()
		if x.aK.Set, err = a.decSet(r); err != nil {
			return 0, err
		}
		if x.aG, err = a.decSet(r); err != nil {
			return 0, err
		}
		x.nK.Co = r.Bool()
		if x.nK.Set, err = a.decSet(r); err != nil {
			return 0, err
		}
		if x.nG, err = a.decSet(r); err != nil {
			return 0, err
		}
	}
	var err error
	if x.pre, err = a.decFormulaLits(r); err != nil {
		return 0, err
	}
	if err := r.Done(); err != nil {
		return 0, err
	}
	id := a.internRel(x)
	if a.relOf(id) != x {
		// internRel canonicalized it, so it would re-encode differently.
		return 0, fmt.Errorf("typestate: relation is not in canonical form")
	}
	return id, nil
}

// kConst relations round-trip their unused transformer components through
// the defaults decRel assigns, so encode→decode→re-encode is stable only
// because encRel never writes them. The canonical blob order below is what
// makes the whole summary encoding ID-independent: blobs are sorted by
// their bytes, and equal relations encode to equal bytes in every
// same-digest client.

// EncodeSummaries serializes one trigger outcome: the frontier it covered,
// the per-procedure pruned summaries, and whether the trigger failed (a
// deterministic budget abort, cached so warm runs skip the doomed
// recomputation). Procedures are written in sorted-name order and each
// procedure's relations and Sigma formulas in sorted encoded-byte order,
// so any same-digest client re-encodes a decoded summary byte-identically.
func (a *Analysis) EncodeSummaries(frontier []string, eta map[string]rsetT, failed bool) []byte {
	var w wire.Writer
	w.Raw([]byte(summariesMagic))
	w.String(a.FrozenDigest())
	w.Bool(failed)
	w.Uint(uint64(len(frontier)))
	for _, f := range frontier {
		w.String(f)
	}
	procs := make([]string, 0, len(eta))
	for name := range eta {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	w.Uint(uint64(len(procs)))
	for _, name := range procs {
		rs := eta[name]
		w.String(name)
		relBlobs := make([][]byte, len(rs.Rels))
		for i, id := range rs.Rels {
			relBlobs[i] = a.encRel(id)
		}
		slices.SortFunc(relBlobs, sliceCmp)
		w.Uint(uint64(len(relBlobs)))
		for _, b := range relBlobs {
			w.Uint(uint64(len(b)))
			w.Raw(b)
		}
		sigBlobs := make([][]byte, len(rs.Sigma))
		for i, id := range rs.Sigma {
			sigBlobs[i] = a.encFormula(id)
		}
		slices.SortFunc(sigBlobs, sliceCmp)
		w.Uint(uint64(len(sigBlobs)))
		for _, b := range sigBlobs {
			w.Uint(uint64(len(b)))
			w.Raw(b)
		}
	}
	return w.Bytes()
}

func sliceCmp(a, b []byte) int { return slices.Compare(a, b) }

// DecodeSummaries decodes an EncodeSummaries artifact into this instance,
// interning every component value. It fails if the artifact was produced
// under a different frozen digest — using such a summary would consult the
// wrong may-alias oracle — and on any input EncodeSummaries would not
// write: procedure names must be strictly increasing, each procedure's
// relation and Sigma blobs strictly increasing by bytes, and every
// relation canonical. The returned eta is freshly allocated on every call,
// so callers may install it into a Result without aliasing the store.
func (a *Analysis) DecodeSummaries(data []byte) (frontier []string, eta map[string]rsetT, failed bool, err error) {
	r := wire.NewReader(data)
	r.Expect(summariesMagic)
	digest := r.String()
	if e := r.Err(); e != nil {
		return nil, nil, false, e
	}
	if want := a.FrozenDigest(); digest != want {
		return nil, nil, false, fmt.Errorf("typestate: summary frozen digest %.12s… does not match this pipeline's %.12s…", digest, want)
	}
	failed = r.Bool()
	nf := r.Len()
	frontier = make([]string, 0, nf)
	for i := 0; i < nf && r.Err() == nil; i++ {
		frontier = append(frontier, r.String())
	}
	np := r.Len()
	eta = make(map[string]rsetT, np)
	prevName := ""
	for i := 0; i < np && r.Err() == nil; i++ {
		name := r.String()
		if r.Err() == nil && i > 0 && name <= prevName {
			return nil, nil, false, fmt.Errorf("typestate: summary procedure %q does not follow %q in sorted order", name, prevName)
		}
		prevName = name
		nr := r.Len()
		relIDs := make([]RelID, 0, nr)
		var prev []byte
		for j := 0; j < nr && r.Err() == nil; j++ {
			blob := r.Raw(r.Len())
			if r.Err() != nil {
				break
			}
			if j > 0 && sliceCmp(prev, blob) >= 0 {
				return nil, nil, false, fmt.Errorf("typestate: relations of %q not in strictly increasing byte order", name)
			}
			prev = blob
			id, derr := a.decRel(blob)
			if derr != nil {
				return nil, nil, false, derr
			}
			relIDs = append(relIDs, id)
		}
		ns := r.Len()
		sigIDs := make([]FormulaID, 0, ns)
		for j := 0; j < ns && r.Err() == nil; j++ {
			blob := r.Raw(r.Len())
			if r.Err() != nil {
				break
			}
			if j > 0 && sliceCmp(prev, blob) >= 0 {
				return nil, nil, false, fmt.Errorf("typestate: Sigma of %q not in strictly increasing byte order", name)
			}
			prev = blob
			sub := wire.NewReader(blob)
			id, derr := a.decFormulaLits(sub)
			if derr == nil {
				derr = sub.Done()
			}
			if derr != nil {
				return nil, nil, false, derr
			}
			sigIDs = append(sigIDs, id)
		}
		eta[name] = core.MakeRSet(relIDs, sigIDs)
	}
	if e := r.Done(); e != nil {
		return nil, nil, false, e
	}
	return frontier, eta, failed, nil
}
