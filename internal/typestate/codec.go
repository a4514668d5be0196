package typestate

// This file makes the type-state client's artifacts serializable for the
// persistent artifact store (internal/store):
//
//   - FrozenDigest fingerprints everything NewAnalysis freezes before any
//     solver runs: the path and site universes, the property layout, the
//     may-alias oracle matrix and the relevance filter. Two Analysis
//     instances with equal digests assign identical IDs to every frozen
//     value (construction is deterministic), and — crucially for soundness
//     — agree on every mayalias literal a stored artifact may encode. An
//     artifact computed under one oracle is NOT valid under another, which
//     is why the digest is part of every store key.
//
//   - EncodeTables/RestoreTables snapshot the intern tables (path
//     sets, transformers, abstract states, formulas, relations) in dense
//     ID order. Restoring a cold run's snapshot into a freshly built
//     pipeline replays every intern in first-intern order, so the warm
//     pipeline's ID assignment is bit-for-bit the cold run's — which makes
//     the deterministic engines produce byte-identical result tables on
//     reuse (ID order drives sorted sets, worklist order and pruning
//     tie-breaks; see intern.go).
//
//   - EncodeSummaries serializes a run's bottom-up summaries
//     structurally: mutable-table IDs are never written, only frozen IDs
//     and inlined set/vector/formula contents, and the relations of each
//     procedure are sorted by their encoded bytes. The encoding is
//     therefore canonical across clients: equal summaries encode to the
//     same bytes whatever IDs an instance assigned.
//
// RestoreTables treats malformed input as an error (never a panic): the
// store turns it into a cache miss.

import (
	"bytes"
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
// summaries are not interchangeable with the monolithic run's. Everything
// it covers is frozen at construction, so it is computed once per instance.
func (a *Analysis) FrozenDigest() string {
	a.frozenOnce.Do(func() { a.frozen = a.computeFrozenDigest() })
	return a.frozen
}

func (a *Analysis) computeFrozenDigest() string {
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
	var elems []PathID
	for i := 0; i < nSets; i++ {
		elems = t.appendSetElems(elems[:0], SetID(i))
		wire.WriteI32s(&w, elems)
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
		s := t.absOf(AbsID(i))
		w.Int(int64(s.h))
		w.Int(int64(s.t))
		w.Int(int64(s.a))
		w.Int(int64(s.nc))
	}
	nRels := a.rels.size()
	w.Uint(uint64(nRels))
	for i := 0; i < nRels; i++ {
		r := a.relOf(RelID(i))
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

// Fresh reports whether the instance's intern tables hold exactly the
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

// The canonical blob order below is what makes the whole summary
// encoding ID-independent: blobs are sorted by their bytes, and equal
// relations encode to equal bytes in every same-digest client.

// EncodeSummaries serializes a run's bottom-up summaries (the BU table
// of EncodeResultTables). Procedures are written in sorted-name order and
// each procedure's relations and Sigma formulas in sorted encoded-byte
// order, so same-digest clients encode equal summaries byte-identically.
// The empty frontier and the false failed flag after the digest are a
// fixed part of the format, kept so that stored result blobs and their
// keys do not change.
func (a *Analysis) EncodeSummaries(eta map[string]rsetT) []byte {
	var w wire.Writer
	w.Raw([]byte(summariesMagic))
	w.String(a.FrozenDigest())
	w.Bool(false) // failed
	w.Uint(0)     // frontier length
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
		slices.SortFunc(relBlobs, bytes.Compare)
		w.Uint(uint64(len(relBlobs)))
		for _, b := range relBlobs {
			w.Uint(uint64(len(b)))
			w.Raw(b)
		}
		sigBlobs := make([][]byte, len(rs.Sigma))
		for i, id := range rs.Sigma {
			sigBlobs[i] = a.encFormula(id)
		}
		slices.SortFunc(sigBlobs, bytes.Compare)
		w.Uint(uint64(len(sigBlobs)))
		for _, b := range sigBlobs {
			w.Uint(uint64(len(b)))
			w.Raw(b)
		}
	}
	return w.Bytes()
}
