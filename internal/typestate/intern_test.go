package typestate

// Tests for the interning substrate (intern.go): the full-hash collision
// chains of seqInterner and setTable, and engine determinism, including
// with every set and sequence in one collision chain.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
)

// workloadSets builds n distinct sorted sets over the path universe
// [0, numPaths), deterministic in seed.
func workloadSets(numPaths, n int, seed int64) [][]PathID {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out [][]PathID
	for len(out) < n {
		var s []PathID
		for p := 0; p < numPaths; p++ {
			if rng.Intn(3) == 0 {
				s = append(s, PathID(p))
			}
		}
		k := fmt.Sprint(s)
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// constHash gives every sequence or bitset row one full hash, so each
// intern after the first walks the overflow chain.
func constHash[E any]([]E) uint64 { return 42 }

// checkChain interns seqs (which repeat values) into a constant-hash
// seqInterner and checks the collision path: dense IDs in first-intern
// order, equal contents sharing an ID, distinct contents never sharing
// one, and at round-tripping every ID.
func checkChain[E ~int32](t *testing.T, what string, seqs [][]E) {
	t.Helper()
	it := newSeqInterner(constHash[E])
	first := map[string]int32{}
	for i, s := range seqs {
		id := it.intern(s)
		k := fmt.Sprint(s)
		want, seen := first[k]
		if !seen {
			want = int32(len(first))
			first[k] = want
		}
		if id != want {
			t.Fatalf("%s %d (%v): id %d, want %d", what, i, s, id, want)
		}
		if !slices.Equal(it.at(id), s) {
			t.Fatalf("%s %d: at(%d) = %v, want %v", what, i, id, it.at(id), s)
		}
	}
	if it.size() != len(first) {
		t.Fatalf("%s: size %d, want %d distinct", what, it.size(), len(first))
	}
	if len(first) < 3 {
		t.Fatalf("%s: only %d distinct values, the chain is not exercised", what, len(first))
	}
}

// checkSetChain is checkChain for path sets: it interns sets over the
// universe [0, numPaths) into a constant-hash setTable and checks the same
// properties, reading each set back from its arena row.
func checkSetChain(t *testing.T, numPaths int, sets [][]PathID) {
	t.Helper()
	tab := &tables{sets: newSetTable(numPaths, constHash[uint64])}
	first := map[string]SetID{}
	for i, s := range sets {
		id := tab.internSet(s)
		k := fmt.Sprint(s)
		want, seen := first[k]
		if !seen {
			want = SetID(len(first))
			first[k] = want
		}
		if id != want {
			t.Fatalf("%d paths, set %d (%v): id %d, want %d", numPaths, i, s, id, want)
		}
		if got := tab.setElems(id); !slices.Equal(got, s) {
			t.Fatalf("%d paths, set %d: elems(%d) = %v, want %v", numPaths, i, id, got, s)
		}
	}
	if tab.sets.size() != len(first) || len(tab.sets.words) != len(first)*tab.sets.w {
		t.Fatalf("%d paths: %d sets in %d words, want %d distinct of %d words",
			numPaths, tab.sets.size(), len(tab.sets.words), len(first), tab.sets.w)
	}
}

// TestSeqInternerCollisionChain forces every path set, transformer vector
// and formula of a seeded workload into one collision chain. Path sets
// run on universes that fill one word, end mid-word and span several.
func TestSeqInternerCollisionChain(t *testing.T) {
	for _, numPaths := range []int{7, 64, 130} {
		sets := workloadSets(numPaths, 64, 3)
		// Repeat every value, plus the empty set and a prefix of another set.
		sets = append(append(sets, sets...), nil, sets[0][:1])
		checkSetChain(t, numPaths, sets)
	}

	ts, _ := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(5))
	var vecs [][]GState
	for i := 0; i < 128; i++ {
		v := make([]GState, ts.tab.numG)
		for g := range v {
			v[g] = GState(rng.Intn(ts.tab.numG))
		}
		vecs = append(vecs, v)
	}
	vecs = append(vecs, vecs[:64]...)
	checkChain(t, "transformer", vecs)

	var forms [][]literal
	for i := 0; i < 128; i++ {
		var f []literal
		for p := 0; p < ts.tab.numPaths(); p++ {
			if rng.Intn(4) == 0 {
				f = append(f, mkLit(PathID(p), litKind(rng.Intn(6))))
			}
		}
		forms = append(forms, f)
	}
	forms = append(forms, forms[:64]...)
	checkChain(t, "formula", forms)
}

// forceCollisions replaces a fresh analysis's mutable interners and memos
// with empty ones whose sets, transformers and formulas all share one
// full hash, then reseeds them.
func forceCollisions(a *Analysis) {
	a.resetMutable()
	t := a.tab
	t.sets = newSetTable(t.numPaths(), constHash[uint64])
	t.trans = newSeqInterner(constHash[GState])
	t.forms = newSeqInterner(constHash[literal])
	a.initMutable()
}

// determinismFixture is a small program with a triggerable callee for
// running the serial hybrid engine end to end on the type-state client.
func determinismFixture() (*ir.Program, map[string]*Property) {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "use", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.TSCall, Dst: "f", Method: "open"},
			&ir.Prim{Kind: ir.Nop},
		}},
		&ir.Prim{Kind: ir.TSCall, Dst: "f", Method: "close"},
	}}})
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "f", Site: "h1"},
		&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.TSCall, Dst: "f", Method: "open"},
			&ir.Prim{Kind: ir.TSCall, Dst: "f", Method: "close"},
		}}},
		&ir.Call{Callee: "use"},
		&ir.Call{Callee: "use"},
	}}})
	return prog, map[string]*Property{"h1": FileProperty()}
}

// renderRun runs the serial SWIFT engine on a fresh analysis, after
// prepare when it is non-nil, and renders everything observable — exit
// states, per-procedure summaries, ignored sets, counters, the intern-table
// snapshot — into one string.
func renderRun(t *testing.T, prepare func(*Analysis)) string {
	t.Helper()
	prog, track := determinismFixture()
	ts, err := NewAnalysis(prog, track, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(ts)
	}
	an, err := core.NewAnalysis[AbsID, RelID, FormulaID](ts, prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 1
	res := an.RunSwift(ts.InitialState(), cfg)
	if !res.Completed() {
		t.Fatal(res.Err)
	}
	var b strings.Builder
	for _, s := range res.ExitStates("main", ts.InitialState()) {
		fmt.Fprintf(&b, "exit %d %s\n", s, ts.StateString(s))
	}
	procs := make([]string, 0, len(res.BU))
	for name := range res.BU {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	for _, name := range procs {
		rs := res.BU[name]
		for _, r := range rs.Rels {
			fmt.Fprintf(&b, "bu %s rel %d %s\n", name, r, ts.RelString(r))
		}
		for _, q := range rs.Sigma {
			fmt.Fprintf(&b, "bu %s sigma %d %s\n", name, q, ts.FormulaString(q))
		}
	}
	fmt.Fprintf(&b, "triggered %v\n", res.Triggered)
	fmt.Fprintf(&b, "counts paths=%d sites=%d states=%d rels=%d\n",
		ts.PathCount(), ts.SiteCount(), ts.StateCount(), ts.RelCount())
	fmt.Fprintf(&b, "stats %+v td=%d\n", res.BUStats, res.TD.Steps)
	fmt.Fprintf(&b, "tables %x\n", sha256.Sum256(ts.EncodeTables()))
	return b.String()
}

// TestSerialEngineDeterminism pins the ID-stability argument of intern.go:
// IDs follow first-intern order, so two fresh runs — including the
// interned IDs embedded in the rendering — are byte-identical. So is a run
// with every set, transformer and formula in one collision chain: the hash
// never decides an ID.
func TestSerialEngineDeterminism(t *testing.T) {
	a, b := renderRun(t, nil), renderRun(t, nil)
	if a != b {
		t.Fatalf("serial runs differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if c := renderRun(t, forceCollisions); c != a {
		t.Fatalf("collision-chain run differs:\n--- real hash ---\n%s--- constant hash ---\n%s", a, c)
	}
	if !strings.Contains(a, "bu use") {
		t.Fatalf("fixture did not summarize the callee:\n%s", a)
	}
}
