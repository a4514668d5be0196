package typestate

// Tests for the intern table (intern.go): dense first-intern IDs and
// value round-trips in all five tables, also with every value of a table
// in one probe run, and engine determinism, including under that
// constant hash.

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

// constHash gives every value one full hash, so every value sits in one
// probe run of the index.
func constHash[E any]([]E) uint64 { return 42 }

// useConstHash replaces an analysis's intern tables with empty ones that
// hash every value with constHash.
func useConstHash(a *Analysis) {
	t := a.tab
	t.sets = newSetTable(t.numPaths(), constHash[uint64])
	t.trans = newVarTable(constHash[GState])
	t.forms = newVarTable(constHash[literal])
	t.abs = newTable(4, constHash[int32])
	a.rels = newTable(relWidth, constHash[int32])
}

// forceCollisions replaces a fresh analysis's intern tables and memos with
// empty ones whose values all share one full hash, then reseeds them.
func forceCollisions(a *Analysis) {
	a.resetMutable()
	useConstHash(a)
	a.initMutable()
}

// checkIntern interns vals, which repeat values, through intern and checks
// that new values get dense IDs in first-intern order and repeats their
// first ID, that at reads every ID's value back, that size counts the
// distinct values, that the index grew at least three times and that the
// values fill at least minPages pages. It also holds on to the raw slice
// tab.at returns for each new value right after its intern and checks at
// the end that every one still holds its value on the memory tab.at
// returns now: pages never move. In a variable-width table some value must
// have skipped a page's remainder.
func checkIntern[V any, E ~int32 | ~uint64](t *testing.T, what string, tab *table[E], minPages int, vals []V, intern func(V) int32, at func(int32) V) {
	t.Helper()
	first := map[string]int32{}
	var distinct []V
	var held [][]E
	for i, v := range vals {
		k := fmt.Sprint(v)
		want, seen := first[k]
		if !seen {
			want = int32(len(distinct))
			first[k] = want
			distinct = append(distinct, v)
		}
		if id := intern(v); id != want {
			t.Fatalf("%s %d (%v): id %d, want %d", what, i, v, id, want)
		}
		if !seen {
			held = append(held, tab.at(want))
		}
	}
	for id, v := range distinct {
		if got := at(int32(id)); fmt.Sprint(got) != fmt.Sprint(v) {
			t.Fatalf("%s: id %d reads back %v, want %v", what, id, got, v)
		}
		checkHeld(t, what, tab, int32(id), held[id])
	}
	if tab.size() != len(distinct) {
		t.Fatalf("%s: size %d, want %d distinct", what, tab.size(), len(distinct))
	}
	if len(tab.slots) < 16<<3 {
		t.Fatalf("%s: %d distinct values grew the index only to %d slots", what, len(distinct), len(tab.slots))
	}
	if len(tab.pages) < minPages {
		t.Fatalf("%s: %d distinct values fill %d pages, want at least %d", what, len(distinct), len(tab.pages), minPages)
	}
	if tab.width < 0 && !slices.ContainsFunc(tab.pages[:len(tab.pages)-1], func(p []E) bool { return len(p) < cap(p) }) {
		t.Fatalf("%s: no value skipped a page's remainder", what)
	}
}

// checkHeld checks that a slice taken from tab.at(id) earlier still holds
// the value tab.at(id) returns now, on the same memory.
func checkHeld[E ~int32 | ~uint64](t *testing.T, what string, tab *table[E], id int32, held []E) {
	t.Helper()
	now := tab.at(id)
	if !slices.Equal(held, now) {
		t.Fatalf("%s: id %d held %v, now reads %v", what, id, held, now)
	}
	if len(now) > 0 && &held[0] != &now[0] {
		t.Fatalf("%s: id %d moved after later interns", what, id)
	}
}

// checkOversized interns into tab, which already holds values, one value
// longer than pageCap elements and then a short new one, and checks that the
// long value got a page of its own, that the short one starts the next
// page, and that both read back.
func checkOversized[E ~int32 | ~uint64](t *testing.T, what string, tab *table[E], long, short []E) {
	t.Helper()
	pages := len(tab.pages)
	idLong, idShort := tab.intern(long), tab.intern(short)
	heldLong := tab.at(idLong)
	if len(tab.pages) != pages+2 {
		t.Fatalf("%s: a %d-element value and a short one added %d pages, want 2", what, len(long), len(tab.pages)-pages)
	}
	if p := tab.pages[pages]; len(p) != len(long) || cap(p) != len(long) {
		t.Fatalf("%s: oversized value's page has len %d cap %d, want %d", what, len(p), cap(p), len(long))
	}
	more := slices.Clone(short)
	for i := 0; i < 200; i++ { // later interns must not move either value
		more = append(more, short...)
		tab.intern(more)
	}
	checkHeld(t, what+" (oversized)", tab, idLong, heldLong)
	if !slices.Equal(tab.at(idLong), long) || !slices.Equal(tab.at(idShort), short) {
		t.Fatalf("%s: oversized or following value does not read back", what)
	}
}

// withRepeats appends the first half of vals to vals again.
func withRepeats[V any](vals []V) []V { return append(vals, vals[:len(vals)/2]...) }

// TestInternCollisionChain interns seeded workloads into each of the five
// intern tables — path sets, transformers, formulas, abstract states and
// relations — under the real hash and under a constant one, which puts
// every value of a table in one probe run. Path sets run on universes that
// fill one word, end mid-word, span several and span 64 words, whose
// first page holds one set and whose full pages 128, so the fixed-width
// page arithmetic runs through doubling and full pages. Every table spans
// at least three pages; the variable-width tables also take a value longer
// than pageCap, and so does a fixed-width table whose width exceeds it.
func TestInternCollisionChain(t *testing.T) {
	const numG, n = 7, 300
	for _, collide := range []bool{false, true} {
		name := map[bool]string{false: "real hash", true: "constant hash"}[collide]
		var a *Analysis
		for _, numPaths := range []int{7, 4096, 64, 130} {
			a = &Analysis{tab: &tables{paths: make([]path, numPaths), numG: numG}}
			a.resetMutable()
			if collide {
				useConstHash(a)
			}
			// 7 paths have 128 subsets: two 64-set pages at most.
			count, minPages := n, 3
			switch numPaths {
			case 7:
				count, minPages = 96, 2
			case 4096:
				count = 600
			}
			sets := workloadSets(numPaths, count, 3)
			// Repeat values, plus the empty set and a prefix of another set.
			sets = append(withRepeats(sets), nil, sets[0][:1])
			checkIntern(t, fmt.Sprintf("%s, %d paths: set", name, numPaths), a.tab.sets, minPages, sets,
				func(s []PathID) int32 { return int32(a.tab.internSet(s)) },
				func(id int32) []PathID { return a.tab.setElems(SetID(id)) })
		}
		tab, nSets := a.tab, int32(a.tab.sets.size())
		rng := rand.New(rand.NewSource(5))

		var vecs [][]GState
		for i := 0; i < n; i++ {
			v := make([]GState, numG)
			for g := range v {
				v[g] = GState(rng.Intn(numG))
			}
			vecs = append(vecs, v)
		}
		checkIntern(t, name+": transformer", tab.trans, 3, withRepeats(vecs),
			func(v []GState) int32 { return int32(tab.internTrans(v)) },
			func(id int32) []GState { return tab.trans.at(id) })
		checkOversized(t, name+": transformer", tab.trans, make([]GState, pageCap+1), []GState{numG, numG})

		var forms [][]literal
		for i := 0; i < n; i++ {
			var f []literal
			for p := 0; p < tab.numPaths(); p++ {
				if rng.Intn(4) == 0 {
					f = append(f, mkLit(PathID(p), litKind(rng.Intn(6))))
				}
			}
			forms = append(forms, f)
		}
		checkIntern(t, name+": formula", tab.forms, 3, withRepeats(forms),
			func(f []literal) int32 { return int32(tab.internFormula(f)) },
			func(id int32) []literal { return tab.formLits(FormulaID(id)) })
		long := make([]literal, 2*pageCap)
		for i := range long {
			long[i] = mkLit(PathID(i), litInA)
		}
		checkOversized(t, name+": formula", tab.forms, long, long[2*pageCap-1:])

		var states []absState
		for i := 0; i < n; i++ {
			states = append(states, absState{
				h: SiteID(rng.Intn(3)), t: GState(rng.Intn(numG)),
				a: SetID(rng.Int31n(nSets)), nc: SetID(rng.Int31n(nSets)),
			})
		}
		checkIntern(t, name+": abstract state", tab.abs, 3, withRepeats(states),
			func(s absState) int32 { return int32(tab.internAbs(s)) },
			func(id int32) absState { return tab.absOf(AbsID(id)) })

		// Empty gen sets make every relation canonical, so internRel
		// stores it as given.
		empty := tab.internSet(nil)
		var rels []rel
		for i := 0; i < n; i++ {
			rels = append(rels, rel{
				kind: relKind(rng.Intn(2)), out: AbsID(rng.Intn(n)), iota: TransID(rng.Intn(n)),
				aK: coSet{Co: rng.Intn(2) == 0, Set: SetID(rng.Int31n(nSets))}, aG: empty,
				nK: coSet{Co: rng.Intn(2) == 0, Set: SetID(rng.Int31n(nSets))}, nG: empty,
				pre: FormulaID(rng.Intn(n)),
			})
		}
		checkIntern(t, name+": relation", a.rels, 3, withRepeats(rels),
			func(r rel) int32 { return int32(a.internRel(r)) },
			func(id int32) rel { return a.relOf(RelID(id)) })

		// A fixed width beyond pageCap: every value is oversized and gets
		// a page of its own.
		hash := hashRow[uint64]
		if collide {
			hash = constHash[uint64]
		}
		wide := newTable(pageCap+1, hash)
		var held [][]uint64
		for i := 0; i < 4; i++ {
			row := make([]uint64, pageCap+1)
			row[i] = 1
			if id := wide.intern(row); id != int32(i) || wide.intern(row) != id {
				t.Fatalf("%s: wide row %d interned as %d", name, i, id)
			}
			held = append(held, wide.at(int32(i)))
		}
		if len(wide.pages) != 4 {
			t.Fatalf("%s: 4 wide rows fill %d pages, want 4", name, len(wide.pages))
		}
		for i, h := range held {
			checkHeld(t, name+": wide row", wide, int32(i), h)
			if h[i] != 1 {
				t.Fatalf("%s: wide row %d reads back wrong", name, i)
			}
		}
	}
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
// with every value of each intern table under one full hash: the hash
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

// TestInternFindsIDZeroAcrossGrowth guards the index's slot encoding: a
// slot holds its value's ID plus one, so the zero slot is the empty one and
// ID 0 must not read as empty. Under a constant hash, which puts every value
// in one probe run, under a hash whose tag is zero and under the real hash,
// it interns values through at least three doublings of the index and
// checks after every intern that ID 0 and the latest ID are found again,
// and that the occupied slots number exactly the interned values.
func TestInternFindsIDZeroAcrossGrowth(t *testing.T) {
	val := func(i int) []int32 { return []int32{int32(i), int32(-i), 7} }
	for _, tc := range []struct {
		name string
		hash func([]int32) uint64
	}{
		{"const", constHash[int32]},
		{"zero-tag", func([]int32) uint64 { return 1 << 40 }},
		{"real", hashRow[int32]},
	} {
		tab := newTable(3, tc.hash)
		doublings, slots := 0, len(tab.slots)
		for i := 0; doublings < 3 || i < 200; i++ {
			if id := tab.intern(val(i)); id != int32(i) {
				t.Fatalf("%s: value %d got id %d", tc.name, i, id)
			}
			if len(tab.slots) != slots {
				doublings++
				slots = len(tab.slots)
			}
			if id := tab.intern(val(0)); id != 0 {
				t.Fatalf("%s: after %d values, value 0 got id %d", tc.name, i+1, id)
			}
			if id := tab.intern(val(i)); id != int32(i) {
				t.Fatalf("%s: after %d values, value %d got id %d", tc.name, i+1, i, id)
			}
			used := 0
			for _, s := range tab.slots {
				if s.ref != 0 {
					used++
				}
			}
			if tab.size() != i+1 || used != i+1 {
				t.Fatalf("%s: after %d values, size %d and %d occupied slots", tc.name, i+1, tab.size(), used)
			}
		}
		if doublings < 3 {
			t.Fatalf("%s: the index doubled %d times, want at least 3", tc.name, doublings)
		}
	}
}
