package typestate

// Tests and benchmarks for the sharded interning substrate (shard.go):
// concurrent ID agreement against a serial oracle, the full-hash collision
// chain of seqInterner, a -race hammer over the full client surface,
// serial-engine determinism, and the contention microbenchmark comparing
// the sharded interner with the old single-RWMutex discipline.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
)

// workloadSets builds n distinct sorted path sets drawn from the analysis
// universe, deterministic in seed.
func workloadSets(ts *Analysis, n int, seed int64) [][]PathID {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out [][]PathID
	for len(out) < n {
		var s []PathID
		for p := 0; p < ts.tab.numPaths(); p++ {
			if rng.Intn(3) == 0 {
				s = append(s, PathID(p))
			}
		}
		// Salt with out-of-universe paths so n distinct sets exist even for
		// small universes; the interner never dereferences path IDs.
		s = append(s, PathID(ts.tab.numPaths()+rng.Intn(4*n)))
		k := fmt.Sprint(s)
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// TestShardedInternerAgreement checks the core interner contract under
// concurrency: N goroutines interning identical and overlapping values all
// receive the same dense IDs, the ID space stays dense (one ID per unique
// value), every ID dereferences back to its value, and a serial oracle run
// interning the same values in first-occurrence order receives exactly the
// IDs the old map+slice implementation would have assigned. A seqInterner
// with a constant hash takes the same concurrent traffic, so its collision
// chain is exercised under -race too.
func TestShardedInternerAgreement(t *testing.T) {
	ts, _ := conditionsAnalysis(t)
	sets := workloadSets(ts, 256, 1)

	// Serial oracle: IDs are assigned in first-intern order starting at the
	// construction-time table size.
	oracle, _ := conditionsAnalysis(t)
	base := oracle.tab.sets.size()
	for i, s := range sets {
		if got := oracle.tab.internSet(s); got != SetID(base+i) {
			t.Fatalf("serial intern %d: id %d, want %d (first-intern order broken)", i, got, base+i)
		}
	}

	const workers = 8
	ids := make([][]SetID, workers)
	chainIDs := make([][]int32, workers)
	chain := newSeqInterner(constHash[PathID])
	preSize := ts.tab.sets.size()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]SetID, len(sets))
			chainIDs[g] = make([]int32, len(sets))
			// Each worker visits every value, rotated so different workers
			// race on different values at any instant.
			for i := range sets {
				j := (i + g*len(sets)/workers) % len(sets)
				ids[g][j] = ts.tab.internSet(sets[j])
				chainIDs[g][j] = chain.intern(sets[j])
			}
		}(g)
	}
	wg.Wait()

	for g := 1; g < workers; g++ {
		for i := range sets {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("worker %d disagrees on set %d: %d vs %d", g, i, ids[g][i], ids[0][i])
			}
			if chainIDs[g][i] != chainIDs[0][i] {
				t.Fatalf("worker %d disagrees on chained set %d: %d vs %d", g, i, chainIDs[g][i], chainIDs[0][i])
			}
		}
	}
	if got := chain.size(); got != len(sets) {
		t.Fatalf("chained table size %d, want %d", got, len(sets))
	}
	chainSeen := map[int32]bool{}
	for i, id := range chainIDs[0] {
		if id < 0 || int(id) >= len(sets) || chainSeen[id] {
			t.Fatalf("chained set %d: id %d out of range or reused", i, id)
		}
		chainSeen[id] = true
		if !slices.Equal(chain.at(id), sets[i]) {
			t.Fatalf("chained set %d: id %d dereferences to a different value", i, id)
		}
	}
	if got, want := ts.tab.sets.size(), preSize+len(sets); got != want {
		t.Fatalf("table size %d, want %d (denseness: one ID per unique value)", got, want)
	}
	seen := map[SetID]bool{}
	for i, id := range ids[0] {
		if int(id) < 0 || int(id) >= ts.tab.sets.size() {
			t.Fatalf("set %d: id %d out of dense range [0,%d)", i, id, ts.tab.sets.size())
		}
		if seen[id] {
			t.Fatalf("set %d: id %d assigned to two distinct values", i, id)
		}
		seen[id] = true
		if !slices.Equal(ts.tab.setElems(id), sets[i]) {
			t.Fatalf("set %d: id %d dereferences to a different value", i, id)
		}
	}
}

// constHash sends every sequence to one shard and one full hash, so each
// intern after the first walks seqInterner's overflow chain.
func constHash[E ~int32]([]E) uint64 { return 42 }

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

// TestSeqInternerCollisionChain forces every path set, transformer vector
// and formula of a seeded workload into one collision chain.
func TestSeqInternerCollisionChain(t *testing.T) {
	ts, _ := conditionsAnalysis(t)
	sets := workloadSets(ts, 64, 3)
	// Repeat every value, plus the empty set and a prefix of another set.
	sets = append(append(sets, sets...), nil, sets[0][:1])
	checkChain(t, "set", sets)

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
	t := a.tab
	t.sets = newSeqInterner(constHash[PathID])
	t.trans = newSeqInterner(constHash[GState])
	t.forms = newSeqInterner(constHash[literal])
	t.abs = newInterner(hashAbs)
	t.methodTrans = newMemoMap[string, TransID](hashString)
	t.composeMemo = newMemoMap[[2]TransID, TransID](hashTransPair)
	t.setOpMemo = newMemoMap[uint64, SetID](fold)
	a.rels = newInterner(hashRel)
	a.initMutable()
}

// TestClientOpsRaceHammer drives the full client surface — Trans, RTrans,
// RComp, Applies, Apply, PreOf, PreHolds, PreImplies, WPre, Reduce — from
// N goroutines on one shared Analysis. Run with -race; the assertions only
// sanity-check that concurrently derived relations stay interned
// consistently.
func TestClientOpsRaceHammer(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			rels := []RelID{ts.Identity()}
			states := []AbsID{ts.InitialState()}
			for step := 0; step < 400; step++ {
				c := prims[rng.Intn(len(prims))]
				r := rels[rng.Intn(len(rels))]
				s := states[rng.Intn(len(states))]
				switch step % 6 {
				case 0:
					if out := ts.RTrans(c, r); len(out) > 0 {
						rels = append(rels, out[rng.Intn(len(out))])
					}
				case 1:
					if out := ts.Trans(c, s); len(out) > 0 {
						states = append(states, out[rng.Intn(len(out))])
					}
				case 2:
					if ts.Applies(r, s) {
						states = append(states, ts.Apply(r, s)...)
					}
				case 3:
					if out := ts.RComp(r, rels[rng.Intn(len(rels))]); len(out) > 0 {
						rels = append(rels, out[0])
					}
				case 4:
					pre := ts.PreOf(r)
					ts.PreHolds(pre, s)
					ts.PreImplies(pre, ts.PreOf(rels[rng.Intn(len(rels))]))
					ts.WPre(r, pre)
				case 5:
					rels = append(ts.Reduce(rels[:min(len(rels), 16)]), rels[min(len(rels), 16):]...)
					if len(rels) == 0 {
						rels = []RelID{ts.Identity()}
					}
				}
			}
			// Re-interning a relation already derived must return the same
			// ID even while other workers keep mutating the tables.
			for _, r := range rels[:min(len(rels), 8)] {
				if got := ts.internRel(ts.relOf(r)); got != r {
					t.Errorf("worker %d: re-intern of relation %d returned %d", g, r, got)
				}
			}
		}(g)
	}
	wg.Wait()
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

// TestSerialEngineDeterminism pins the ID-stability argument of shard.go:
// in a single-threaded run the atomic ID counter assigns IDs in exactly
// first-intern order, so two fresh serial runs — including the interned
// IDs embedded in the rendering — are byte-identical. So is a run with
// every set, transformer and formula in one collision chain: the hash
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

// ---- contention microbenchmark ----

// globalLockTables reproduces the pre-sharding locking discipline: every
// potentially-interning operation behind one RWMutex write lock (what
// core.Synchronized did for Trans/RTrans/RComp/Apply/WPre before clients
// became internally sharded).
type globalLockTables struct {
	mu sync.RWMutex
	t  *tables
}

func (g *globalLockTables) internSet(s []PathID) SetID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.t.internSet(s)
}

func (g *globalLockTables) internAbs(s absState) AbsID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.t.internAbs(s)
}

// benchAnalysis builds an analysis outside the testing.T helpers.
func benchAnalysis(b *testing.B) *Analysis {
	b.Helper()
	prog, _ := conditionsProgram()
	ts, err := NewAnalysis(prog, map[string]*Property{
		"h1": FileProperty(),
		"h2": IteratorProperty(),
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// contentionLoop is the shared workload: mostly re-interns of a hot value
// pool (the dominant traffic of a real run — Apply and RTrans rebuild
// existing states and sets) with a fresh per-goroutine value every 64th
// operation (the mutating tail). Run with -cpu 1,4,8 to see the scaling;
// the sharded interner overtakes the global write lock as goroutines grow.
func contentionLoop(pb *testing.PB, gid int, sets [][]PathID,
	internSet func([]PathID) SetID, internAbs func(absState) AbsID) {
	i := 0
	fresh := 0
	for pb.Next() {
		i++
		if i&63 == 0 {
			fresh++
			internSet([]PathID{PathID(1_000_000 + gid*100_000 + fresh)})
			continue
		}
		s := sets[i%len(sets)]
		id := internSet(s)
		internAbs(absState{h: SiteID(i & 1), t: GState(i % 3), a: id, nc: id})
	}
}

func BenchmarkInternContentionSharded(b *testing.B) {
	ts := benchAnalysis(b)
	sets := workloadSets(ts, 1024, 7)
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(gid.Add(1))
		contentionLoop(pb, g, sets, ts.tab.internSet, ts.tab.internAbs)
	})
}

func BenchmarkInternContentionGlobalLock(b *testing.B) {
	ts := benchAnalysis(b)
	gl := &globalLockTables{t: ts.tab}
	sets := workloadSets(ts, 1024, 7)
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(gid.Add(1))
		contentionLoop(pb, g, sets, gl.internSet, gl.internAbs)
	})
}
