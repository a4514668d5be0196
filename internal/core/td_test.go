package core

// White-box tests of the tabulation solver's memory behaviour: the worklist
// must not pin popped states through its backing array and oversized
// burst arrays must be released on drain.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"swift/internal/ir"
	"swift/internal/killgen"
	"swift/internal/wire"
)

// tdFixture builds a solver over a small taint program with a loop and a
// branch, ready to seed and run.
func tdFixture(t *testing.T, config Config) (*tdSolver[string, string, string], *killgen.Taint) {
	t.Helper()
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "a", Site: "src"},
		&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.Copy, Dst: "b", Src: "a"},
			&ir.Prim{Kind: ir.Kill, Dst: "b"},
		}}},
		&ir.Prim{Kind: ir.TSCall, Dst: "b", Method: "sink"},
	}}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{
		Sources: []string{"src"},
		Sinks:   []string{"sink"},
	})
	view := ir.CompressedView(ir.BuildCFG(prog))
	return newTDSolver[string, string, string](taint, view, config, nil, nil), taint
}

// TestRunZeroesPoppedWorkItems pins the fix for the worklist retention bug:
// popping by reslicing alone leaves every popped workItem — and the states
// it holds — reachable through the backing array. After a drain, every slot
// of the retained array must hold the zero workItem.
func TestRunZeroesPoppedWorkItems(t *testing.T) {
	s, taint := tdFixture(t, TDConfig())
	if err := s.seed(taint.Initial()); err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	if s.res.Steps == 0 {
		t.Fatal("solver did no work")
	}
	if s.work == nil {
		t.Fatal("small worklist should keep its backing array")
	}
	var zero workItem[string]
	for i, w := range s.work[:cap(s.work)] {
		if w != zero {
			t.Fatalf("slot %d still holds %+v after drain", i, w)
		}
	}
	if len(s.work) != 0 || s.head != 0 {
		t.Fatalf("worklist not reset: len=%d head=%d", len(s.work), s.head)
	}
}

// TestRunReleasesOversizedWorklist pins the other half of the fix: a burst
// that grew the backing array past maxRetainedWork must be dropped
// wholesale on drain instead of being pinned until the next burst.
func TestRunReleasesOversizedWorklist(t *testing.T) {
	s, _ := tdFixture(t, TDConfig())
	s.work = make([]workItem[string], maxRetainedWork+1)
	s.head = len(s.work) // already drained: run goes straight to release
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	if s.work != nil {
		t.Fatalf("oversized worklist retained: cap=%d", cap(s.work))
	}
	if s.head != 0 {
		t.Fatalf("head not reset: %d", s.head)
	}
}

// syntheticResult builds a TDResult with nodes×contexts×width facts, all
// nodes in one procedure.
func syntheticResult[S ~int | ~int32](nodes, contexts, width int) *TDResult[S] {
	r := newPathTable[S](make([]int32, nodes), 1)
	for n := 0; n < nodes; n++ {
		for c := 0; c < contexts; c++ {
			outs := make(sortedSet[S], width)
			for w := range outs {
				outs[w] = S(n + c + w)
			}
			r.insertSet(r.cell(n, r.context(n, S(c))), outs, nil)
		}
	}
	return r
}

// TestReachedStatesMatchesAllStates checks the bitset scan against the map
// scan under a bitset hint that is exact, too small (growth past it) and
// zero, on single-state and wide cells, and that an empty table yields no
// states.
func TestReachedStatesMatchesAllStates(t *testing.T) {
	r := syntheticResult[int32](64, 3, 4)
	r.insert(r.cell(5, r.context(5, 0)), 1000) // beyond every hint below
	want := r.AllStates()
	for _, hint := range []int{int(want[len(want)-1]) + 1, 70, 0} {
		if got := ReachedStates(r, hint); !slices.Equal(got, want) {
			t.Errorf("hint %d: ReachedStates = %v, want %v", hint, got, want)
		}
	}
	if got := ReachedStates(newPathTable[int32](make([]int32, 3), 1), 8); len(got) != 0 {
		t.Errorf("empty table: ReachedStates = %v", got)
	}
}

// BenchmarkReachedStates times the bitset error scan over 48,000 path
// edges of 2,000 nodes, sized from the state count as the driver does.
func BenchmarkReachedStates(b *testing.B) {
	r := syntheticResult[int32](2000, 4, 6)
	numStates := 2000 + 4 + 6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ReachedStates(r, numStates)) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// TestCompressedViewSmallerOnChains is the structural payoff check: on a
// straight-line-heavy program the compressed view must have strictly fewer
// superedges than the raw view has edges.
func TestCompressedViewSmallerOnChains(t *testing.T) {
	prog := ir.NewProgram("main")
	cmds := make([]ir.Cmd, 40)
	for i := range cmds {
		cmds[i] = &ir.Prim{Kind: ir.Copy, Dst: fmt.Sprintf("v%d", i%5), Src: "v0"}
	}
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: cmds}})
	g := ir.BuildCFG(prog)
	raw, comp := ir.RawView(g), ir.CompressedView(g)
	if comp.NumSuperEdges >= raw.NumSuperEdges {
		t.Fatalf("no compression: %d superedges vs %d raw edges",
			comp.NumSuperEdges, raw.NumSuperEdges)
	}
}

// TestHybridsRunOnCompressedView: the hybrid walks the compressed view
// with the dense FIFO even when a td/bu test schedule asks otherwise,
// so a fresh Analysis builds the view but never a structure index for
// it.
func TestHybridsRunOnCompressedView(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 1
	cfg = PlainRPO(cfg)
	solver, taint := tdFixture(t, cfg)
	a, err := NewAnalysis[string, string, string](taint, solver.cfg.Program)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunEngine("swift", taint.Initial(), cfg)
	if err != nil || res.Err != nil {
		t.Fatalf("%v / %v", err, res.Err)
	}
	if a.view == nil || a.structIdx != nil {
		t.Errorf("view built: %v; structure index built: %v", a.view != nil, a.structIdx != nil)
	} else if want := ir.CompressedView(a.CFG).NumSuperEdges; a.view.NumSuperEdges != want {
		t.Errorf("view has %d superedges, compressed view has %d", a.view.NumSuperEdges, want)
	}
	if res.TD.Sparse.Enabled {
		t.Error("hybrid ran the sparse scheduler")
	}
}

// pathEdgeSolver returns a bare solver over an empty path-edge table whose
// node i lies in procedure procOf[i]; only the insert paths may be used.
func pathEdgeSolver(maxEdges int, procOf ...int32) *tdSolver[int, int, int] {
	procs := 0
	for _, p := range procOf {
		procs = max(procs, int(p)+1)
	}
	cfg := TDConfig()
	cfg.MaxPathEdges = maxEdges
	return &tdSolver[int, int, int]{res: newPathTable[int](procOf, procs), config: cfg}
}

// cellKind names the representation of a cell: empty, single or wide.
func cellKind(r *TDResult[int], node int, c int32) string {
	if int(c) >= len(r.rows[node]) {
		return "empty"
	}
	switch p := r.rows[node][c]; {
	case p.many < 0:
		return "single"
	case p.many > 0:
		return "wide"
	}
	return "empty"
}

// TestPathEdgeCellTransitions walks cells through empty → single → wide via
// both insert paths, checking the new states each insert reports (in
// mergeAppend's descending order), the cell's representation and contents,
// and the path-edge count.
func TestPathEdgeCellTransitions(t *testing.T) {
	s := pathEdgeSolver(1000, 0, 0, 0, 0)
	c := s.res.context(0, 7)
	for i, st := range []struct {
		out   int
		added bool
		kind  string
		want  []int
	}{
		{5, true, "single", []int{5}},
		{5, false, "single", []int{5}},
		{3, true, "wide", []int{3, 5}},
		{9, true, "wide", []int{3, 5, 9}},
		{3, false, "wide", []int{3, 5, 9}},
	} {
		added, err := s.insertFact(0, c, st.out)
		if err != nil || added != st.added {
			t.Fatalf("insertFact step %d: added=%v err=%v, want %v", i, added, err, st.added)
		}
		if k := cellKind(s.res, 0, c); k != st.kind {
			t.Errorf("insertFact step %d: cell is %s, want %s", i, k, st.kind)
		}
		if got := s.res.NodeStatesIn(0, 7); !slices.Equal(got, st.want) {
			t.Errorf("insertFact step %d: states %v, want %v", i, got, st.want)
		}
	}
	for i, st := range []struct {
		node  int
		in    sortedSet[int]
		added []int
		kind  string
		want  []int
	}{
		{1, sortedSet[int]{4}, []int{4}, "single", []int{4}},
		{1, sortedSet[int]{4}, nil, "single", []int{4}},
		{1, sortedSet[int]{2, 4, 6}, []int{6, 2}, "wide", []int{2, 4, 6}},
		{1, sortedSet[int]{1, 6, 8}, []int{8, 1}, "wide", []int{1, 2, 4, 6, 8}},
		{2, sortedSet[int]{3, 5}, []int{5, 3}, "wide", []int{3, 5}},
		{3, sortedSet[int]{4}, []int{4}, "single", []int{4}},
		{3, sortedSet[int]{5}, []int{5}, "wide", []int{4, 5}},
	} {
		added, err := s.insertFactSet(st.node, c, st.in)
		if err != nil || !slices.Equal(added, st.added) {
			t.Fatalf("insertFactSet step %d: added %v err=%v, want %v", i, added, err, st.added)
		}
		if k := cellKind(s.res, st.node, c); k != st.kind {
			t.Errorf("insertFactSet step %d: cell is %s, want %s", i, k, st.kind)
		}
		if got := s.res.NodeStatesIn(st.node, 7); !slices.Equal(got, st.want) {
			t.Errorf("insertFactSet step %d: states %v, want %v", i, got, st.want)
		}
	}
	if want := 3 + 5 + 2 + 2; s.res.NumPathEdges != want {
		t.Errorf("NumPathEdges = %d, want %d", s.res.NumPathEdges, want)
	}
}

// TestPathEdgeNewStatesMatchMergeAppend drives random cells through random
// inserts on both paths against a plain sorted-set model: every insert must
// report exactly the new states mergeAppend reports, in its order, and
// leave the cell holding the merged set.
func TestPathEdgeNewStatesMatchMergeAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := pathEdgeSolver(1<<30, 0)
	for trial := 0; trial < 300; trial++ {
		c := s.res.context(0, trial)
		var model sortedSet[int]
		for op := 0; op < 6; op++ {
			if rng.Intn(3) == 0 {
				x := rng.Intn(12)
				want, wantAdded := model.insert(x)
				added, err := s.insertFact(0, c, x)
				if err != nil || added != wantAdded {
					t.Fatalf("trial %d: insertFact(%d) = %v, %v; want %v", trial, x, added, err, wantAdded)
				}
				model = want
			} else {
				src := make([]int, rng.Intn(5))
				for i := range src {
					src[i] = rng.Intn(12)
				}
				set := newSortedSet(src)
				want, wantAdded := mergeAppend(slices.Clone(model), set, nil)
				added, err := s.insertFactSet(0, c, set)
				if err != nil || !slices.Equal(added, wantAdded) {
					t.Fatalf("trial %d: insertFactSet(%v) into %v added %v, mergeAppend %v",
						trial, set, model, added, wantAdded)
				}
				model = want
			}
			if got := s.res.NodeStatesIn(0, trial); !slices.Equal(got, model) {
				t.Fatalf("trial %d: cell holds %v, want %v", trial, got, model)
			}
		}
	}
}

// TestPathEdgeBudgetTrip checks that both insert paths stop the path-edge
// count at exactly MaxPathEdges+1.
func TestPathEdgeBudgetTrip(t *testing.T) {
	s := pathEdgeSolver(5, 0, 0)
	c := s.res.context(0, 0)
	if _, err := s.insertFactSet(0, c, sortedSet[int]{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	added, err := s.insertFactSet(1, c, sortedSet[int]{1, 2, 3, 4})
	if !errors.Is(err, ErrBudget) || len(added) != 4 {
		t.Fatalf("batch over budget: added %v, err %v", added, err)
	}
	if s.res.NumPathEdges != 6 {
		t.Errorf("batch trip: NumPathEdges = %d, want 6", s.res.NumPathEdges)
	}

	s = pathEdgeSolver(5, 0)
	c = s.res.context(0, 0)
	for i := 0; ; i++ {
		if _, err := s.insertFact(0, c, i); err != nil {
			if !errors.Is(err, ErrBudget) || i != 5 {
				t.Fatalf("per-fact trip at insert %d: %v", i, err)
			}
			break
		}
	}
	if s.res.NumPathEdges != 6 {
		t.Errorf("per-fact trip: NumPathEdges = %d, want 6", s.res.NumPathEdges)
	}
}

// TestPathEdgeLateContextRow reaches a node first under its procedure's
// second context: the row grows to the context count with an empty cell in
// front, every accessor reads it back, and the encoding lists contexts in
// state order rather than arrival order.
func TestPathEdgeLateContextRow(t *testing.T) {
	s := pathEdgeSolver(100, 0, 0, 0)
	late, early := s.res.context(0, 20), s.res.context(0, 10)
	if _, err := s.insertFact(0, late, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.insertFact(0, early, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.insertFactSet(2, early, sortedSet[int]{3, 4}); err != nil {
		t.Fatal(err)
	}
	r := s.res
	if row := r.rows[2]; len(row) != 2 || row[late].many != 0 {
		t.Fatalf("row of node 2 = %+v, want an empty cell under context 20", row)
	}
	if got := r.NodeStatesIn(2, 10); !slices.Equal(got, []int{3, 4}) {
		t.Errorf("NodeStatesIn(2, 10) = %v", got)
	}
	if got := r.NodeStatesIn(2, 20); got != nil {
		t.Errorf("NodeStatesIn(2, 20) = %v, want nil", got)
	}
	if got := r.NodeStates(2); !slices.Equal(got, []int{3, 4}) {
		t.Errorf("NodeStates(2) = %v", got)
	}
	if got := r.AllStates(); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Errorf("AllStates() = %v", got)
	}

	var want wire.Writer
	want.Raw([]byte(tdMagic))
	want.Uint(3)
	cell := func(in int64, states ...int64) {
		want.Int(in)
		want.Uint(uint64(len(states)))
		for _, s := range states {
			want.Int(s)
		}
	}
	want.Uint(2) // node 0: both contexts, in state order
	cell(10, 2)
	cell(20, 1)
	want.Uint(0) // node 1: unreached
	want.Uint(1) // node 2: context 10 only
	cell(10, 3, 4)
	want.Uint(0) // summaries
	want.Uint(0) // entry multisets
	want.Int(4)  // NumPathEdges
	want.Int(0)  // NumSummaries
	want.Int(0)  // Steps
	var got wire.Writer
	EncodeTDResult(&got, r, func(s int) int64 { return int64(s) })
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("encoding\n got %v\nwant %v", got.Bytes(), want.Bytes())
	}
}

// TestPathEdgeNodeStatesInUnseenContext: a context never seen by the
// node's procedure, or seen but never reaching the node, reads back nil.
func TestPathEdgeNodeStatesInUnseenContext(t *testing.T) {
	s := pathEdgeSolver(100, 0, 0, 1)
	if _, err := s.insertFact(0, s.res.context(0, 1), 5); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ node, in int }{{0, 2}, {1, 1}, {2, 1}} {
		if got := s.res.NodeStatesIn(q.node, q.in); got != nil {
			t.Errorf("NodeStatesIn(%d, %d) = %v, want nil", q.node, q.in, got)
		}
	}
	if got := s.res.NodeStatesIn(0, 1); !slices.Equal(got, []int{5}) {
		t.Errorf("NodeStatesIn(0, 1) = %v", got)
	}
}
