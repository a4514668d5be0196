package core

// White-box tests of the tabulation solver's memory behaviour: the worklist
// must not pin popped states through its backing array, oversized burst
// arrays must be released on drain, and the AllStates/NodeStates snapshot
// caches must be reused until the next insertion invalidates them.

import (
	"fmt"
	"testing"

	"swift/internal/ir"
	"swift/internal/killgen"
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

// syntheticResult builds a TDResult with nodes×contexts×width facts.
func syntheticResult(nodes, contexts, width int) *TDResult[int] {
	r := &TDResult[int]{PathEdges: make([]map[int]sortedSet[int], nodes)}
	for n := 0; n < nodes; n++ {
		m := map[int]sortedSet[int]{}
		for c := 0; c < contexts; c++ {
			outs := make(sortedSet[int], width)
			for w := 0; w < width; w++ {
				outs[w] = n + c + w
			}
			m[c] = newSortedSet(outs)
		}
		r.PathEdges[n] = m
		r.version += contexts * width
	}
	return r
}

// TestAllStatesMemoized checks that repeated snapshot calls allocate
// nothing and that an insertion invalidates both caches.
func TestAllStatesMemoized(t *testing.T) {
	r := syntheticResult(64, 3, 4)
	first := r.AllStates()
	if avg := testing.AllocsPerRun(100, func() { r.AllStates() }); avg != 0 {
		t.Errorf("AllStates allocated %.1f per call on a clean cache", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { r.NodeStates(7) }); avg != 0 {
		t.Errorf("NodeStates allocated %.1f per call on a clean cache", avg)
	}
	// Simulate what insertFact does: new fact, version bump.
	const novel = 1 << 20
	outs, added := r.PathEdges[0][0].insert(novel)
	if !added {
		t.Fatal("novel state not added")
	}
	r.PathEdges[0][0] = outs
	r.version++
	second := r.AllStates()
	if len(second) != len(first)+1 {
		t.Fatalf("stale snapshot after insertion: %d vs %d states", len(second), len(first))
	}
	if !sortedSet[int](second).has(novel) {
		t.Fatal("recomputed snapshot misses the new state")
	}
	if !sortedSet[int](r.NodeStates(0)).has(novel) {
		t.Fatal("recomputed node snapshot misses the new state")
	}
}

func benchmarkAllStates(b *testing.B, fresh bool) {
	r := syntheticResult(2000, 4, 6)
	r.AllStates() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh {
			r.version++ // forces a rebuild, like an interleaved insertion
		}
		if len(r.AllStates()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkAllStatesMemoized(b *testing.B) { benchmarkAllStates(b, false) }
func BenchmarkAllStatesFresh(b *testing.B)    { benchmarkAllStates(b, true) }

// TestTransferMemoHits sanity-checks that the chain memo actually engages
// on a looping program (the perf claim depends on it): after a run, at
// least one superedge must have seen more than one distinct input state,
// and re-traversing a memoized edge returns the identical cached object.
func TestTransferMemoHits(t *testing.T) {
	s, taint := tdFixture(t, TDConfig())
	if err := s.seed(taint.Initial()); err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	populated := 0
	for id, mm := range s.memo {
		if mm == nil || len(mm.idx) == 0 {
			continue
		}
		populated++
		var se *ir.SuperEdge
		for _, out := range s.view.Out {
			for _, cand := range out {
				if cand.ID == id {
					se = cand
				}
			}
		}
		states := len(mm.states)
		for s0, want := range mm.idx {
			got, k := s.chainEntry(se, s0)
			if got != mm || k != want {
				t.Fatalf("superedge %d: memo miss on cached state %v", id, s0)
			}
		}
		if len(mm.states) != states {
			t.Fatalf("superedge %d: hits grew the arena", id)
		}
	}
	if populated == 0 {
		t.Fatal("no superedge memo was populated")
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

// TestHybridsRunOnCompressedView: both hybrids walk the compressed view
// with the dense FIFO even when every td/bu ablation knob asks otherwise,
// so a fresh Analysis never builds the raw view or a structure index for
// them.
func TestHybridsRunOnCompressedView(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 1
	cfg.RawCFG, cfg.NoStructIndex = true, true
	for _, engine := range []string{"swift", "swift-async"} {
		solver, taint := tdFixture(t, cfg)
		a, err := NewAnalysis[string, string, string](taint, solver.cfg.Program)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.RunEngine(engine, taint.Initial(), cfg)
		if err != nil || res.Err != nil {
			t.Fatalf("%s: %v / %v", engine, err, res.Err)
		}
		if a.compView == nil || a.rawView != nil || a.rawStruct != nil || a.compStruct != nil {
			t.Errorf("%s: views built: compressed=%v raw=%v; structure indexes: %v %v",
				engine, a.compView != nil, a.rawView != nil, a.rawStruct != nil, a.compStruct != nil)
		}
		if res.TD.Sparse.Enabled {
			t.Errorf("%s: hybrid ran the sparse scheduler", engine)
		}
	}
}
