package typestate

import (
	"math/rand"
	"reflect"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
)

// TestCompiledTransMatchesTrans checks the TransCompiler contract
// (internal/core/client.go): for every primitive of a program and every
// abstract state the top-down analysis reaches, the compiled transfer must
// append exactly what Trans returns — same states, same order — and must
// extend the destination slice it is given rather than replace it.
func TestCompiledTransMatchesTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	file := FileProperty()
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng)
		ts, err := NewAnalysis(prog, map[string]*Property{"s1": file, "s2": file}, nil)
		if err != nil {
			t.Fatalf("trial %d: NewAnalysis: %v", trial, err)
		}
		an, err := core.NewAnalysis[AbsID, RelID, FormulaID](ts, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := an.RunTD(ts.InitialState(), core.TDConfig())
		if !res.Completed() {
			t.Fatalf("trial %d: TD did not complete: %v", trial, res.Err)
		}
		states := res.TD.AllStates()
		if len(states) == 0 {
			t.Fatalf("trial %d: no reached states", trial)
		}
		prefix := []AbsID{states[0]}
		checked := 0
		for _, proc := range an.CFG.ByProc {
			for _, n := range proc.Nodes {
				for _, e := range n.Out {
					if e.IsCall() {
						continue
					}
					compiled := ts.CompileTrans(e.Prim)
					for _, s := range states {
						want := ts.Trans(e.Prim, s)
						got := compiled(s, nil)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d: %v on state %d: compiled %v, Trans %v",
								trial, e.Prim, s, got, want)
						}
						// Append semantics: an existing prefix must survive.
						got2 := compiled(s, append([]AbsID(nil), prefix...))
						if len(got2) != 1+len(want) || got2[0] != prefix[0] ||
							!reflect.DeepEqual(got2[1:], want) {
							t.Fatalf("trial %d: %v on state %d: compiled clobbered dst: %v",
								trial, e.Prim, s, got2)
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("trial %d: no primitive/state pairs checked", trial)
		}
	}
}

// TestCompileTransCached checks that compiling the same primitive twice
// returns the same cached function, so repeated solver runs do not redo the
// per-primitive resolution work.
func TestCompileTransCached(t *testing.T) {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "a", Site: "s1"},
		&ir.Prim{Kind: ir.TSCall, Dst: "a", Method: "open"},
	}}})
	ts, err := NewAnalysis(prog, map[string]*Property{"s1": FileProperty()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalysis[AbsID, RelID, FormulaID](ts, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range an.CFG.ByProc {
		for _, n := range proc.Nodes {
			for _, e := range n.Out {
				if e.IsCall() {
					continue
				}
				f1 := ts.CompileTrans(e.Prim)
				f2 := ts.CompileTrans(e.Prim)
				if reflect.ValueOf(f1).Pointer() != reflect.ValueOf(f2).Pointer() {
					t.Fatalf("%v: CompileTrans not cached", e.Prim)
				}
			}
		}
	}
}

// TestCompiledTransferKeepsUnchangedID pins the unchanged-state fast path of
// the compiled transfers: for every primitive kind that builds a new
// abstract state (New's surviving object, Copy, Load, Store, TSCall, Kill),
// a state the transfer leaves unchanged comes back as the input ID without
// a single probe of the abstract-state table and without growing it, and a
// state it changes gets the ID the uncompiled Trans gives it. Every one of
// those kinds must show both cases, so the test cannot pass vacuously.
func TestCompiledTransferKeepsUnchangedID(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	file := FileProperty()
	kinds := []ir.PrimKind{ir.New, ir.Copy, ir.Load, ir.Store, ir.TSCall, ir.Kill}
	unchanged, changed := map[ir.PrimKind]int{}, map[ir.PrimKind]int{}
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng)
		ts, err := NewAnalysis(prog, map[string]*Property{"s1": file, "s2": file}, nil)
		if err != nil {
			t.Fatalf("trial %d: NewAnalysis: %v", trial, err)
		}
		an, err := core.NewAnalysis[AbsID, RelID, FormulaID](ts, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := an.RunTD(ts.InitialState(), core.TDConfig())
		if !res.Completed() {
			t.Fatalf("trial %d: TD did not complete: %v", trial, res.Err)
		}
		states := res.TD.AllStates()
		abs := ts.tab.abs
		probes := 0
		hash := abs.hash
		abs.hash = func(k []int32) uint64 { probes++; return hash(k) }
		for _, proc := range an.CFG.ByProc {
			for _, n := range proc.Nodes {
				for _, e := range n.Out {
					if e.IsCall() || (e.Prim.Kind == ir.Copy && e.Prim.Dst == e.Prim.Src) {
						continue
					}
					f := ts.CompileTrans(e.Prim) // New interns its fresh state here
					for _, s := range states {
						size, before := abs.size(), probes
						got := f(s, nil)
						grew, probed := abs.size()-size, probes-before
						want := ts.Trans(e.Prim, s)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d: %v on state %d: compiled %v, Trans %v",
								trial, e.Prim, s, got, want)
						}
						if len(want) == 0 {
							continue
						}
						if want[0] != s {
							changed[e.Prim.Kind]++
							continue
						}
						unchanged[e.Prim.Kind]++
						if probed != 0 || grew != 0 {
							t.Fatalf("trial %d: %v leaves state %d unchanged but probed the table %d times and grew it by %d",
								trial, e.Prim, s, probed, grew)
						}
					}
				}
			}
		}
	}
	for _, k := range kinds {
		if unchanged[k] == 0 || changed[k] == 0 {
			t.Errorf("%v: %d unchanged and %d changed states checked; want both", k, unchanged[k], changed[k])
		}
	}
}
