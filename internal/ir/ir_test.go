package ir

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func sampleProgram() *Program {
	p := NewProgram("main")
	p.Add(&Proc{Name: "main", Body: &Seq{Cmds: []Cmd{
		&Prim{Kind: New, Dst: "v", Site: "h1"},
		&Call{Callee: "helper"},
		&Loop{Body: &Prim{Kind: TSCall, Dst: "v", Method: "read"}},
	}}})
	p.Add(&Proc{Name: "helper", Body: &Choice{Alts: []Cmd{
		&Prim{Kind: Copy, Dst: "w", Src: "v"},
		&Seq{Cmds: []Cmd{
			&Prim{Kind: Store, Dst: "w", Field: "f", Src: "v"},
			&Prim{Kind: Load, Dst: "u", Src: "w", Field: "f"},
			&Call{Callee: "leaf"},
		}},
	}}})
	p.Add(&Proc{Name: "leaf", Body: &Prim{Kind: Kill, Dst: "u"}})
	return p
}

func TestValidateAccepts(t *testing.T) {
	if err := sampleProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		prog func() *Program
		want string
	}{
		{"missing entry", func() *Program {
			p := NewProgram("nope")
			p.Add(&Proc{Name: "main", Body: &Prim{Kind: Nop}})
			return p
		}, "entry"},
		{"undefined callee", func() *Program {
			p := NewProgram("main")
			p.Add(&Proc{Name: "main", Body: &Call{Callee: "ghost"}})
			return p
		}, "undefined"},
		{"empty choice", func() *Program {
			p := NewProgram("main")
			p.Add(&Proc{Name: "main", Body: &Choice{}})
			return p
		}, "choice"},
		{"nil command", func() *Program {
			p := NewProgram("main")
			p.Add(&Proc{Name: "main", Body: &Seq{Cmds: []Cmd{nil}}})
			return p
		}, "nil"},
	}
	for _, c := range cases {
		err := c.prog().Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestReachable(t *testing.T) {
	p := sampleProgram()
	got := p.Reachable("main")
	want := []string{"helper", "leaf", "main"}
	if len(got) != len(want) {
		t.Fatalf("Reachable(main) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Reachable(main) = %v, want %v", got, want)
		}
	}
	if leafOnly := p.Reachable("leaf"); len(leafOnly) != 1 || leafOnly[0] != "leaf" {
		t.Errorf("Reachable(leaf) = %v", leafOnly)
	}
}

func TestCallees(t *testing.T) {
	p := sampleProgram()
	got := Callees(p.Procs["helper"].Body)
	if len(got) != 1 || got[0] != "leaf" {
		t.Errorf("Callees(helper) = %v, want [leaf]", got)
	}
	if got := Callees(p.Procs["leaf"].Body); len(got) != 0 {
		t.Errorf("Callees(leaf) = %v, want none", got)
	}
}

func TestCollectStats(t *testing.T) {
	st := CollectStats(sampleProgram())
	if st.Procs != 3 {
		t.Errorf("Procs = %d, want 3", st.Procs)
	}
	if st.Calls != 2 {
		t.Errorf("Calls = %d, want 2", st.Calls)
	}
	if st.Choices != 1 || st.Loops != 1 {
		t.Errorf("Choices/Loops = %d/%d, want 1/1", st.Choices, st.Loops)
	}
	if st.Prims != 6 {
		t.Errorf("Prims = %d, want 6", st.Prims)
	}
}

func TestPrintRoundtrips(t *testing.T) {
	out := Print(sampleProgram())
	for _, want := range []string{
		"proc main {", "v = new h1", "call helper",
		"loop {", "choice {", "} or {", "w.f = v", "u = w.f", "kill u",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

// TestPrimStringMatchesFmtReference pins every primitive's surface syntax
// against the fmt rendering it replaced.
func TestPrimStringMatchesFmtReference(t *testing.T) {
	for _, c := range []struct {
		p    Prim
		want string
	}{
		{Prim{Kind: Nop}, "nop"},
		{Prim{Kind: New, Dst: "v", Site: "h1"}, fmt.Sprintf("%s = new %s", "v", "h1")},
		{Prim{Kind: Copy, Dst: "v", Src: "w"}, fmt.Sprintf("%s = %s", "v", "w")},
		{Prim{Kind: Load, Dst: "v", Src: "w", Field: "f"}, fmt.Sprintf("%s = %s.%s", "v", "w", "f")},
		{Prim{Kind: Store, Dst: "v", Src: "w", Field: "f"}, fmt.Sprintf("%s.%s = %s", "v", "f", "w")},
		{Prim{Kind: TSCall, Dst: "v", Method: "open"}, fmt.Sprintf("%s.%s()", "v", "open")},
		{Prim{Kind: Kill, Dst: "v"}, fmt.Sprintf("kill %s", "v")},
		{Prim{Kind: Assert, Dst: "v", Method: "open"}, fmt.Sprintf("assert %s ~ %s", "v", "open")},
		{Prim{Kind: PrimKind(99)}, "prim?"},
		{Prim{Kind: New, Dst: strings.Repeat("x", 100), Site: "h"}, strings.Repeat("x", 100) + " = new h"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("%v: String = %q, want %q", c.p.Kind, got, c.want)
		}
		if got := c.p.Key(); got != c.want {
			t.Errorf("%v: Key = %q, want %q", c.p.Kind, got, c.want)
		}
	}
}

// chunkWriter records each Write and fails once it has seen failAt bytes
// (never when failAt is 0).
type chunkWriter struct {
	bytes.Buffer
	writes, failAt int
}

func (w *chunkWriter) Write(b []byte) (int, error) {
	if w.failAt > 0 && w.Len()+len(b) > w.failAt {
		return 0, errors.New("disk full")
	}
	w.writes++
	return w.Buffer.Write(b)
}

// TestFprintStreamsPrint checks that Fprint writes exactly Print's bytes,
// in more than one chunk for a program larger than its buffer, and that
// it reports the writer's first error.
func TestFprintStreamsPrint(t *testing.T) {
	want := "proc helper {\n  choice {\n    w = v\n  } or {\n    w.f = v\n    u = w.f\n    call leaf\n  }\n}\n" +
		"\nproc leaf {\n  kill u\n}\n" +
		"\nproc main {\n  v = new h1\n  call helper\n  loop {\n    v.read()\n  }\n}\n"
	if got := Print(sampleProgram()); got != want {
		t.Fatalf("Print =\n%s\nwant\n%s", got, want)
	}
	big := sampleProgram()
	var body []Cmd
	for i := 0; i < 2000; i++ {
		body = append(body, &Loop{Body: &Prim{Kind: New, Dst: fmt.Sprintf("v%d", i), Site: "h1"}})
	}
	big.Add(&Proc{Name: "big", Body: &Seq{Cmds: body}})
	var w chunkWriter
	if err := Fprint(&w, big); err != nil {
		t.Fatal(err)
	}
	if w.String() != Print(big) {
		t.Fatal("Fprint bytes differ from Print")
	}
	if w.writes < 2 {
		t.Fatalf("Fprint wrote %d bytes in %d writes, want chunks", w.Len(), w.writes)
	}
	if err := Fprint(&chunkWriter{failAt: 3 * 4096}, big); err == nil || err.Error() != "disk full" {
		t.Fatalf("Fprint error = %v, want the writer's", err)
	}
}

func TestCFGStructure(t *testing.T) {
	p := sampleProgram()
	g := BuildCFG(p)
	if len(g.ByProc) != 3 {
		t.Fatalf("CFG has %d procs, want 3", len(g.ByProc))
	}
	// Every proc entry differs from its exit, and node IDs are dense.
	for name, pc := range g.ByProc {
		if pc.Entry == pc.Exit {
			t.Errorf("%s: entry == exit", name)
		}
	}
	if len(g.AllNodes) != g.NodeCount {
		t.Errorf("AllNodes has %d entries, NodeCount = %d", len(g.AllNodes), g.NodeCount)
	}
	for i, n := range g.AllNodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
	// helper's choice: its entry must have two outgoing edges.
	h := g.ByProc["helper"]
	if len(h.Entry.Out) != 2 {
		t.Errorf("helper entry has %d out edges, want 2", len(h.Entry.Out))
	}
	// Exactly one call edge to leaf.
	calls := 0
	for _, n := range h.Nodes {
		for _, e := range n.Out {
			if e.IsCall() && e.Call == "leaf" {
				calls++
			}
		}
	}
	if calls != 1 {
		t.Errorf("helper has %d call edges to leaf, want 1", calls)
	}
	// The loop in main admits zero iterations: a nop path from the loop
	// head to main's exit must exist.
	if !strings.Contains(g.Dump(), "nop") {
		t.Errorf("CFG dump missing structural nop edges:\n%s", g.Dump())
	}
}

func TestCFGLoopReachesExit(t *testing.T) {
	p := NewProgram("main")
	p.Add(&Proc{Name: "main", Body: &Loop{Body: &Prim{Kind: Nop}}})
	g := BuildCFG(p)
	pc := g.ByProc["main"]
	// BFS from entry must reach exit.
	seen := map[int]bool{pc.Entry.ID: true}
	queue := []*Node{pc.Entry}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if !seen[e.To.ID] {
				seen[e.To.ID] = true
				queue = append(queue, e.To)
			}
		}
	}
	if !seen[pc.Exit.ID] {
		t.Fatal("loop exit unreachable from entry")
	}
}
