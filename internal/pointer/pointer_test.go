package pointer

import (
	"slices"
	"testing"

	"swift/internal/hir"
	"swift/internal/typestate"
)

// fixture builds a program exercising dispatch, field flow, returns,
// recursion and unreachable code.
func fixture(t *testing.T) (*hir.Program, *Result) {
	t.Helper()
	p := hir.NewProgram()
	p.AddProperty(typestate.FileProperty())

	shape := hir.NewClass("Shape", "")
	shape.AddMethod(&hir.Method{Name: "draw", Body: &hir.Block{Stmts: []hir.Stmt{&hir.Skip{}}}})
	p.AddClass(shape)

	circle := hir.NewClass("Circle", "Shape")
	circle.AddMethod(&hir.Method{Name: "draw", Body: &hir.Block{Stmts: []hir.Stmt{
		// Recursion through this.
		&hir.CallStmt{Method: "draw"},
	}}})
	p.AddClass(circle)

	square := hir.NewClass("Square", "Shape") // inherits draw
	p.AddClass(square)

	box := hir.NewClass("Box", "")
	box.Fields = []string{"item"}
	box.AddMethod(&hir.Method{Name: "put", Params: []string{"x"}, Body: &hir.Block{Stmts: []hir.Stmt{
		&hir.StoreStmt{Base: "this", Field: "item", Src: "x"},
	}}})
	box.AddMethod(&hir.Method{Name: "get", Body: &hir.Block{Stmts: []hir.Stmt{
		&hir.LoadStmt{Dst: "r", Base: "this", Field: "item"},
		&hir.Return{Src: "r"},
	}}})
	p.AddClass(box)

	dead := hir.NewClass("Dead", "")
	dead.AddMethod(&hir.Method{Name: "never", Body: &hir.Block{Stmts: []hir.Stmt{&hir.Skip{}}}})
	p.AddClass(dead)

	main := hir.NewClass("Main", "")
	main.AddMethod(&hir.Method{Name: "main", Body: &hir.Block{Stmts: []hir.Stmt{
		&hir.NewStmt{Dst: "c", Type: "Circle", Site: "circ"},
		&hir.NewStmt{Dst: "s", Type: "Square", Site: "sq"},
		&hir.Assign{Dst: "x", Src: "c"},
		&hir.If{
			Then: &hir.Block{Stmts: []hir.Stmt{&hir.Assign{Dst: "x", Src: "s"}}},
		},
		&hir.CallStmt{Recv: "x", Method: "draw"},
		&hir.NewStmt{Dst: "b", Type: "Box", Site: "box"},
		&hir.NewStmt{Dst: "f", Type: "File", Site: "file"},
		&hir.CallStmt{Recv: "b", Method: "put", Args: []string{"f"}},
		&hir.CallStmt{Dst: "g", Recv: "b", Method: "get"},
		&hir.CallStmt{Recv: "g", Method: "open"},
	}}})
	p.AddClass(main)
	p.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	r, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p, r
}

func TestReachability(t *testing.T) {
	_, r := fixture(t)
	names := map[string]bool{}
	for _, m := range r.ReachableMethods() {
		names[m.QName()] = true
	}
	for _, want := range []string{"Main.main", "Circle.draw", "Shape.draw", "Box.put", "Box.get"} {
		if !names[want] {
			t.Errorf("method %s should be reachable (have %v)", want, names)
		}
	}
	if names["Dead.never"] {
		t.Error("Dead.never should be unreachable")
	}
}

func TestDevirtualization(t *testing.T) {
	p, r := fixture(t)
	// The x.draw() call dispatches on {circ, sq}: Circle overrides draw,
	// Square inherits Shape.draw — two targets.
	var call *hir.CallStmt
	var walk func(s hir.Stmt)
	walk = func(s hir.Stmt) {
		switch s := s.(type) {
		case *hir.Block:
			for _, st := range s.Stmts {
				walk(st)
			}
		case *hir.If:
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *hir.CallStmt:
			if s.Method == "draw" && s.Recv == "x" {
				call = s
			}
		}
	}
	walk(p.Class("Main").Method("main").Body)
	if call == nil {
		t.Fatal("draw call not found")
	}
	targets := r.Targets(call)
	if len(targets) != 2 {
		t.Fatalf("draw targets = %d, want 2", len(targets))
	}
	if targets[0].QName() != "Circle.draw" || targets[1].QName() != "Shape.draw" {
		t.Errorf("targets = %s, %s", targets[0].QName(), targets[1].QName())
	}
}

func TestFieldFlowAndOracle(t *testing.T) {
	_, r := fixture(t)
	// The file flows main.f → put.x → box.item → get.r → get.$ret → main.g.
	for _, q := range []string{"Main.main$f", "Box.put$x", "Box.get$r", "Box.get$" + hir.RetVar, "Main.main$g"} {
		if !r.PathMayPoint(q, "", "file") {
			t.Errorf("%s should may-point to file", q)
		}
	}
	if r.PathMayPoint("Main.main$g", "", "circ") {
		t.Error("g should not may-point to circ")
	}
	// Field query: put's receiver field item holds the file.
	if !r.PathMayPoint("Box.put$this", "item", "file") {
		t.Error("Box.put$this.item should may-point to file")
	}
	// The per-path query lists exactly the sites PathMayPoint accepts,
	// once each, in increasing order.
	for _, q := range [][2]string{{"Main.main$g", ""}, {"Box.put$this", "item"}, {"Ghost.var$x", ""}} {
		got := r.PathSites(nil, q[0], q[1])
		var want []int
		for i, site := range r.Sites() {
			if r.PathMayPoint(q[0], q[1], site) {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("PathSites(%s, %q) = %v, want %v", q[0], q[1], got, want)
		}
	}
	// Unknown names point nowhere.
	if r.PathMayPoint("Ghost.var$x", "", "file") || r.PathMayPoint("Main.main$g", "", "nosite") {
		t.Error("unknown variable or site should not may-point")
	}
}

func TestStats(t *testing.T) {
	_, r := fixture(t)
	st := r.CollectStats()
	if st.ReachableMethods != 5 {
		t.Errorf("ReachableMethods = %d, want 5", st.ReachableMethods)
	}
	if st.Sites != 4 {
		t.Errorf("Sites = %d, want 4", st.Sites)
	}
	if st.CallEdges < 5 {
		t.Errorf("CallEdges = %d, want >= 5", st.CallEdges)
	}
}

func TestBitset(t *testing.T) {
	var b bitset
	if !b.set(3) || b.set(3) {
		t.Error("set should report first insertion only")
	}
	b.set(100)
	if !b.has(3) || !b.has(100) || b.has(64) {
		t.Error("membership wrong")
	}
	var c bitset
	c.set(64)
	if !c.orChanged(b) {
		t.Error("orChanged should report growth")
	}
	if c.orChanged(b) {
		t.Error("second or should be a no-op")
	}
	var got []int
	c.each(func(i int) { got = append(got, i) })
	want := []int{3, 64, 100}
	if len(got) != len(want) {
		t.Fatalf("each = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("each = %v, want %v", got, want)
		}
	}
	if c.count() != 3 {
		t.Errorf("count = %d", c.count())
	}
	if bitset(nil).empty() != true || c.empty() {
		t.Error("empty wrong")
	}
}
