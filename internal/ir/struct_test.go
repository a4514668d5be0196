package ir

import "testing"

func cp(dst, src string) *Prim { return &Prim{Kind: Copy, Dst: dst, Src: src} }

// structProgram builds main with the given body and a helper callee.
func structProgram(body Cmd) *CFG {
	p := NewProgram("main")
	p.Add(&Proc{Name: "main", Body: body})
	p.Add(&Proc{Name: "util", Body: cp("u", "v")})
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return BuildCFG(p)
}

func bothViews(t *testing.T, g *CFG, check func(t *testing.T, x *StructIndex)) {
	t.Helper()
	for _, v := range []*CFGView{RawView(g), CompressedView(g)} {
		name := "raw"
		if v.Compressed {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) { check(t, BuildStructIndex(v)) })
	}
}

// checkRPOTopological asserts every superedge either increases RPO or is a
// back edge into the header of a region containing its source.
func checkRPOTopological(t *testing.T, x *StructIndex) {
	t.Helper()
	for _, n := range x.View.CFG.AllNodes {
		if x.View.Interior[n.ID] {
			continue
		}
		for _, se := range x.View.Out[n.ID] {
			from, to := se.From.ID, se.To.ID
			if x.RPO[from] < x.RPO[to] {
				continue
			}
			// Must be a back edge: target heads a region that contains from.
			rid := x.RegionOf[from]
			found := false
			for rid >= 0 {
				if x.Regions[rid].Header == to {
					found = true
					break
				}
				rid = int32(x.Regions[rid].Parent)
			}
			if !found {
				t.Errorf("edge %d->%d: RPO %d >= %d but not a back edge",
					from, to, x.RPO[from], x.RPO[to])
			}
		}
	}
}

func TestStructIndexSingleLoop(t *testing.T) {
	g := structProgram(&Seq{Cmds: []Cmd{
		cp("a", "b"),
		&Loop{Body: &Seq{Cmds: []Cmd{cp("c", "d"), cp("d", "e"), cp("e", "f")}}},
		cp("f", "g"),
	}})
	bothViews(t, g, func(t *testing.T, x *StructIndex) {
		checkRPOTopological(t, x)
		if len(x.Regions) != 1 {
			t.Fatalf("regions = %d, want 1", len(x.Regions))
		}
		r := x.Regions[0]
		if r.Depth != 1 || x.MaxDepth != 1 || r.Parent != -1 {
			t.Errorf("depth/parent = %d/%d, MaxDepth %d, want 1/-1, 1", r.Depth, r.Parent, x.MaxDepth)
		}
		if x.RegionOf[r.Header] != int32(r.ID) || x.Depth[r.Header] != 1 {
			t.Errorf("header RegionOf/Depth = %d/%d", x.RegionOf[r.Header], x.Depth[r.Header])
		}
	})
}

func TestStructIndexNestedLoops(t *testing.T) {
	g := structProgram(&Seq{Cmds: []Cmd{
		cp("a", "b"),
		&Loop{Body: &Seq{Cmds: []Cmd{
			cp("c", "d"),
			&Loop{Body: &Seq{Cmds: []Cmd{
				cp("d", "e"),
				&Loop{Body: cp("e", "f")},
			}}},
		}}},
	}})
	bothViews(t, g, func(t *testing.T, x *StructIndex) {
		checkRPOTopological(t, x)
		if len(x.Regions) != 3 || x.MaxDepth != 3 {
			t.Fatalf("regions = %d, MaxDepth = %d, want 3 and 3", len(x.Regions), x.MaxDepth)
		}
		byDepth := map[int]*Region{}
		for _, r := range x.Regions {
			byDepth[r.Depth] = r
		}
		for d := 1; d <= 3; d++ {
			if byDepth[d] == nil {
				t.Fatalf("no region at depth %d", d)
			}
		}
		if byDepth[3].Parent != byDepth[2].ID || byDepth[2].Parent != byDepth[1].ID {
			t.Errorf("parent chain broken: %+v", x.Regions)
		}
		if byDepth[1].Parent != -1 {
			t.Errorf("outermost region has parent %d", byDepth[1].Parent)
		}
		// Innermost header must be the deepest of the three headers.
		if x.Depth[byDepth[3].Header] != 3 {
			t.Errorf("Depth[innermost header] = %d, want 3", x.Depth[byDepth[3].Header])
		}
	})
}

func TestStructIndexLoopWithCall(t *testing.T) {
	g := structProgram(&Seq{Cmds: []Cmd{
		&Loop{Body: &Seq{Cmds: []Cmd{cp("a", "b"), &Call{Callee: "util"}}}},
	}})
	bothViews(t, g, func(t *testing.T, x *StructIndex) {
		checkRPOTopological(t, x)
		if len(x.Regions) != 1 {
			t.Fatalf("regions = %d, want 1", len(x.Regions))
		}
		if r := x.Regions[0]; r.Depth != 1 || x.Depth[r.Header] != 1 {
			t.Errorf("region depth %d, header depth %d, want 1 and 1", r.Depth, x.Depth[r.Header])
		}
	})
}

func TestStructIndexBranchNoLoops(t *testing.T) {
	g := structProgram(&Choice{Alts: []Cmd{cp("a", "b"), cp("c", "d"), cp("e", "f")}})
	bothViews(t, g, func(t *testing.T, x *StructIndex) {
		checkRPOTopological(t, x)
		if len(x.Regions) != 0 || x.MaxDepth != 0 {
			t.Fatalf("regions = %d, MaxDepth = %d, want none", len(x.Regions), x.MaxDepth)
		}
		for _, n := range g.AllNodes {
			if x.RegionOf[n.ID] != -1 {
				t.Errorf("node %d assigned region %d in loop-free program", n.ID, x.RegionOf[n.ID])
			}
		}
	})
}

func TestStructIndexSelfLoop(t *testing.T) {
	// An empty loop body lowers to a single self edge head->head.
	g := structProgram(&Seq{Cmds: []Cmd{cp("a", "b"), &Loop{Body: &Seq{}}, cp("b", "c")}})
	bothViews(t, g, func(t *testing.T, x *StructIndex) {
		checkRPOTopological(t, x)
		if len(x.Regions) != 1 {
			t.Fatalf("regions = %d, want 1", len(x.Regions))
		}
		// The header is the loop's only member: its neighbours sit
		// outside every region.
		r := x.Regions[0]
		for _, n := range g.AllNodes {
			if inLoop := x.RegionOf[n.ID] == int32(r.ID); inLoop != (n.ID == r.Header) {
				t.Errorf("node %d: RegionOf = %d, header %d", n.ID, x.RegionOf[n.ID], r.Header)
			}
		}
	})
}
