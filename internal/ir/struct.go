package ir

import "sort"

// This file builds the per-procedure structure index consumed by the sparse
// tabulation scheduler (internal/core): reverse-postorder numbering over a
// CFGView plus the loop-nest hierarchy of natural loops, which together
// give every traversal point its priority key. The index is pure graph
// structure — it never inspects abstract states — so, like the view itself,
// one index is built per view and shared by every run over it (including
// concurrent sliced runs; see core.RunSliceSet's pre-build).

// Region is one natural loop of a procedure, discovered from the view's
// back edges (superedges whose target is on the DFS stack). Loops sharing a
// header are merged, so a header identifies its region uniquely.
type Region struct {
	// ID is dense over the index: [0, len(Regions)).
	ID   int
	Proc string
	// Header is the node ID of the loop header.
	Header int
	// Parent is the ID of the innermost enclosing region, or -1 for an
	// outermost loop.
	Parent int
	// Depth is the nesting depth: 1 for an outermost loop.
	Depth int
}

// StructIndex is the loop-structure overlay of one CFGView.
type StructIndex struct {
	View *CFGView
	// RPO is a reverse-postorder position per node ID, globally unique and
	// increasing within each procedure (procedures in sorted name order).
	// Interior nodes of compressed chains — never traversal points — hold
	// -1.
	RPO []int32
	// Depth is the innermost loop-nesting depth per traversal point; 0
	// outside all loops and at chain interiors.
	Depth []int32
	// RegionOf is the innermost region ID containing each traversal
	// point, or -1 (also at chain interiors).
	RegionOf []int32
	// Regions lists all loop regions, IDs dense in discovery order
	// (procedures sorted by name, headers by RPO).
	Regions []*Region
	// MaxDepth is the deepest loop nesting in the program.
	MaxDepth int
}

// BuildStructIndex computes the structure index of a view. The result
// depends only on the view's graph, so it is deterministic and immutable
// once built.
func BuildStructIndex(v *CFGView) *StructIndex {
	g := v.CFG
	x := &StructIndex{
		View:     v,
		RPO:      make([]int32, g.NodeCount),
		Depth:    make([]int32, g.NodeCount),
		RegionOf: make([]int32, g.NodeCount),
	}
	for i := 0; i < g.NodeCount; i++ {
		x.RPO[i] = -1
		x.RegionOf[i] = -1
	}
	rpoNext := int32(0)
	for _, name := range g.Program.ProcNames() {
		x.buildProc(g.ByProc[name], &rpoNext)
	}
	for _, r := range x.Regions {
		if r.Depth > x.MaxDepth {
			x.MaxDepth = r.Depth
		}
	}
	return x
}

// buildProc indexes one procedure: DFS over the view's superedges for
// postorder and back edges, natural-loop membership per back-edge target,
// then nesting and the per-node innermost region and depth.
func (x *StructIndex) buildProc(pc *ProcCFG, rpoNext *int32) {
	v := x.View
	const (
		onStack byte = 1
		visited byte = 2
	)
	state := map[int]byte{}
	type frame struct {
		node int
		edge int
	}
	type backEdge struct{ from, head int }
	var (
		stack []frame
		post  []int
		backs []backEdge
	)
	state[pc.Entry.ID] = onStack
	stack = append(stack, frame{node: pc.Entry.ID})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.edge < len(v.Out[f.node]) {
			to := v.Out[f.node][f.edge].To.ID
			f.edge++
			switch state[to] {
			case 0:
				state[to] = onStack
				stack = append(stack, frame{node: to})
			case onStack:
				backs = append(backs, backEdge{from: f.node, head: to})
			}
			continue
		}
		state[f.node] = visited
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	for i := len(post) - 1; i >= 0; i-- {
		x.RPO[post[i]] = *rpoNext
		*rpoNext++
	}
	if len(backs) == 0 {
		return
	}

	// Natural-loop membership: everything that reaches the back edge's
	// source without passing through the header, plus the header itself.
	preds := map[int][]int{}
	for _, n := range post {
		for _, se := range v.Out[n] {
			preds[se.To.ID] = append(preds[se.To.ID], n)
		}
	}
	members := map[int]map[int]bool{}
	for _, b := range backs {
		m := members[b.head]
		if m == nil {
			m = map[int]bool{b.head: true}
			members[b.head] = m
		}
		if m[b.from] {
			continue
		}
		m[b.from] = true
		walk := []int{b.from}
		for len(walk) > 0 {
			n := walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			for _, p := range preds[n] {
				if !m[p] {
					m[p] = true
					walk = append(walk, p)
				}
			}
		}
	}
	heads := make([]int, 0, len(members))
	for h := range members {
		heads = append(heads, h)
	}
	sort.Slice(heads, func(i, j int) bool { return x.RPO[heads[i]] < x.RPO[heads[j]] })

	regs := make([]*Region, len(heads))
	for i, h := range heads {
		regs[i] = &Region{ID: len(x.Regions), Proc: pc.Proc, Header: h, Parent: -1}
		x.Regions = append(x.Regions, regs[i])
	}
	// Nesting: the parent of a region is the smallest other region whose
	// member set contains its header. Structured programs produce reducible
	// graphs, where distinct natural loops are disjoint or nested, so
	// containment of the header implies containment of the loop.
	innermost := func(n, skip int) int {
		best := -1
		for i, h := range heads {
			if i == skip || !members[h][n] {
				continue
			}
			if best == -1 || len(members[heads[best]]) > len(members[h]) {
				best = i
			}
		}
		return best
	}
	for i, h := range heads {
		if p := innermost(h, i); p >= 0 {
			regs[i].Parent = regs[p].ID
		}
	}
	for i := range regs {
		d, p := 1, regs[i].Parent
		for p >= 0 {
			d++
			p = x.Regions[p].Parent
		}
		regs[i].Depth = d
	}
	for _, n := range post {
		if i := innermost(n, -1); i >= 0 {
			x.RegionOf[n] = int32(regs[i].ID)
			x.Depth[n] = int32(regs[i].Depth)
		}
	}
}
