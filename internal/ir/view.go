package ir

// This file builds the solver-facing views of a CFG. The original
// node/edge graph (cfg.go) stays untouched — the interpreter, checkers and
// diagnostics keep walking it — while the tabulation solver traverses a
// CFGView: the compressed view, in which maximal chains of
// single-predecessor/single-successor primitive edges are collapsed into
// one superedge carrying the whole primitive sequence, or the raw view
// with one superedge per original edge, which the equivalence tests use as
// the compressed view's oracle. Compression lets the solver pay one
// worklist item per straight-line region instead of one per edge.

// SuperEdge is one traversal unit of a CFGView: either a single call edge
// (never compressed) or a chain of one or more primitive edges.
type SuperEdge struct {
	// ID is dense over the view: [0, CFGView.NumSuperEdges). Solvers index
	// per-superedge caches by it.
	ID   int
	From *Node
	To   *Node
	// Call is the callee name for call edges, "" for primitive chains.
	Call string
	// Prims is the primitive sequence along the chain, in execution order;
	// nil for call edges.
	Prims []*Prim
	// Interior lists the original nodes the chain passes through:
	// Interior[i] is the node reached after executing Prims[i], so
	// len(Interior) == len(Prims)-1. Empty for single-edge superedges.
	Interior []*Node
	// Edges lists the underlying original edges in execution order, so
	// diagnostics can map a superedge back to the source graph.
	Edges []*Edge
}

// IsCall reports whether the superedge is a procedure-call edge.
func (e *SuperEdge) IsCall() bool { return e.Call != "" }

// Len returns the number of original edges the superedge covers.
func (e *SuperEdge) Len() int { return len(e.Edges) }

// CFGView is a traversal overlay on a CFG: per-node outgoing superedges.
// Node IDs, entry/exit designations and the original graph are shared with
// the underlying CFG.
type CFGView struct {
	CFG *CFG
	// Out lists the outgoing superedges per node ID, in the same relative
	// order as the node's original out-edges. Interior nodes of compressed
	// chains have no superedges: their facts are produced by the chain
	// walk, never popped from a worklist.
	Out [][]*SuperEdge
	// Interior reports, per node ID, whether the node was swallowed into a
	// compressed chain.
	Interior []bool
	// NumSuperEdges is the total superedge count; superedge IDs range over
	// [0, NumSuperEdges).
	NumSuperEdges int
	// Compressed records which constructor built the view.
	Compressed bool
}

// RawView builds the one-superedge-per-edge view: traversing it is
// step-for-step identical to walking the original graph. No engine runs on
// it; the compressed ≡ raw equivalence tests do (DESIGN.md §6.1).
func RawView(g *CFG) *CFGView {
	v := &CFGView{
		CFG:      g,
		Out:      make([][]*SuperEdge, g.NodeCount),
		Interior: make([]bool, g.NodeCount),
	}
	for _, n := range g.AllNodes {
		if len(n.Out) == 0 {
			continue
		}
		out := make([]*SuperEdge, len(n.Out))
		for i, e := range n.Out {
			se := &SuperEdge{
				ID:    v.NumSuperEdges,
				From:  n,
				To:    e.To,
				Call:  e.Call,
				Edges: []*Edge{e},
			}
			if !e.IsCall() {
				se.Prims = []*Prim{e.Prim}
			}
			v.NumSuperEdges++
			out[i] = se
		}
		v.Out[n.ID] = out
	}
	return v
}

// CompressedView builds the superblock view: maximal chains of primitive
// edges through interior nodes are collapsed into single superedges. A
// node is interior when it is neither the entry nor the exit of its
// procedure, has exactly one incoming and one outgoing edge, both
// primitive (calls are never compressed: the solver must intercept them),
// and neither edge is a self-loop. Entry and exit nodes always remain
// traversal points, so summary recording and seeding are untouched; every
// chain therefore begins and ends at a non-interior node, and a chain may
// legally return to its own start (a loop whose body is straight-line).
func CompressedView(g *CFG) *CFGView {
	v := &CFGView{
		CFG:        g,
		Out:        make([][]*SuperEdge, g.NodeCount),
		Interior:   make([]bool, g.NodeCount),
		Compressed: true,
	}
	for _, pc := range g.ByProc {
		for _, n := range pc.Nodes {
			v.Interior[n.ID] = n != pc.Entry && n != pc.Exit &&
				len(n.In) == 1 && len(n.Out) == 1 &&
				!n.In[0].IsCall() && !n.Out[0].IsCall() &&
				n.In[0].From != n && n.Out[0].To != n
		}
	}
	for _, n := range g.AllNodes {
		if v.Interior[n.ID] || len(n.Out) == 0 {
			continue
		}
		out := make([]*SuperEdge, len(n.Out))
		for i, e := range n.Out {
			se := &SuperEdge{ID: v.NumSuperEdges, From: n, Call: e.Call}
			v.NumSuperEdges++
			if e.IsCall() {
				se.To = e.To
				se.Edges = []*Edge{e}
				out[i] = se
				continue
			}
			// Extend the chain through interior nodes. Termination: every
			// step leaves via an interior node's single out-edge, and a
			// cycle made purely of interior nodes cannot be entered (its
			// nodes would need a second in-edge), so the walk reaches a
			// non-interior node.
			se.Prims = []*Prim{e.Prim}
			se.Edges = []*Edge{e}
			cur := e.To
			for v.Interior[cur.ID] {
				next := cur.Out[0]
				se.Interior = append(se.Interior, cur)
				se.Prims = append(se.Prims, next.Prim)
				se.Edges = append(se.Edges, next)
				cur = next.To
			}
			se.To = cur
			out[i] = se
		}
		v.Out[n.ID] = out
	}
	return v
}
