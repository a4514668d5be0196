package core

import (
	"cmp"
	"math/bits"
	"slices"

	"swift/internal/ir"
)

// pathPair is a top-down path edge at a program point: the procedure was
// entered in state in and has reached the point in state out. These pairs
// are exactly what the paper's td: PC → 2^(S×S) map records.
type pathPair[S cmp.Ordered] struct {
	in  S
	out S
}

// callerRec remembers a pending call so callee summaries can be plumbed back
// to the return site: the caller was entered in state in and control resumes
// at node ret.
type callerRec[S cmp.Ordered] struct {
	ret int
	in  S
}

// pathCell is one (node, entry context) cell of the path-edge table. It is
// empty (many == 0), holds the single state one (many < 0), or holds the
// wide set wide[many-1] (many > 0). On measured runs almost every cell
// holds one state, so the common case costs no heap object; for interned
// integer state types a cell is pointer-free and rows add no GC scan work.
type pathCell[S cmp.Ordered] struct {
	one  S
	many int32
}

// procContexts numbers the entry contexts of one procedure densely, in
// order of first arrival.
type procContexts[S cmp.Ordered] struct {
	idx  map[S]int32
	list []S
}

// TDResult holds the output of the top-down tabulation: the td map, the
// procedure summary table, and the incoming-state bookkeeping used by SWIFT
// for triggering and for ranking relational cases. The td map is
// unexported; NodeStates, AppendNodeStates, NodeStatesIn, AllStates,
// ReachedStates, NumNodes and EncodeTDResult read it.
type TDResult[S cmp.Ordered] struct {
	// Summaries maps procedure → entry state → exit states. Each (entry,
	// exit) pair is one "top-down summary" in the paper's accounting.
	Summaries map[string]map[S]sortedSet[S]
	// EntrySeen maps procedure → multiset of incoming abstract states. The
	// multiplicity of σ is the number of distinct (call site, caller
	// context) pairs that delivered σ; it drives the prune ranking.
	EntrySeen map[string]multiset[S]
	// NumPathEdges and NumSummaries are running totals used for budgets and
	// reporting. Both are counted in original-graph units: a fact recorded
	// at an interior node of a compressed chain charges exactly like the
	// raw solver's insert at that node would have.
	NumPathEdges int
	NumSummaries int
	// Steps counts propagation work in original-graph units. On the dense
	// paths it counts worklist pops (one per fact), plus — on the
	// compressed view — one unit per new interior-node fact, which is the
	// pop the raw solver would have performed for it. The sparse scheduler
	// batches pops, so it charges one unit per inserted fact directly. At
	// completion Steps therefore equals NumPathEdges under every scheduler
	// and view.
	Steps int
	// Sparse reports the sparse scheduler's telemetry (zero value when the
	// run was dense). Observational only: excluded from EncodeTDResult.
	Sparse SparseStats

	// The td map — the paper's td: PC → 2^(S×S) — as one row per CFG
	// node: rows[n][c] holds the states reached at n under entry context c
	// of n's procedure, whose state is ctxs[procOf[n]].list[c]. Every
	// context of a procedure typically reaches every node of it, so rows
	// are dense; a row grows on the first fact under a context beyond its
	// end. Context numbers follow arrival order, which differs between
	// schedulers and views, so only the accessors and EncodeTDResult
	// (which sorts contexts) are canonical.
	procOf []int32
	ctxs   []procContexts[S]
	rows   [][]pathCell[S]
	wide   []sortedSet[S]
}

// newPathTable returns a result with an empty path-edge table over nodes
// whose procedure indices (in [0, procs)) are procOf.
func newPathTable[S cmp.Ordered](procOf []int32, procs int) *TDResult[S] {
	r := &TDResult[S]{
		procOf: procOf,
		ctxs:   make([]procContexts[S], procs),
		rows:   make([][]pathCell[S], len(procOf)),
	}
	for i := range r.ctxs {
		r.ctxs[i].idx = map[S]int32{}
	}
	return r
}

// context returns the index of entry context in of node's procedure,
// numbering it on first arrival.
func (r *TDResult[S]) context(node int, in S) int32 {
	pc := &r.ctxs[r.procOf[node]]
	c, ok := pc.idx[in]
	if !ok {
		c = int32(len(pc.list))
		pc.idx[in] = c
		pc.list = append(pc.list, in)
	}
	return c
}

// cell returns the table cell of (node, context c), growing the node's row
// to its procedure's current context count when c lies beyond it. The
// pointer is valid until the row next grows.
func (r *TDResult[S]) cell(node int, c int32) *pathCell[S] {
	row := r.rows[node]
	if int(c) >= len(row) {
		n := len(r.ctxs[r.procOf[node]].list)
		row = append(row, make([]pathCell[S], n-len(row))...)
		r.rows[node] = row
	}
	return &row[c]
}

// insert adds state out to a cell, reporting whether it was new.
func (r *TDResult[S]) insert(p *pathCell[S], out S) bool {
	switch {
	case p.many == 0:
		p.one, p.many = out, -1
	case p.many < 0:
		if p.one == out {
			return false
		}
		pair := sortedSet[S]{p.one, out}
		if out < p.one {
			pair[0], pair[1] = out, p.one
		}
		r.wide = append(r.wide, pair)
		p.many = int32(len(r.wide))
	default:
		set := r.wide[p.many-1]
		i, ok := slices.BinarySearch(set, out)
		if ok {
			return false
		}
		r.wide[p.many-1] = slices.Insert(set, i, out)
	}
	return true
}

// insertSet merges the sorted set states into a cell and appends the new
// states to buf[:0] exactly as mergeAppend would: in descending order.
// states is never retained.
func (r *TDResult[S]) insertSet(p *pathCell[S], states sortedSet[S], buf []S) []S {
	buf = buf[:0]
	switch {
	case p.many > 0:
		r.wide[p.many-1], buf = mergeAppend(r.wide[p.many-1], states, buf)
	case p.many == 0 && len(states) == 1:
		p.one, p.many = states[0], -1
		buf = append(buf, states[0])
	case p.many < 0 && len(states) == 1 && states[0] == p.one:
		// Already present.
	default: // the cell turns wide
		var dst, set sortedSet[S]
		if p.many < 0 {
			dst = append(make(sortedSet[S], 0, len(states)+1), p.one)
		}
		set, buf = mergeAppend(dst, states, buf)
		r.wide = append(r.wide, set)
		p.many = int32(len(r.wide))
	}
	return buf
}

// appendCell appends the states of a cell to dst.
func (r *TDResult[S]) appendCell(dst []S, p pathCell[S]) []S {
	switch {
	case p.many < 0:
		return append(dst, p.one)
	case p.many > 0:
		return append(dst, r.wide[p.many-1]...)
	}
	return dst
}

// NumNodes returns the number of CFG nodes the path-edge table covers.
func (r *TDResult[S]) NumNodes() int { return len(r.rows) }

// SummaryCount returns the number of top-down summaries recorded for the
// procedure.
func (r *TDResult[S]) SummaryCount(proc string) int {
	n := 0
	for _, exits := range r.Summaries[proc] {
		n += len(exits)
	}
	return n
}

// NodeStates returns the sorted distinct abstract states recorded at a
// CFG node, ignoring entry contexts, in a fresh slice.
func (r *TDResult[S]) NodeStates(node int) []S {
	s := r.AppendNodeStates(nil, node)
	slices.Sort(s)
	return slices.Compact(s)
}

// AppendNodeStates appends the abstract states recorded at a CFG node under
// every entry context to dst, unsorted and possibly repeated.
func (r *TDResult[S]) AppendNodeStates(dst []S, node int) []S {
	for _, p := range r.rows[node] {
		dst = r.appendCell(dst, p)
	}
	return dst
}

// AllStates returns the sorted distinct abstract states recorded at any
// program point in any context — everything the analysis has shown may be
// reached. It works for every state type by deduplicating through a map;
// for integer states, ReachedStates gives the same answer from one pass
// over a bitset.
func (r *TDResult[S]) AllStates() []S {
	seen := map[S]bool{}
	var out []S
	visit := func(s S) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, row := range r.rows {
		for _, p := range row {
			if p.many < 0 {
				visit(p.one)
			} else if p.many > 0 {
				for _, s := range r.wide[p.many-1] {
					visit(s)
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// ReachedStates returns what r.AllStates() returns, for non-negative
// integer states such as interned state IDs: one pass over the path-edge
// rows marks each state in a bitset, and reading the bitset out word by
// word yields the distinct states already sorted, with no map and no
// sort. numStates sizes the bitset up front — a client's state count
// bounds every state it has interned — and a state at or beyond it grows
// the bitset, so any non-negative hint is correct.
func ReachedStates[S ~int32](r *TDResult[S], numStates int) []S {
	b := stateBits{words: make([]uint64, (max(numStates, 0)+63)/64)}
	for _, row := range r.rows {
		for _, p := range row {
			if p.many < 0 {
				b.mark(int32(p.one))
			} else if p.many > 0 {
				for _, s := range r.wide[p.many-1] {
					b.mark(int32(s))
				}
			}
		}
	}
	out := make([]S, 0, b.n)
	for w, x := range b.words {
		for ; x != 0; x &= x - 1 {
			out = append(out, S(w<<6|bits.TrailingZeros64(x)))
		}
	}
	return out
}

// stateBits is the bitset behind ReachedStates; n counts the set bits.
type stateBits struct {
	words []uint64
	n     int
}

// mark sets bit s, growing the bitset when s lies beyond it. A negative s
// is a caller error and panics with an index out of range.
func (b *stateBits) mark(s int32) {
	w := int(s >> 6)
	if w >= len(b.words) {
		b.words = append(b.words, make([]uint64, w+1-len(b.words))...)
	}
	if bit := uint64(1) << (s & 63); b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.n++
	}
}

// NodeStatesIn returns the sorted abstract states recorded at a CFG node
// for one entry context of the enclosing procedure, or nil if none were.
// Callers must not mutate the result.
func (r *TDResult[S]) NodeStatesIn(node int, in S) []S {
	c, ok := r.ctxs[r.procOf[node]].idx[in]
	if !ok || int(c) >= len(r.rows[node]) {
		return nil
	}
	return r.appendCell(nil, r.rows[node][c])
}

// EntryStates returns the sorted distinct incoming states of a procedure.
func (r *TDResult[S]) EntryStates(proc string) []S {
	m := r.EntrySeen[proc]
	out := make([]S, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	return newSortedSet(out)
}

// interceptor lets the hybrid driver hook procedure calls in the tabulation:
// beforeCall may answer a call from bottom-up summaries; afterCall observes
// calls the tabulation handled itself (so the driver can check the trigger
// condition).
type interceptor[S cmp.Ordered] interface {
	beforeCall(callee string, s S) (results []S, handled bool, err error)
	afterCall(callee string, s S) error
}

// chainBuf holds the image of one state under a superedge's primitive
// sequence: position i's canonical (sorted, deduplicated) state set is
// states[sum(lens[:i]) : sum(lens[:i+1])]. One buffer per solver is reused
// by every chain walk, and for interned integer state types it is
// pointer-free.
type chainBuf[S cmp.Ordered] struct {
	lens   []int32
	states []S
}

// tdSolver runs the tabulation algorithm of Reps–Horwitz–Sagiv (the paper's
// run_td) over a view of the program CFG.
type tdSolver[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	client  Client[S, R, P]
	cfg     *ir.CFG
	cfgOf   map[string]*ir.ProcCFG
	view    *ir.CFGView
	config  Config
	hook    interceptor[S]
	res     *TDResult[S]
	callers map[string]map[S][]callerRec[S]
	work    []workItem[S]
	head    int
	// chain is the chain walk's image buffer, reset before every walk.
	chain chainBuf[S]
	// addbuf is the scratch buffer insertFactSet hands to mergeAppend; it
	// holds the newly added states of the latest batch only. frontA/frontB
	// are the chain walk's frontier double-buffer.
	addbuf []S
	frontA []S
	frontB []S
	// compiler/cchains hold the client's compiled transfers
	// (TransCompiler), resolved lazily per superedge into a chain of
	// append-style functions indexed like se.Prims. Nil when the client
	// compiles nothing.
	compiler TransCompiler[S]
	cchains  [][]func(S, []S) []S
	// sp is the sparse scheduler state, nil for a dense run. Only td and
	// bu set it; the hybrid runs dense (see RunSwift).
	sp *sparseState[S]
	dl deadline
}

type workItem[S cmp.Ordered] struct {
	node int
	edge pathPair[S]
}

// maxRetainedWork caps the worklist backing array kept after a drain; the
// hybrid engines re-enter run after every bottom-up trigger, and an array
// sized by the largest burst would otherwise be pinned for the whole run.
const maxRetainedWork = 1 << 14

// newTDSolver builds a solver over the view. sidx, when non-nil, selects
// the sparse scheduler (see sparse.go); it must be a structure index of the
// same view, and nil selects the dense FIFO.
func newTDSolver[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	client Client[S, R, P], view *ir.CFGView, config Config, hook interceptor[S],
	sidx *ir.StructIndex,
) *tdSolver[S, R, P] {
	cfg := view.CFG
	names := cfg.Program.ProcNames()
	procOf := make([]int32, cfg.NodeCount)
	for i, name := range names {
		for _, n := range cfg.ByProc[name].Nodes {
			procOf[n.ID] = int32(i)
		}
	}
	res := newPathTable[S](procOf, len(names))
	res.Summaries = map[string]map[S]sortedSet[S]{}
	res.EntrySeen = map[string]multiset[S]{}
	for _, name := range names {
		res.Summaries[name] = map[S]sortedSet[S]{}
		res.EntrySeen[name] = multiset[S]{}
	}
	t := &tdSolver[S, R, P]{
		client:  client,
		cfg:     cfg,
		cfgOf:   cfg.ByProc,
		view:    view,
		config:  config,
		hook:    hook,
		res:     res,
		callers: map[string]map[S][]callerRec[S]{},
		dl:      newDeadline(config),
	}
	if tc, ok := client.(TransCompiler[S]); ok {
		t.compiler = tc
		t.cchains = make([][]func(S, []S) []S, view.NumSuperEdges)
	}
	if sidx != nil {
		t.sp = newSparseState[S](sidx, config, &res.Sparse)
	}
	return t
}

// chainFuncs returns the compiled transfer chain of a superedge (indexed
// like se.Prims), or nil when the client compiles nothing.
func (t *tdSolver[S, R, P]) chainFuncs(se *ir.SuperEdge) []func(S, []S) []S {
	if t.compiler == nil {
		return nil
	}
	fs := t.cchains[se.ID]
	if fs == nil {
		fs = make([]func(S, []S) []S, len(se.Prims))
		for i, p := range se.Prims {
			fs[i] = t.compiler.CompileTrans(p)
		}
		t.cchains[se.ID] = fs
	}
	return fs
}

// insertFact records state out at node under entry context c, reporting
// whether it was new and charging the path-edge budget.
func (t *tdSolver[S, R, P]) insertFact(node int, c int32, out S) (bool, error) {
	if !t.res.insert(t.res.cell(node, c), out) {
		return false, nil
	}
	t.res.NumPathEdges++
	if t.sp != nil {
		// The sparse scheduler pops per node batch, not per fact; charge
		// the fact's step here so Steps stays in original-graph units.
		t.res.Steps++
	}
	if t.res.NumPathEdges > t.config.MaxPathEdges {
		return true, ErrBudget
	}
	return true, nil
}

// propagate inserts a path edge and schedules it if new.
func (t *tdSolver[S, R, P]) propagate(node int, in, out S) error {
	added, err := t.insertFact(node, t.res.context(node, in), out)
	if err != nil || !added {
		return err
	}
	if t.sp != nil {
		t.sp.enqueue(node, pathPair[S]{in: in, out: out})
		return nil
	}
	t.work = append(t.work, workItem[S]{node: node, edge: pathPair[S]{in: in, out: out}})
	return nil
}

// batched inserts below serve the compressed chain walk; the per-fact
// insertFact/propagate pair above serves every worklist-driven path.

// insertFactSet batch-inserts a sorted set of states at (node, context c):
// one cell fetch and one merge instead of a fetch and binary search per
// state. The returned slice of new states, in descending order, is the
// solver's scratch buffer — valid until the next insertFactSet call. On a
// budget trip the counter lands on exactly MaxPathEdges+1, matching where
// the per-fact path stops, so the two views agree on NumPathEdges at an
// abort.
func (t *tdSolver[S, R, P]) insertFactSet(node int, c int32, states sortedSet[S]) ([]S, error) {
	if len(states) == 0 {
		return nil, nil
	}
	added := t.res.insertSet(t.res.cell(node, c), states, t.addbuf)
	t.addbuf = added
	if len(added) == 0 {
		return nil, nil
	}
	if t.sp != nil {
		t.res.Steps += len(added) // per-fact step charge; see insertFact
	}
	if len(added) > t.config.MaxPathEdges-t.res.NumPathEdges {
		t.res.NumPathEdges = t.config.MaxPathEdges + 1
		return added, ErrBudget
	}
	t.res.NumPathEdges += len(added)
	return added, nil
}

// recordInteriorSet inserts the chain image at an interior node of a
// compressed chain. These facts never enter the worklist — the chain walk
// carries them forward — so the pops the raw solver would have performed
// are charged here, keeping Steps in original-graph units.
func (t *tdSolver[S, R, P]) recordInteriorSet(node int, c int32, states sortedSet[S]) (int, error) {
	added, err := t.insertFactSet(node, c, states)
	if t.sp == nil {
		t.res.Steps += len(added) // sparse charged these in insertFactSet
	}
	if err != nil {
		return len(added), err
	}
	if len(added) == 0 {
		return 0, nil
	}
	return len(added), t.dl.check()
}

// propagateSet batch-inserts path edges at node under entry context in,
// whose index is c, and schedules the new ones.
func (t *tdSolver[S, R, P]) propagateSet(node int, in S, c int32, states sortedSet[S]) error {
	added, err := t.insertFactSet(node, c, states)
	if t.sp != nil {
		for _, s := range added {
			t.sp.enqueue(node, pathPair[S]{in: in, out: s})
		}
		return err
	}
	for _, s := range added {
		t.work = append(t.work, workItem[S]{node: node, edge: pathPair[S]{in: in, out: s}})
	}
	return err
}

// seed enters the analysis at the program entry with the initial state.
func (t *tdSolver[S, R, P]) seed(initial S) error {
	entry := t.cfgOf[t.cfg.Program.Entry]
	t.res.EntrySeen[t.cfg.Program.Entry].add(initial, 1)
	return t.propagate(entry.Entry.ID, initial, initial)
}

// run drains the worklist to a fixpoint.
func (t *tdSolver[S, R, P]) run() error {
	if t.sp != nil {
		return t.runSparse()
	}
	for t.head < len(t.work) {
		item := t.work[t.head]
		// Zero the popped slot: the backing array survives across the
		// re-entries of long hybrid runs and would otherwise pin every
		// popped state for the lifetime of the run.
		t.work[t.head] = workItem[S]{}
		t.head++
		t.res.Steps++
		if err := t.dl.check(); err != nil {
			return err
		}
		if err := t.step(item); err != nil {
			return err
		}
	}
	// Release the drained worklist eagerly; oversized backing arrays from a
	// burst are dropped wholesale rather than retained until the next one.
	if cap(t.work) > maxRetainedWork {
		t.work = nil
	} else {
		t.work = t.work[:0]
	}
	t.head = 0
	return nil
}

func (t *tdSolver[S, R, P]) step(item workItem[S]) error {
	node := t.cfg.AllNodes[item.node]
	pc := t.cfgOf[node.Proc]
	if node.ID == pc.Exit.ID {
		if err := t.recordSummary(node.Proc, item.edge.in, item.edge.out); err != nil {
			return err
		}
	}
	for _, se := range t.view.Out[item.node] {
		if se.IsCall() {
			if err := t.handleCall(se, item.edge.in, item.edge.out); err != nil {
				return err
			}
			continue
		}
		if err := t.traverse(se, item.edge.in, item.edge.out); err != nil {
			return err
		}
	}
	return nil
}

// traverse pushes state out through a primitive superedge under entry
// context in: interior nodes of a compressed chain receive their facts
// eagerly (so every original-graph observation is preserved), and the
// chain's final states propagate to the superedge target. Every engine
// walks chains here; a raw-view superedge is a chain without interior
// nodes.
func (t *tdSolver[S, R, P]) traverse(se *ir.SuperEdge, in, out S) error {
	m := t.walkChain(se, out)
	c := t.res.context(se.From.ID, in) // one procedure, so one context index
	off := int32(0)
	for i, w := range se.Interior {
		set := m.states[off : off+m.lens[i]]
		off += m.lens[i]
		n, err := t.recordInteriorSet(w.ID, c, set)
		if err != nil {
			return err
		}
		if n == 0 {
			// Frontier fully known at this position under this context: the
			// walks that first recorded these states also recorded their
			// images at every later position and propagated the finals, so
			// the rest of the chain is a no-op — exactly where the raw
			// solver stops propagating duplicates.
			return nil
		}
	}
	return t.propagateSet(se.To.ID, in, c, m.states[off:])
}

// walkChain composes the superedge's transfer functions on state s0 and
// returns the solver's chain buffer holding the image at every position,
// valid until the next walk.
func (t *tdSolver[S, R, P]) walkChain(se *ir.SuperEdge, s0 S) *chainBuf[S] {
	m := &t.chain
	m.lens, m.states = m.lens[:0], m.states[:0]
	fs := t.chainFuncs(se)
	front := append(t.frontA[:0], s0)
	next := t.frontB[:0]
	for i, p := range se.Prims {
		next = next[:0]
		if fs != nil {
			f := fs[i]
			for _, s := range front {
				next = f(s, next)
			}
		} else {
			for _, s := range front {
				next = append(next, t.client.Trans(p, s)...)
			}
		}
		slices.Sort(next)
		next = slices.Compact(next)
		m.states = append(m.states, next...)
		m.lens = append(m.lens, int32(len(next)))
		front, next = next, front
	}
	t.frontA, t.frontB = front[:0], next[:0]
	return m
}

// recordSummary adds (in → out) to the summary table of proc and resumes all
// callers waiting on that entry state.
func (t *tdSolver[S, R, P]) recordSummary(proc string, in, out S) error {
	exits := t.res.Summaries[proc][in]
	exits, added := exits.insert(out)
	if !added {
		return nil
	}
	t.res.Summaries[proc][in] = exits
	t.res.NumSummaries++
	if t.res.NumSummaries > t.config.MaxTDSummaries {
		return ErrBudget
	}
	for _, c := range t.callers[proc][in] {
		if err := t.propagate(c.ret, c.in, out); err != nil {
			return err
		}
	}
	return nil
}

// handleCall implements lines 9–21 of Algorithm 1 for one call edge: first
// the hook (bottom-up summaries) gets a chance; otherwise the call is
// tabulated top-down and the hook is notified so it can check the trigger.
func (t *tdSolver[S, R, P]) handleCall(e *ir.SuperEdge, callerIn, s S) error {
	callee := e.Call
	if t.hook != nil {
		results, handled, err := t.hook.beforeCall(callee, s)
		if err != nil {
			return err
		}
		if handled {
			for _, out := range results {
				if err := t.propagate(e.To.ID, callerIn, out); err != nil {
					return err
				}
			}
			return nil
		}
	}
	t.res.EntrySeen[callee].add(s, 1)
	byIn := t.callers[callee]
	if byIn == nil {
		byIn = map[S][]callerRec[S]{}
		t.callers[callee] = byIn
	}
	byIn[s] = append(byIn[s], callerRec[S]{ret: e.To.ID, in: callerIn})
	if err := t.propagate(t.cfgOf[callee].Entry.ID, s, s); err != nil {
		return err
	}
	for _, out := range t.res.Summaries[callee][s] {
		if err := t.propagate(e.To.ID, callerIn, out); err != nil {
			return err
		}
	}
	if t.hook != nil {
		return t.hook.afterCall(callee, s)
	}
	return nil
}
