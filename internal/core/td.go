package core

import (
	"cmp"
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

// TDResult holds the output of the top-down tabulation: the td map, the
// procedure summary table, and the incoming-state bookkeeping used by SWIFT
// for triggering and for ranking relational cases.
type TDResult[S cmp.Ordered] struct {
	// PathEdges is the td map, indexed by CFG node ID: entry context of the
	// enclosing procedure → sorted set of states reached at the node under
	// that context. This groups the paper's td: PC → 2^(S×S) pairs by their
	// first component, so summary resumption and NodeStatesIn read one
	// bucket instead of scanning every pair at the node.
	PathEdges []map[S]sortedSet[S]
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

	// version counts path-edge insertions; the snapshot caches below are
	// dropped when it moves. The accessors memoize because clients call
	// them per check (error scans, per-node property tests); they are not
	// safe for concurrent use — call them after the run, or from the
	// solver's goroutine.
	version   int
	allSnap   sortedSet[S]
	allSnapV  int
	allSnapOK bool
	nodeSnap  map[int]sortedSet[S]
	nodeSnapV int
}

// SummaryCount returns the number of top-down summaries recorded for the
// procedure.
func (r *TDResult[S]) SummaryCount(proc string) int {
	n := 0
	for _, exits := range r.Summaries[proc] {
		n += len(exits)
	}
	return n
}

// nodeSnapshots returns the per-node snapshot cache, valid for the current
// version.
func (r *TDResult[S]) nodeSnapshots() map[int]sortedSet[S] {
	if r.nodeSnap == nil || r.nodeSnapV != r.version {
		r.nodeSnap = map[int]sortedSet[S]{}
		r.nodeSnapV = r.version
	}
	return r.nodeSnap
}

// NodeStates returns the sorted abstract states recorded at a CFG node,
// ignoring entry contexts. The result is memoized until the next path-edge
// insertion; callers must not mutate it.
func (r *TDResult[S]) NodeStates(node int) []S {
	snap := r.nodeSnapshots()
	if s, ok := snap[node]; ok {
		return s
	}
	var s sortedSet[S]
	for _, outs := range r.PathEdges[node] {
		s = s.union(outs)
	}
	snap[node] = s
	return s
}

// AllStates returns the sorted distinct abstract states recorded at any
// program point in any context — everything the analysis has shown may be
// reached. Clients scan it for error states, typically once per check, so
// the result is memoized until the next path-edge insertion; callers must
// not mutate it.
func (r *TDResult[S]) AllStates() []S {
	if r.allSnapOK && r.allSnapV == r.version {
		return r.allSnap
	}
	seen := map[S]bool{}
	var out []S
	for _, byIn := range r.PathEdges {
		for _, outs := range byIn {
			for _, s := range outs {
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
		}
	}
	r.allSnap = newSortedSet(out)
	r.allSnapV = r.version
	r.allSnapOK = true
	return r.allSnap
}

// NodeStatesIn returns the sorted abstract states recorded at a CFG node
// for one entry context of the enclosing procedure. The returned slice is
// the solver's own bucket; callers must not mutate it.
func (r *TDResult[S]) NodeStatesIn(node int, in S) []S {
	return r.PathEdges[node][in]
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

// seMemo caches chain images for one superedge as flat arenas rather than
// per-state objects: entry k stores its len(Interior)+1 state sets
// back-to-back in states, with per-set lengths in lens[k*rows:(k+1)*rows]
// and its arena offset in starts[k]. For interned integer state types the
// states arena is pointer-free, so the cache adds nothing to GC scan work,
// and a miss costs two amortized appends instead of a handful of small
// allocations. Every set is canonical (sorted, deduplicated), on either
// view: traverse batch-merges them into the path-edge table.
type seMemo[S cmp.Ordered] struct {
	idx    map[S]int32
	starts []int32
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
	// memo caches chain images per superedge ID; entries are allocated on
	// first traversal. A state reached under N entry contexts pays for the
	// Trans composition once. Safe because Trans is required to be a
	// deterministic function of (prim, state): repeated calls return the
	// same slice contents, so skipping them is unobservable.
	memo []*seMemo[S]
	// scratch backs chain walks when NoTransferMemo disables caching; it is
	// reset before every walk.
	scratch seMemo[S]
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
	// bu set it; the hybrids run dense (see RunSwift).
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
	res := &TDResult[S]{
		PathEdges: make([]map[S]sortedSet[S], cfg.NodeCount),
		Summaries: map[string]map[S]sortedSet[S]{},
		EntrySeen: map[string]multiset[S]{},
	}
	for _, name := range cfg.Program.ProcNames() {
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
		memo:    make([]*seMemo[S], view.NumSuperEdges),
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

// insertFact records state out at node under entry context in, reporting
// whether it was new and charging the path-edge budget.
func (t *tdSolver[S, R, P]) insertFact(node int, in, out S) (bool, error) {
	m := t.res.PathEdges[node]
	if m == nil {
		m = make(map[S]sortedSet[S], 4)
		t.res.PathEdges[node] = m
	}
	outs, added := m[in].insert(out)
	if !added {
		return false, nil
	}
	m[in] = outs
	t.res.version++
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
	added, err := t.insertFact(node, in, out)
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

// insertFactSet batch-inserts a sorted set of states at (node, in): one
// bucket fetch and one in-place merge instead of a fetch, binary search and
// fresh slice per state. The returned slice of new states is the solver's
// scratch buffer — valid until the next insertFactSet call. On a budget
// trip the counter lands on exactly MaxPathEdges+1, matching where the
// per-fact path stops, so the two views agree on NumPathEdges at an abort.
func (t *tdSolver[S, R, P]) insertFactSet(node int, in S, states sortedSet[S]) ([]S, error) {
	if len(states) == 0 {
		return nil, nil
	}
	m := t.res.PathEdges[node]
	if m == nil {
		m = make(map[S]sortedSet[S], 4)
		t.res.PathEdges[node] = m
	}
	merged, added := mergeAppend(m[in], states, t.addbuf)
	t.addbuf = added
	if len(added) == 0 {
		return nil, nil
	}
	m[in] = merged
	t.res.version++
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
func (t *tdSolver[S, R, P]) recordInteriorSet(node int, in S, states sortedSet[S]) (int, error) {
	added, err := t.insertFactSet(node, in, states)
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

// propagateSet batch-inserts path edges at (node, in) and schedules the new
// ones.
func (t *tdSolver[S, R, P]) propagateSet(node int, in S, states sortedSet[S]) error {
	added, err := t.insertFactSet(node, in, states)
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
// chain's final states propagate to the superedge target. Every engine and
// both views walk chains here; a raw-view superedge is a chain without
// interior nodes.
func (t *tdSolver[S, R, P]) traverse(se *ir.SuperEdge, in, out S) error {
	m, k := t.chainEntry(se, out)
	rows := int32(len(se.Interior) + 1)
	off, lrow := m.starts[k], k*rows
	for i, w := range se.Interior {
		set := m.states[off : off+m.lens[lrow+int32(i)]]
		off += m.lens[lrow+int32(i)]
		n, err := t.recordInteriorSet(w.ID, in, set)
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
	return t.propagateSet(se.To.ID, in, m.states[off:off+m.lens[lrow+rows-1]])
}

// chainEntry returns the memo holding the image of state s0 under the
// superedge's primitive sequence, and the entry index of s0 within it,
// computing and caching the image on a miss.
func (t *tdSolver[S, R, P]) chainEntry(se *ir.SuperEdge, s0 S) (*seMemo[S], int32) {
	if t.config.NoTransferMemo {
		m := &t.scratch
		m.starts, m.lens, m.states = m.starts[:0], m.lens[:0], m.states[:0]
		return m, t.computeChain(se, s0, m)
	}
	m := t.memo[se.ID]
	if m == nil {
		m = &seMemo[S]{idx: make(map[S]int32, 8)}
		t.memo[se.ID] = m
	}
	if k, ok := m.idx[s0]; ok {
		return m, k
	}
	k := t.computeChain(se, s0, m)
	m.idx[s0] = k
	return m, k
}

// computeChain composes the superedge's transfer functions on one state,
// appending the resulting canonical state sets to the memo's arenas and
// returning the new entry's index.
func (t *tdSolver[S, R, P]) computeChain(se *ir.SuperEdge, s0 S, m *seMemo[S]) int32 {
	k := int32(len(m.starts))
	m.starts = append(m.starts, int32(len(m.states)))
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
	return k
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
