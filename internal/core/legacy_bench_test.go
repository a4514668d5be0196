package core

// The pre-rework tabulation solver, preserved verbatim (modulo renaming)
// from the seed tree as the "before" baseline for the tabulation
// benchmarks and as a counter-equivalence oracle: BenchmarkTabulationRaw
// measures this solver, and TestLegacySolverCountersMatch (core_test)
// checks the reworked solver reproduces its NumPathEdges/NumSummaries/
// Steps exactly. It is test-only code — the shipped solver lives in td.go.
//
// Shape of the original: path edges are map[pathPair]bool per node, every
// CFG edge is walked individually, client.Trans runs on every traversal
// (no memoization), and the drained worklist keeps its backing array.

import (
	"cmp"

	"swift/internal/ir"
)

// pathPair is a top-down path edge at a program point: the procedure was
// entered in state in and has reached the point in state out.
type pathPair[S cmp.Ordered] struct {
	in  S
	out S
}

// workItem is a worklist entry: a path edge at a node.
type workItem[S cmp.Ordered] struct {
	node int
	edge pathPair[S]
}

// callerRec remembers a pending call so callee summaries can be plumbed back
// to the return site: the caller was entered in state in and control resumes
// at node ret.
type callerRec[S cmp.Ordered] struct {
	ret int
	in  S
}

// LegacyTDResult mirrors the seed TDResult: the td map as raw pair sets
// plus the counters the results tables consume.
type LegacyTDResult[S cmp.Ordered] struct {
	PathEdges    []map[pathPair[S]]bool
	Summaries    map[string]map[S]sortedSet[S]
	NumPathEdges int
	NumSummaries int
	Steps        int
}

type legacySolver[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	client  Client[S, R, P]
	cfg     *ir.CFG
	cfgOf   map[string]*ir.ProcCFG
	config  Config
	res     *LegacyTDResult[S]
	entry   map[string]multiset[S]
	callers map[string]map[S][]callerRec[S]
	work    []workItem[S]
	head    int
	dl      deadline
}

// LegacyRunTD runs the seed tabulation to completion on the original CFG.
func LegacyRunTD[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	client Client[S, R, P], cfg *ir.CFG, config Config, initial S,
) (*LegacyTDResult[S], error) {
	res := &LegacyTDResult[S]{
		PathEdges: make([]map[pathPair[S]]bool, cfg.NodeCount),
		Summaries: map[string]map[S]sortedSet[S]{},
	}
	t := &legacySolver[S, R, P]{
		client:  client,
		cfg:     cfg,
		cfgOf:   cfg.ByProc,
		config:  config,
		res:     res,
		entry:   map[string]multiset[S]{},
		callers: map[string]map[S][]callerRec[S]{},
		dl:      newDeadline(config),
	}
	for _, name := range cfg.Program.ProcNames() {
		res.Summaries[name] = map[S]sortedSet[S]{}
		t.entry[name] = multiset[S]{}
	}
	entry := t.cfgOf[t.cfg.Program.Entry]
	t.entry[t.cfg.Program.Entry].add(initial, 1)
	if err := t.propagate(entry.Entry.ID, initial, initial); err != nil {
		return res, err
	}
	for t.head < len(t.work) {
		item := t.work[t.head]
		t.head++
		t.res.Steps++
		if err := t.dl.check(); err != nil {
			return res, err
		}
		if err := t.step(item); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (t *legacySolver[S, R, P]) propagate(node int, in, out S) error {
	m := t.res.PathEdges[node]
	if m == nil {
		m = map[pathPair[S]]bool{}
		t.res.PathEdges[node] = m
	}
	p := pathPair[S]{in: in, out: out}
	if m[p] {
		return nil
	}
	m[p] = true
	t.res.NumPathEdges++
	if t.res.NumPathEdges > t.config.MaxPathEdges {
		return ErrBudget
	}
	t.work = append(t.work, workItem[S]{node: node, edge: p})
	return nil
}

func (t *legacySolver[S, R, P]) step(item workItem[S]) error {
	node := t.cfg.AllNodes[item.node]
	pc := t.cfgOf[node.Proc]
	if node.ID == pc.Exit.ID {
		if err := t.recordSummary(node.Proc, item.edge.in, item.edge.out); err != nil {
			return err
		}
	}
	for _, e := range node.Out {
		if e.IsCall() {
			if err := t.handleCall(e, item.edge.in, item.edge.out); err != nil {
				return err
			}
			continue
		}
		for _, s := range t.client.Trans(e.Prim, item.edge.out) {
			if err := t.propagate(e.To.ID, item.edge.in, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *legacySolver[S, R, P]) recordSummary(proc string, in, out S) error {
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

func (t *legacySolver[S, R, P]) handleCall(e *ir.Edge, callerIn, s S) error {
	callee := e.Call
	t.entry[callee].add(s, 1)
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
	return nil
}
