package driver

// This file is the demand-driven serving layer under internal/query: point
// queries name one tracked allocation site, so they can be answered by
// running only that site's slice (core.RunSliceSet over PR 5's sliceable
// client) instead of the whole program. Completed slice runs are folded
// into immutable SliceTables and memoized in an in-memory cache keyed by
// the same content digests the warm store uses (program digest + frozen
// digest + engine + normalized thresholds + slice ID), so repeated and
// overlapping queries against one program version run each slice at most
// once — and typically run nothing at all.
//
// Determinism carries over from the sliced execution layer unchanged:
// every slice runs on fresh mutable interners over the frozen tables, so
// its table is byte-identical whether it was computed alone, beside other
// slices on the pool, or replayed from the memo. Answers therefore do not
// depend on Config.SliceWorkers, batch composition, or cache state.

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"swift/internal/core"
	"swift/internal/store"
	"swift/internal/typestate"
)

// RunSliceSet runs only the named slices of the type-state decomposition
// (core.RunSliceSet): the demand path behind point queries. Slice IDs are
// tracked allocation-site labels.
func (b *Build) RunSliceSet(engine string, cfg core.Config, ids []core.SliceID) (*SlicedResult, error) {
	return b.Core.RunSliceSet(engine, cfg, ids)
}

// SliceRunKey is the store key identifying one slice's completed run for
// one program version: the whole-program digest (any source change
// invalidates every slice), the client's frozen-construction digest, the
// engine with its normalized thresholds, and the slice ID in the Proc
// field. SliceMemo uses its content address as the memo key, so demand
// queries reuse exactly when a warm-store artifact would.
func SliceRunKey(b *Build, engine string, cfg core.Config, id core.SliceID) store.Key {
	k := keyTemplate(b, engine, normalizeConfig(engine, cfg))
	k.Kind = "slicerun"
	k.Proc = string(id)
	k.Body = ProgramDigest(b)
	return k
}

// SliceTable is the immutable query-facing digest of one completed slice
// run: everything a point query about the slice's site can ask, rendered
// to stable strings so concurrent queries share it without touching the
// run's lazily-memoizing result accessors.
type SliceTable struct {
	// Engine and Site identify the run ("td", "bu" or "swift" and the
	// tracked allocation-site label).
	Engine string
	Site   string
	// ErrorSite reports the site appears in the slice's error report: some
	// tracked tuple of the site may reach its property's error state.
	ErrorSite bool
	// StatesAt, indexed by global CFG node ID, holds the sorted distinct
	// FSM state names of the site's tuples recorded at the node (bootstrap
	// states excluded); nil where the site's tuples never reach. Callers
	// must not mutate the inner slices.
	StatesAt [][]string
	// Work is the slice run's deterministic work-unit cost — what one
	// demand query pays when the memo misses.
	Work int
}

// buildSliceTable folds one completed slice run into its immutable table.
// The slice result's abstract-state IDs live in the slice client's own ID
// space, so everything is interpreted through that client, exactly like
// SlicedErrorReport. A run without instantiated states (budget or fault
// abort) has no table: that is an explicit error, not an empty table,
// since an empty table answers "unreachable" to every query.
func buildSliceTable(sl *core.SliceRun[typestate.AbsID, typestate.RelID, typestate.FormulaID]) (*SliceTable, error) {
	ts, ok := sl.Client.(*typestate.Analysis)
	if !ok {
		return nil, fmt.Errorf("driver: slice %s has client %T, want *typestate.Analysis", sl.ID, sl.Client)
	}
	res := sl.Result
	if res.TD == nil {
		if res.Err != nil {
			return nil, fmt.Errorf("driver: %s slice %s run aborted before instantiating states: %w",
				res.Engine, sl.ID, res.Err)
		}
		return nil, fmt.Errorf("driver: %s slice %s has no instantiated states to answer queries from",
			res.Engine, sl.ID)
	}
	site := string(sl.ID)
	t := &SliceTable{
		Engine:   res.Engine,
		Site:     site,
		StatesAt: make([][]string, res.TD.NumNodes()),
		Work:     res.WorkUnits(),
	}
	for _, s := range ts.ErrorSites(res.TD.AllStates()) {
		if s == site {
			t.ErrorSite = true
		}
	}
	for node := range t.StatesAt {
		var names []string
		for _, s := range res.TD.NodeStates(node) {
			if ts.Site(s) == site {
				names = append(names, ts.StateName(s))
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		j := 0
		for i, n := range names {
			if i == 0 || n != names[j-1] {
				names[j] = n
				j++
			}
		}
		t.StatesAt[node] = names[:j:j]
	}
	return t, nil
}

// StatesAtNode returns the table's state names at a global CFG node ID
// (nil when the site's tuples never reach it, or the ID is out of range —
// validation happens at the query layer).
func (t *SliceTable) StatesAtNode(node int) []string {
	if node < 0 || node >= len(t.StatesAt) {
		return nil
	}
	return t.StatesAt[node]
}

// SliceMemo is the in-memory slice-result cache behind demand queries: a
// bounded LRU from SliceRunKey content addresses to SliceTables, shared
// across evaluators (and, in swiftd, across requests). Only completed
// deterministic slice runs are stored, so a hit is exact: the table bytes
// equal what recomputing the slice would produce.
//
// Concurrent evaluators that miss on the same key may both compute the
// slice; both publish the identical table, so the race costs duplicate
// work, never a divergent answer.
type SliceMemo struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits   atomic.Int64
	misses atomic.Int64
}

// memoCell is one LRU slot.
type memoCell struct {
	key   string
	table *SliceTable
}

// DefaultSliceMemoCap bounds a NewSliceMemo(0) memo: at a few thousand
// live slice tables the memo is a cache, not a leak, even in a long-lived
// swiftd serving many program versions.
const DefaultSliceMemoCap = 4096

// NewSliceMemo returns an empty memo holding at most cap slice tables
// (DefaultSliceMemoCap when cap <= 0).
func NewSliceMemo(cap int) *SliceMemo {
	if cap <= 0 {
		cap = DefaultSliceMemoCap
	}
	return &SliceMemo{
		cap:     cap,
		entries: map[string]*list.Element{},
		order:   list.New(),
	}
}

// lookup returns the memoized table for the key, updating recency and the
// hit/miss counters.
func (m *SliceMemo) lookup(key string) (*SliceTable, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		m.misses.Add(1)
		return nil, false
	}
	m.order.MoveToFront(el)
	m.hits.Add(1)
	return el.Value.(*memoCell).table, true
}

// add publishes a table under the key, evicting the least recently used
// entries beyond the capacity. Re-adding an existing key refreshes
// recency; the tables are deterministic, so which copy survives is
// unobservable.
func (m *SliceMemo) add(key string, t *SliceTable) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memoCell).table = t
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memoCell{key: key, table: t})
	for m.order.Len() > m.cap {
		back := m.order.Back()
		m.order.Remove(back)
		delete(m.entries, back.Value.(*memoCell).key)
	}
}

// MemoStats is a point-in-time snapshot of a SliceMemo.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// Stats snapshots the memo's cumulative hit/miss counters and current
// size.
func (m *SliceMemo) Stats() MemoStats {
	m.mu.Lock()
	n := len(m.entries)
	m.mu.Unlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: n}
}

// DemandEvaluator is the batch evaluator behind point queries: it binds
// one built pipeline, one engine and one configuration to a slice memo,
// and turns a coalesced set of slice IDs into SliceTables — answering
// from the memo where possible and computing the distinct missing slices
// in a single RunSliceSet on the bounded pool (Config.SliceWorkers).
type DemandEvaluator struct {
	B      *Build
	Engine string
	Cfg    core.Config
	Memo   *SliceMemo

	// tmpl caches the per-program key fields (program digest, frozen
	// digest) so a batch of queries hashes the program once, not once per
	// slice lookup.
	tmplOnce sync.Once
	tmpl     store.Key
}

// NewDemandEvaluator validates the engine name (fault-armed configs are
// rejected: injected operation indices would make slice outcomes depend
// on cache state, exactly why Warm.Run bypasses the store for them; so are
// ablation configs, whose slice keys would alias the default run's) and
// binds the evaluator. A nil memo gets a fresh default-capacity one.
func NewDemandEvaluator(b *Build, engine string, cfg core.Config, memo *SliceMemo) (*DemandEvaluator, error) {
	switch engine {
	case "td", "bu", "swift":
	default:
		return nil, fmt.Errorf("driver: unknown engine %q (want td, bu or swift)", engine)
	}
	if cfg.Fault != nil {
		return nil, fmt.Errorf("driver: demand queries are incompatible with fault injection")
	}
	if cfg.Ablation() {
		return nil, fmt.Errorf("driver: demand queries are incompatible with ablation knobs")
	}
	if memo == nil {
		memo = NewSliceMemo(0)
	}
	return &DemandEvaluator{B: b, Engine: engine, Cfg: cfg, Memo: memo}, nil
}

// key returns the memo key of one slice, sharing the cached program-level
// template.
func (e *DemandEvaluator) key(id core.SliceID) string {
	e.tmplOnce.Do(func() {
		e.tmpl = SliceRunKey(e.B, e.Engine, e.Cfg, "")
	})
	k := e.tmpl
	k.Proc = string(id)
	return k.ID()
}

// EvalStats reports what one Tables call did: how many distinct slices
// the batch coalesced to, how many were answered from the memo, and the
// deterministic work units spent computing the misses (zero on a fully
// memoized batch — the "repeated queries pay nothing" contract).
type EvalStats struct {
	Slices int
	Hits   int
	Misses int
	Work   int
}

// Tables resolves a batch's slice set. ids may repeat and arrive in any
// order; the result maps each distinct ID to its table. Missing slices
// run together in one RunSliceSet — the per-slice outcomes are
// schedule-independent, so answers are identical at any worker count. An
// aborted slice run (budget, deadline) fails the whole call and is not
// memoized; a later retry recomputes it.
func (e *DemandEvaluator) Tables(ids []core.SliceID) (map[core.SliceID]*SliceTable, EvalStats, error) {
	distinct := append([]core.SliceID(nil), ids...)
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	j := 0
	for i, id := range distinct {
		if i == 0 || id != distinct[j-1] {
			distinct[j] = id
			j++
		}
	}
	distinct = distinct[:j]

	out := make(map[core.SliceID]*SliceTable, len(distinct))
	stats := EvalStats{Slices: len(distinct)}
	var missing []core.SliceID
	for _, id := range distinct {
		if t, ok := e.Memo.lookup(e.key(id)); ok {
			out[id] = t
			stats.Hits++
		} else {
			missing = append(missing, id)
			stats.Misses++
		}
	}
	if len(missing) == 0 {
		return out, stats, nil
	}
	res, err := e.B.RunSliceSet(e.Engine, e.Cfg, missing)
	if err != nil {
		return nil, stats, err
	}
	for i := range res.Slices {
		sl := &res.Slices[i]
		// An aborted slice (budget, deadline, cancellation) must fail the
		// call before table construction: under td and swift the
		// abort leaves a partial — but non-nil — TD table behind, which
		// buildSliceTable would happily fold into a table that answers
		// "unreachable" for everything the run never got to. Only
		// completed runs may be built and memoized.
		if rerr := sl.Result.Err; rerr != nil {
			return nil, stats, fmt.Errorf("driver: %s slice %s run aborted: %w", sl.Result.Engine, sl.ID, rerr)
		}
		t, err := buildSliceTable(sl)
		if err != nil {
			return nil, stats, err
		}
		stats.Work += t.Work
		// Memoize only deterministic outcomes; aborted runs never reach
		// here (rejected above).
		e.Memo.add(e.key(sl.ID), t)
		out[sl.ID] = t
	}
	return out, stats, nil
}

// Table is Tables for a single slice.
func (e *DemandEvaluator) Table(id core.SliceID) (*SliceTable, EvalStats, error) {
	m, stats, err := e.Tables([]core.SliceID{id})
	if err != nil {
		return nil, stats, err
	}
	return m[id], stats, nil
}
