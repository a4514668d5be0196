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
// every slice runs on fresh intern tables over the frozen tables, so
// its table is byte-identical whether it was computed alone, beside other
// slices on the pool, or replayed from the memo. Answers therefore do not
// depend on Config.SliceWorkers, batch composition, or cache state.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"swift/internal/core"
	"swift/internal/lru"
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
	return SliceRunKeyFor(b.Digests(), engine, cfg, id)
}

// SliceRunKeyFor is SliceRunKey from a build's digests alone.
func SliceRunKeyFor(d BuildDigests, engine string, cfg core.Config, id core.SliceID) store.Key {
	k := keyFor(d.Frozen, engine, normalizeConfig(engine, cfg))
	k.Kind = "slicerun"
	k.Proc = string(id)
	k.Body = d.Program
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
	// Work is the slice run's deterministic work-unit cost — what one
	// demand query pays when the memo misses.
	Work int

	// The per-node state sets, compacted: lists is a dictionary of the
	// distinct sorted FSM state-name lists of the site's tuples at some
	// node (bootstrap states excluded), with lists[0] = nil for "never
	// reached", and at[n] indexes the list of global CFG node n. A site
	// takes a handful of state combinations over thousands of nodes, so
	// the lists are stored once and each node costs 2 bytes.
	lists [][]string
	at    []uint16
}

// buildSliceTable folds one completed slice run into its immutable table
// in one pass over the run's path-edge rows. The slice result's
// abstract-state IDs live in the slice client's own ID space, so
// everything is interpreted through that client, exactly like
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
		Engine: res.Engine,
		Site:   site,
		Work:   res.WorkUnits(),
		lists:  [][]string{nil},
		at:     make([]uint16, res.TD.NumNodes()),
	}
	for _, s := range core.ReachedStates(res.TD, ts.StateCount()) {
		if ts.IsError(s) && ts.Site(s) == site {
			t.ErrorSite = true
			break
		}
	}
	// index maps a list's length-prefixed encoding to its dictionary
	// entry; looking up string(key) does not allocate.
	index := map[string]uint16{}
	var states []typestate.AbsID
	var names []string
	var key []byte
	for node := range t.at {
		states = res.TD.AppendNodeStates(states[:0], node)
		names = names[:0]
		for _, s := range states {
			if ts.Site(s) == site {
				names = append(names, ts.StateName(s))
			}
		}
		if len(names) == 0 {
			continue
		}
		slices.Sort(names)
		names = slices.Compact(names)
		key = key[:0]
		for _, n := range names {
			key = append(binary.AppendUvarint(key, uint64(len(n))), n...)
		}
		i, ok := index[string(key)]
		if !ok {
			if len(t.lists) > math.MaxUint16 {
				return nil, fmt.Errorf("driver: %s slice %s has more than %d distinct state lists",
					res.Engine, sl.ID, math.MaxUint16)
			}
			i = uint16(len(t.lists))
			index[string(key)] = i
			t.lists = append(t.lists, append(make([]string, 0, len(names)), names...))
		}
		t.at[node] = i
	}
	return t, nil
}

// StatesAtNode returns the table's sorted state names at a global CFG node
// ID (nil when the site's tuples never reach it, or the ID is out of range
// — validation happens at the query layer). The result is shared with
// every node of the same state combination: callers must not mutate it.
func (t *SliceTable) StatesAtNode(node int) []string {
	if node < 0 || node >= len(t.at) {
		return nil
	}
	return t.lists[t.at[node]]
}

// Bytes is the table's memory footprint, the unit of SliceMemo's bound:
// the struct, its strings, the per-node index and the dictionary. Name
// strings are shared with the run's property table; they are counted
// once per list anyway, which overstates a table by a few bytes.
func (t *SliceTable) Bytes() int64 {
	n := int(unsafe.Sizeof(*t)) + len(t.Engine) + len(t.Site) +
		2*cap(t.at) + int(unsafe.Sizeof([]string(nil)))*cap(t.lists)
	for _, l := range t.lists {
		n += int(unsafe.Sizeof("")) * cap(l)
		for _, s := range l {
			n += len(s)
		}
	}
	return int64(n)
}

// SliceMemo is the in-memory slice-result cache behind demand queries: an
// LRU from SliceRunKey content addresses to SliceTables, bounded by the
// tables' total Bytes and shared across evaluators (and, in swiftd,
// across requests). Only completed deterministic slice runs are stored,
// so a hit is exact: the table equals what recomputing the slice would
// produce.
//
// Concurrent evaluators that miss on the same key may both compute the
// slice; both publish the identical table, so the race costs duplicate
// work, never a divergent answer.
type SliceMemo struct {
	mu     sync.Mutex
	tables *lru.Cache[string, *SliceTable] // bounded by the tables' Bytes

	hits   atomic.Int64
	misses atomic.Int64
}

// DefaultSliceMemoBytes bounds a NewSliceMemo(0) memo. A table of a
// 2,000-node program takes about 4.4 KB, so the default holds some 1,900
// of them — every slice of dozens of program versions — while a
// long-lived swiftd serving ever new versions holds no more than this in
// slice tables.
const DefaultSliceMemoBytes = 8 << 20

// NewSliceMemo returns an empty memo holding at most maxBytes of slice
// tables (DefaultSliceMemoBytes when maxBytes <= 0).
func NewSliceMemo(maxBytes int64) *SliceMemo {
	if maxBytes <= 0 {
		maxBytes = DefaultSliceMemoBytes
	}
	return &SliceMemo{tables: lru.New[string](maxBytes, (*SliceTable).Bytes)}
}

// lookup returns the memoized table for the key, updating recency and the
// hit/miss counters.
func (m *SliceMemo) lookup(key string) (*SliceTable, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables.Get(key)
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return t, ok
}

// add publishes a table under the key, evicting least recently used
// tables until the resident bytes fit the bound; a table larger than the
// whole bound is not retained and evicts nothing. The tables are
// deterministic, so when a re-add replaces a resident table, which copy
// survives is unobservable.
func (m *SliceMemo) add(key string, t *SliceTable) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tables.Add(key, t)
}

// MemoStats is a point-in-time snapshot of a SliceMemo.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	// Bytes is the resident tables' total Bytes; MaxBytes the bound.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"maxBytes"`
}

// Stats snapshots the memo's cumulative hit/miss counters, current size
// and bound.
func (m *SliceMemo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: m.tables.Len(),
		Bytes: m.tables.Cost(), MaxBytes: m.tables.Max()}
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
// on cache state, exactly why Warm.Run bypasses the store for them) and
// binds the evaluator. A nil memo gets a fresh default-bound one.
func NewDemandEvaluator(b *Build, engine string, cfg core.Config, memo *SliceMemo) (*DemandEvaluator, error) {
	switch engine {
	case "td", "bu", "swift":
	default:
		return nil, fmt.Errorf("driver: unknown engine %q (want td, bu or swift)", engine)
	}
	if cfg.Fault != nil {
		return nil, fmt.Errorf("driver: demand queries are incompatible with fault injection")
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
