// Package query is the demand-driven query engine over the type-state
// analysis: point queries — "can site h reach state t at node n?", "which
// states does site h reach at node n?", "may site h error anywhere?" —
// answered by running only the tracked-site slice the query names
// (driver.RunSliceSet over the PR 5 decomposition) instead of the whole
// program, with completed slice results memoized across queries
// (driver.SliceMemo, keyed by the warm store's content digests). Latency
// scales with the question, not the program: a batch of queries costs the
// distinct slices it touches, repeated queries against the same program
// version cost nothing.
//
// Answer semantics. Every answer is computed from the named site's slice
// run under the chosen engine — the monolithic fixpoint restricted to
// {bootstrap} ∪ {tuples of the site} (DESIGN.md §8). IsError answers are
// therefore exactly the exhaustive run's error report, for every engine,
// and a sweep of IsError (or of CanReach on error states) over all sites
// reconstructs that report exactly. Node-level answers (StatesAt,
// CanReach) equal the exhaustive run's per-node states under the
// exhaustive engines (td, and bu's instantiation pass); under the hybrid
// engines they are at least as instantiated — the monolithic hybrid
// leaves summarized procedure bodies untabulated, while the demand slice
// instantiates the queried site's flow through them — and agree on every
// error-observable fact.
//
// Determinism: a slice's table is byte-identical whether it was computed
// alone, beside other slices on the pool, or served from the memo (fresh
// per-slice intern tables over frozen tables), so answers are independent of
// batch composition, query order, Config.SliceWorkers and cache state.
package query

import (
	"fmt"
	"sort"

	"swift/internal/core"
	"swift/internal/driver"
)

// Kind names a point-query form.
type Kind string

const (
	// KindCanReach asks whether the site's tracked object may be in the
	// named FSM state at the named node.
	KindCanReach Kind = "canReach"
	// KindStatesAt asks for all FSM states the site's tracked object may
	// be in at the named node.
	KindStatesAt Kind = "statesAt"
	// KindIsError asks whether the site's tracked object may reach its
	// property's error state anywhere in the program — the per-site
	// projection of the exhaustive error report.
	KindIsError Kind = "isError"
)

// Kinds lists every query kind, in rendering order.
func Kinds() []Kind { return []Kind{KindCanReach, KindStatesAt, KindIsError} }

// ParseKind resolves a kind name, case-sensitively, with a diagnostic
// naming the valid kinds on failure.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("query: unknown query kind %q (want canReach, statesAt or isError)", s)
}

// Query is one point query. Site always names a tracked allocation site.
// Node queries (canReach, statesAt) locate a program point as (Proc,
// Node): the procedure name and the node's index within that procedure's
// CFG in deterministic construction order — index 0 is the procedure
// entry, 1 its exit. CanReach additionally names an FSM state of the
// site's property.
type Query struct {
	Kind  Kind   `json:"kind"`
	Site  string `json:"site"`
	Proc  string `json:"proc,omitempty"`
	Node  int    `json:"node,omitempty"`
	State string `json:"state,omitempty"`
}

// String renders the query for diagnostics.
func (q Query) String() string {
	switch q.Kind {
	case KindCanReach:
		return fmt.Sprintf("canReach{%s, %s#%d, %s}", q.Site, q.Proc, q.Node, q.State)
	case KindStatesAt:
		return fmt.Sprintf("statesAt{%s, %s#%d}", q.Site, q.Proc, q.Node)
	case KindIsError:
		return fmt.Sprintf("isError{%s}", q.Site)
	}
	return fmt.Sprintf("%s{%s}", string(q.Kind), q.Site)
}

// Answer is one query's result. Reachable answers canReach ("the state is
// reachable at the node") and isError ("the site may error"); States
// answers statesAt (sorted distinct FSM state names, empty when the
// site's object never reaches the node).
type Answer struct {
	Query     Query    `json:"query"`
	Reachable bool     `json:"reachable"`
	States    []string `json:"states,omitempty"`
}

// Engine answers point queries for one built pipeline under one engine
// and configuration, through a slice memo. Safe for concurrent use: the
// underlying evaluator only reads the frozen pipeline and the memo is
// internally synchronized.
type Engine struct {
	b    *driver.Build
	eval *driver.DemandEvaluator

	tracked map[string]bool
	states  map[string]map[string]bool // site → FSM state names
}

// New binds a query engine. memo may be shared across engines (and
// program versions — keys carry the program digests); nil gets a private
// default-capacity memo.
func New(b *driver.Build, engine string, cfg core.Config, memo *driver.SliceMemo) (*Engine, error) {
	eval, err := driver.NewDemandEvaluator(b, engine, cfg, memo)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		b:       b,
		eval:    eval,
		tracked: map[string]bool{},
		states:  map[string]map[string]bool{},
	}
	for _, site := range b.TS.TrackedSites() {
		e.tracked[site] = true
		names, err := b.TS.SiteStates(site)
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		e.states[site] = set
	}
	return e, nil
}

// TrackedSites returns the sorted tracked allocation-site labels queries
// may name.
func (e *Engine) TrackedSites() []string { return e.b.TS.TrackedSites() }

// Validate checks a query against the program: known kind, tracked site,
// and — for node queries — an existing procedure, an in-range node index,
// and (canReach) an FSM state of the site's property. Validation is free
// of any analysis work, so servers can reject bad queries before paying
// for slices.
func (e *Engine) Validate(q Query) error {
	if _, err := ParseKind(string(q.Kind)); err != nil {
		return err
	}
	if !e.tracked[q.Site] {
		return fmt.Errorf("query: %s: site %q is not a tracked allocation site", q, q.Site)
	}
	if q.Kind == KindIsError {
		return nil
	}
	pc, ok := e.b.Core.CFG.ByProc[q.Proc]
	if !ok {
		return fmt.Errorf("query: %s: unknown procedure %q", q, q.Proc)
	}
	if q.Node < 0 || q.Node >= len(pc.Nodes) {
		return fmt.Errorf("query: %s: node %d out of range (procedure %q has %d nodes)",
			q, q.Node, q.Proc, len(pc.Nodes))
	}
	if q.Kind == KindCanReach && !e.states[q.Site][q.State] {
		return fmt.Errorf("query: %s: property tracking site %q has no state %q", q, q.Site, q.State)
	}
	return nil
}

// globalNode resolves a validated node query to the global CFG node ID.
func (e *Engine) globalNode(q Query) int {
	return e.b.Core.CFG.ByProc[q.Proc].Nodes[q.Node].ID
}

// answerFrom derives one validated query's answer from its slice table.
func (e *Engine) answerFrom(q Query, t *driver.SliceTable) Answer {
	a := Answer{Query: q}
	switch q.Kind {
	case KindIsError:
		a.Reachable = t.ErrorSite
	case KindStatesAt:
		a.States = t.StatesAtNode(e.globalNode(q))
	case KindCanReach:
		for _, s := range t.StatesAtNode(e.globalNode(q)) {
			if s == q.State {
				a.Reachable = true
				break
			}
		}
	}
	return a
}

// Answer evaluates a single query.
func (e *Engine) Answer(q Query) (Answer, driver.EvalStats, error) {
	answers, stats, err := e.AnswerBatch([]Query{q})
	if err != nil {
		return Answer{}, stats, err
	}
	return answers[0], stats, nil
}

// AnswerBatch evaluates a query batch: every query is validated first (an
// invalid query fails the whole batch before any analysis runs), the
// batch is coalesced to its distinct slices, the slices are resolved
// through the memo — missing ones computed together on the bounded pool —
// and every answer is derived from the resulting tables. Answers are
// positionally aligned with the queries and independent of batch
// composition, order and worker count.
func (e *Engine) AnswerBatch(qs []Query) ([]Answer, driver.EvalStats, error) {
	for i, q := range qs {
		if err := e.Validate(q); err != nil {
			return nil, driver.EvalStats{}, fmt.Errorf("query %d: %w", i, err)
		}
	}
	ids := make([]core.SliceID, len(qs))
	for i, q := range qs {
		ids[i] = core.SliceID(q.Site)
	}
	tables, stats, err := e.eval.Tables(ids)
	if err != nil {
		return nil, stats, err
	}
	answers := make([]Answer, len(qs))
	for i, q := range qs {
		answers[i] = e.answerFrom(q, tables[core.SliceID(q.Site)])
	}
	return answers, stats, nil
}

// SortQueries orders queries site-first (then kind, proc, node, state) —
// the coalescing order batches use for deterministic rendering. It is a
// convenience for tests and tools; AnswerBatch itself accepts any order.
func SortQueries(qs []Query) {
	sort.Slice(qs, func(i, j int) bool {
		a, b := qs[i], qs[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.State < b.State
	})
}
