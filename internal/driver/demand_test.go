package driver

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/typestate"
)

// exhaustiveSiteStates renders, from a completed monolithic run, the
// sorted distinct FSM state names of one site's tuples at one global node
// — the reference a demand SliceTable must reproduce under the exhaustive
// engines.
func exhaustiveSiteStates(b *Build, res *Result, site string, node int) []string {
	var names []string
	for _, s := range res.TD.NodeStates(node) {
		if b.TS.Site(s) == site {
			names = append(names, b.TS.StateName(s))
		}
	}
	sort.Strings(names)
	j := 0
	for i, n := range names {
		if i == 0 || n != names[j-1] {
			names[j] = n
			j++
		}
	}
	return names[:j]
}

// TestSliceTableMatchesExhaustive pins the demand layer's core guarantee
// against monolithic runs on the fixture programs: per-site error verdicts
// equal the exhaustive error report for every engine, and per-node state
// sets equal the exhaustive run's NodeStates under the engines whose
// monolithic run tabulates every context top-down (td; and bu, whose
// instantiation pass applies the same summaries either way).
func TestSliceTableMatchesExhaustive(t *testing.T) {
	for _, src := range []struct{ label, src string }{{"good", goodProgram}, {"bad", badProgram}} {
		for _, engine := range allEngines {
			b, err := FromSource(src.src)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.K = 1
			mono, err := b.Run(engine, cfg)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", src.label, engine, err)
			}
			report, err := b.ErrorReport(mono)
			if err != nil {
				t.Fatalf("%s/%s: ErrorReport: %v", src.label, engine, err)
			}
			errSites := map[string]bool{}
			for _, s := range report {
				errSites[s] = true
			}
			eval, err := NewDemandEvaluator(b, engine, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, site := range b.TS.TrackedSites() {
				tab, _, err := eval.Table(core.SliceID(site))
				if err != nil {
					t.Fatalf("%s/%s/%s: Table: %v", src.label, engine, site, err)
				}
				if tab.ErrorSite != errSites[site] {
					t.Errorf("%s/%s: demand IsError(%s) = %v, exhaustive report %v",
						src.label, engine, site, tab.ErrorSite, report)
				}
				if engine != "td" && engine != "bu" {
					continue
				}
				for node := 0; node < b.Core.CFG.NodeCount; node++ {
					want := exhaustiveSiteStates(b, mono, site, node)
					got := tab.StatesAtNode(node)
					if len(want) == 0 && len(got) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s: StatesAt(%s, node %d) = %v, exhaustive %v",
							src.label, engine, site, node, got, want)
					}
				}
			}
		}
	}
}

// TestDemandEvaluatorMemo covers the hit/miss accounting contract: a first
// batch pays for its distinct slices, a repeat batch — and any overlapping
// batch's shared slices — pays nothing.
func TestDemandEvaluatorMemo(t *testing.T) {
	b, err := FromSource(badProgram) // tracked sites h1, h2
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSliceMemo(0)
	eval, err := NewDemandEvaluator(b, "swift", core.DefaultConfig(), memo)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicated, unsorted batch coalesces to two distinct slices.
	tables, stats, err := eval.Tables([]core.SliceID{"h2", "h1", "h2", "h1", "h1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables["h1"] == nil || tables["h2"] == nil {
		t.Fatalf("tables = %v, want h1 and h2", tables)
	}
	if stats.Slices != 2 || stats.Hits != 0 || stats.Misses != 2 || stats.Work <= 0 {
		t.Errorf("cold batch stats = %+v, want 2 slices, 2 misses, positive work", stats)
	}

	// The same batch again: all hits, zero work, identical tables (same
	// pointers — served from the memo, not recomputed).
	again, stats, err := eval.Tables([]core.SliceID{"h1", "h2"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 2 || stats.Misses != 0 || stats.Work != 0 {
		t.Errorf("warm batch stats = %+v, want 2 hits and no work", stats)
	}
	if again["h1"] != tables["h1"] || again["h2"] != tables["h2"] {
		t.Error("warm batch rebuilt tables instead of serving memoized ones")
	}

	// A fresh evaluator over the same build and memo still hits: keys are
	// content addresses, not evaluator identity.
	eval2, err := NewDemandEvaluator(b, "swift", core.DefaultConfig(), memo)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err = eval2.Tables([]core.SliceID{"h1"}); err != nil {
		t.Fatal(err)
	} else if stats.Hits != 1 || stats.Misses != 0 {
		t.Errorf("cross-evaluator stats = %+v, want a pure hit", stats)
	}

	// A different engine misses: the engine is part of the key.
	evalTD, err := NewDemandEvaluator(b, "td", core.DefaultConfig(), memo)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err = evalTD.Tables([]core.SliceID{"h1"}); err != nil {
		t.Fatal(err)
	} else if stats.Misses != 1 {
		t.Errorf("cross-engine stats = %+v, want a miss", stats)
	}

	ms := memo.Stats()
	if ms.Entries != 3 || ms.Hits != 3 || ms.Misses != 3 {
		t.Errorf("memo stats = %+v, want 3 entries, 3 hits, 3 misses", ms)
	}
}

// TestSliceMemoLRUEviction pins the bounded behaviour: the least recently
// used entry goes first, and lookups refresh recency.
func TestSliceMemoLRUEviction(t *testing.T) {
	tab := func(site string) *SliceTable { return &SliceTable{Site: site} }
	m := NewSliceMemo(2 * tab("a").Bytes()) // room for two one-letter tables
	m.add("a", tab("a"))
	m.add("b", tab("b"))
	if _, ok := m.lookup("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a should be present")
	}
	m.add("c", tab("c")) // evicts b
	if _, ok := m.lookup("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := m.lookup(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if s := m.Stats(); s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
}

// sizedTable returns a synthetic slice table over nodes CFG nodes, whose
// Bytes grow with nodes.
func sizedTable(site string, nodes int) *SliceTable {
	return &SliceTable{Site: site, lists: [][]string{nil}, at: make([]uint16, nodes)}
}

// TestSliceMemoByteBound pins the memo's bound: it is in the tables'
// Bytes, Stats reports it and the resident bytes, a large table pushes
// out as many small ones as it needs, and a table larger than the whole
// bound is not retained and flushes nothing. The LRU's own rules
// (replacement, recency, the oversize rule) are pinned in internal/lru.
func TestSliceMemoByteBound(t *testing.T) {
	small, big := sizedTable("s", 100), sizedTable("b", 1000)
	bound := 4*small.Bytes() + small.Bytes()/2
	m := NewSliceMemo(bound)
	if s := m.Stats(); s.MaxBytes != bound || s.Bytes != 0 {
		t.Fatalf("empty memo stats = %+v, want bound %d and 0 bytes", s, bound)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		m.add(k, sizedTable("s", 100))
	}
	if s := m.Stats(); s.Entries != 4 || s.Bytes != 4*small.Bytes() {
		t.Fatalf("four small tables: %+v, want 4 entries of %d bytes", s, small.Bytes())
	}

	// A table the size of two small ones evicts the two least recent.
	base := sizedTable("m", 0).Bytes()
	double := sizedTable("m", int(2*small.Bytes()-base)/2)
	m.add("m", double)
	if s, want := m.Stats(), 2*small.Bytes()+double.Bytes(); s.Entries != 3 || s.Bytes != want {
		t.Errorf("after the double-size add: %+v, want 3 entries of %d bytes", s, want)
	}
	for k, want := range map[string]bool{"a": false, "b": false, "c": true, "d": true, "m": true} {
		if resident(m, k) != want {
			t.Errorf("after the double-size add, resident(%s) = %v, want %v", k, !want, want)
		}
	}

	if big.Bytes() <= bound {
		t.Fatalf("big table %d bytes fits the %d-byte bound", big.Bytes(), bound)
	}
	before := m.Stats()
	m.add("big", big)
	if resident(m, "big") {
		t.Error("a table over the whole bound was retained")
	}
	if after := m.Stats(); after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Errorf("oversized add changed the memo: %+v, was %+v", after, before)
	}
}

// resident reports whether the memo holds key, without counting a hit or
// a miss.
func resident(m *SliceMemo, key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.tables.Get(key)
	return ok
}

// TestDemandEvaluatorRejects covers constructor validation: unknown
// engines and fault-armed configs are refused up front.
func TestDemandEvaluatorRejects(t *testing.T) {
	b, err := FromSource(goodProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDemandEvaluator(b, "nope", core.DefaultConfig(), nil); err == nil {
		t.Error("unknown engine should be rejected")
	}
	cfg := core.DefaultConfig()
	cfg.Fault = &core.FaultPlan{Every: 3}
	if _, err := NewDemandEvaluator(b, "td", cfg, nil); err == nil {
		t.Error("fault-armed config should be rejected")
	}
}

// TestSliceRunKeyDistinguishes pins what the memo key must separate:
// slice, engine, thresholds and program version all change the content
// address; td's ignored trigger threshold does not (normalizeConfig).
func TestSliceRunKeyDistinguishes(t *testing.T) {
	b, err := FromSource(goodProgram)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := FromSource(badProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	base := SliceRunKey(b, "swift", cfg, "h1").ID()
	seen := map[string]string{"base": base}
	for label, id := range map[string]string{
		"other slice":   SliceRunKey(b, "swift", cfg, "h2").ID(),
		"other engine":  SliceRunKey(b, "td", cfg, "h1").ID(),
		"other program": SliceRunKey(b2, "swift", cfg, "h1").ID(),
	} {
		if id == base {
			t.Errorf("%s produced the same key as base", label)
		}
		for prev, pid := range seen {
			if pid == id {
				t.Errorf("%s and %s collide", label, prev)
			}
		}
		seen[label] = id
	}
	kcfg := cfg
	kcfg.K = 2
	if SliceRunKey(b, "swift", kcfg, "h1").ID() == base {
		t.Error("changing K should change a swift key")
	}
	if SliceRunKey(b, "td", kcfg, "h1").ID() != SliceRunKey(b, "td", cfg, "h1").ID() {
		t.Error("td ignores K; its key should too")
	}
}

// TestAbortedSliceNotMemoized: a slice run that aborts on a budget fails
// the Tables call with the slice named, and nothing is memoized — an
// aborted run has no instantiated states and must never answer
// "unreachable" from an empty table.
func TestAbortedSliceNotMemoized(t *testing.T) {
	b, err := FromSource(badProgram)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSliceMemo(0)
	cfg := core.DefaultConfig()
	cfg.MaxBUSteps = 1
	eval, err := NewDemandEvaluator(b, "bu", cfg, memo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eval.Table("h1"); err == nil {
		t.Fatal("budget-aborted slice should fail the Tables call")
	} else if !strings.Contains(err.Error(), "h1") {
		t.Errorf("abort error should name the slice: %v", err)
	}
	if s := memo.Stats(); s.Entries != 0 {
		t.Errorf("aborted run was memoized: %+v", s)
	}
	// With the budget lifted the same memo serves the slice normally.
	eval, err = NewDemandEvaluator(b, "bu", core.DefaultConfig(), memo)
	if err != nil {
		t.Fatal(err)
	}
	tab, stats, err := eval.Table("h1")
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || stats.Misses != 1 {
		t.Fatalf("recovery run: table=%v stats=%+v", tab, stats)
	}
}

// TestTablesUnknownSlice: an unknown slice ID surfaces as a dispatch
// error from the slice layer, not a silent empty table.
func TestTablesUnknownSlice(t *testing.T) {
	b, err := FromSource(goodProgram)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewDemandEvaluator(b, "td", core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eval.Tables([]core.SliceID{"no-such-site"}); err == nil {
		t.Error("unknown slice should fail")
	}
}

// TestRunSliceSetSubset: the core hook really runs only the named subset,
// and its per-slice outcomes are byte-identical to the same slices inside
// a full sliced run.
func TestRunSliceSetSubset(t *testing.T) {
	b, err := FromSource(badProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 1
	full, err := b.RunSliced("swift", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.RunSliceSet("swift", cfg, []core.SliceID{"h2", "h2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Slices) != 1 || sub.Slices[0].ID != "h2" {
		t.Fatalf("subset run has slices %v, want exactly h2", len(sub.Slices))
	}
	var wantRun *core.SliceRun[typestate.AbsID, typestate.RelID, typestate.FormulaID]
	for i := range full.Slices {
		if full.Slices[i].ID == "h2" {
			wantRun = &full.Slices[i]
		}
	}
	if wantRun == nil {
		t.Fatal("full run is missing slice h2")
	}
	got := fmt.Sprintf("work=%d tdsum=%d busum=%d triggered=%v",
		sub.Slices[0].Result.WorkUnits(), sub.Slices[0].Result.TDSummaryTotal(),
		sub.Slices[0].Result.BUSummaryTotal(), sub.Slices[0].Result.Triggered)
	want := fmt.Sprintf("work=%d tdsum=%d busum=%d triggered=%v",
		wantRun.Result.WorkUnits(), wantRun.Result.TDSummaryTotal(),
		wantRun.Result.BUSummaryTotal(), wantRun.Result.Triggered)
	if got != want {
		t.Errorf("subset slice outcome %q, inside full run %q", got, want)
	}
}

// oracleStatesAt is the per-node construction the compact SliceTable
// replaced: NodeStates of every node, filtered to the site's tuples,
// rendered, sorted and deduplicated into one list per node.
func oracleStatesAt(sl *core.SliceRun[typestate.AbsID, typestate.RelID, typestate.FormulaID]) [][]string {
	ts := sl.Client.(*typestate.Analysis)
	out := make([][]string, sl.Result.TD.NumNodes())
	for node := range out {
		var names []string
		for _, s := range sl.Result.TD.NodeStates(node) {
			if ts.Site(s) == string(sl.ID) {
				names = append(names, ts.StateName(s))
			}
		}
		sort.Strings(names)
		j := 0
		for i, n := range names {
			if i == 0 || n != names[j-1] {
				names[j] = n
				j++
			}
		}
		if j > 0 {
			out[node] = names[:j]
		}
	}
	return out
}

// TestSliceTableMatchesNodeStatesOracle checks the compact slice table
// against the per-node construction on every tracked site of three
// benchmark programs under td and swift: the same state list at every
// node, nil where the oracle has none, nil for out-of-range node IDs, and
// at most one dictionary entry per distinct list.
func TestSliceTableMatchesNodeStatesOracle(t *testing.T) {
	for _, name := range []string{"toba-s", "javasrc-p", "hedc"} {
		p, ok := benchprog.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		prog, err := benchprog.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromHIR(prog)
		if err != nil {
			t.Fatal(err)
		}
		var ids []core.SliceID
		for _, s := range b.TS.TrackedSites() {
			ids = append(ids, core.SliceID(s))
		}
		for _, engine := range []string{"td", "swift"} {
			res, err := b.RunSliceSet(engine, core.DefaultConfig(), ids)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, engine, err)
			}
			for i := range res.Slices {
				sl := &res.Slices[i]
				if sl.Result.Err != nil {
					t.Fatalf("%s/%s/%s: %v", name, engine, sl.ID, sl.Result.Err)
				}
				tab, err := buildSliceTable(sl)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, engine, sl.ID, err)
				}
				want := oracleStatesAt(sl)
				distinct := map[string]bool{}
				for node, w := range want {
					got := tab.StatesAtNode(node)
					if !reflect.DeepEqual(got, w) {
						t.Fatalf("%s/%s/%s: node %d states %v, oracle %v", name, engine, sl.ID, node, got, w)
					}
					if w != nil {
						distinct[strings.Join(w, "\x00")] = true
					}
				}
				for _, node := range []int{-1, len(want), len(want) + 1, 1 << 30} {
					if got := tab.StatesAtNode(node); got != nil {
						t.Errorf("%s/%s/%s: out-of-range node %d = %v, want nil", name, engine, sl.ID, node, got)
					}
				}
				// One dictionary entry per distinct list, after the nil
				// entry 0 (there even when every node is reached).
				if n := len(tab.lists); n != len(distinct)+1 || tab.lists[0] != nil {
					t.Errorf("%s/%s/%s: %d dictionary entries for %d distinct lists", name, engine, sl.ID, n, len(distinct))
				}
			}
		}
	}
}
