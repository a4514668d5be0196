package typestate

import (
	"math/rand"
	"slices"
	"testing"
)

// reduceByMap is the map-grouped Reduce this package used before grouping
// by sorted rows: the reference the current Reduce must match exactly,
// in content and order.
func reduceByMap(a *Analysis, rels []RelID) []RelID {
	if len(rels) < 2 {
		return rels
	}
	type group struct{ ids []RelID }
	byTransform := map[rel]*group{}
	order := make([]rel, 0, len(rels))
	for _, id := range rels {
		k := a.relOf(id)
		k.pre = -1
		g := byTransform[k]
		if g == nil {
			g = &group{}
			byTransform[k] = g
			order = append(order, k)
		}
		g.ids = append(g.ids, id)
	}
	out := make([]RelID, 0, len(rels))
	for _, k := range order {
		g := byTransform[k]
		for _, r := range g.ids {
			dominated := false
			for _, s := range g.ids {
				if s != r && a.tab.implies(a.relOf(r).pre, a.relOf(s).pre) {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, r)
			}
		}
	}
	return out
}

// TestReduceMatchesMapGrouping replays random relation lists — with
// repeats, and with many relations sharing a transformer under different
// preconditions — through Reduce and the map-grouped reference: the
// outputs must be identical, groups in first-appearance order and
// relations in input order within a group.
func TestReduceMatchesMapGrouping(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(7))
	pool := relationPool(rng, ts, prims, 80)
	var pres []FormulaID
	for _, r := range pool {
		pres = append(pres, ts.PreOf(r))
	}
	// Re-intern pool transformers under other pools' preconditions, so
	// groups have several members and dominance has work to do.
	for _, r := range slices.Clone(pool) {
		for k := 0; k < 3; k++ {
			rr := ts.relOf(r)
			rr.pre = pres[rng.Intn(len(pres))]
			pool = append(pool, ts.internRel(rr))
		}
	}
	grouped := 0
	for trial := 0; trial < 3000; trial++ {
		rels := make([]RelID, rng.Intn(40))
		for i := range rels {
			rels[i] = pool[rng.Intn(len(pool))]
		}
		want := reduceByMap(ts, slices.Clone(rels))
		got := ts.Reduce(slices.Clone(rels))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Reduce(%v) = %v, map grouping %v", trial, rels, got, want)
		}
		if len(got) < len(rels) {
			grouped++
		}
	}
	if grouped < 100 {
		t.Errorf("only %d of 3000 lists lost a dominated relation; the pool no longer exercises grouping", grouped)
	}
}
