package typestate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sortedSets is the reference model of the bitset set table: path sets as
// sorted slices, interned in first-intern order, with each operation's
// early returns and intern calls as the sorted-slice representation made
// them. Matching its IDs is what keeps EncodeTables bytes and store keys
// stable across the representation change.
type sortedSets struct {
	ids  map[string]SetID
	vals [][]PathID
}

func (m *sortedSets) intern(xs []PathID) SetID {
	k := fmt.Sprint(xs)
	if id, ok := m.ids[k]; ok {
		return id
	}
	id := SetID(len(m.vals))
	m.vals = append(m.vals, slices.Clone(xs))
	m.ids[k] = id
	return id
}

func (m *sortedSets) has(s SetID, p PathID) bool {
	_, ok := slices.BinarySearch(m.vals[s], p)
	return ok
}

func (m *sortedSets) insert(s SetID, p PathID) SetID {
	if m.has(s, p) {
		return s
	}
	out := slices.Clone(m.vals[s])
	i, _ := slices.BinarySearch(out, p)
	return m.intern(slices.Insert(out, i, p))
}

func (m *sortedSets) minus(s SetID, rm []PathID) SetID {
	if len(rm) == 0 {
		return s
	}
	var out []PathID
	for _, e := range m.vals[s] {
		if !slices.Contains(rm, e) {
			out = append(out, e)
		}
	}
	if len(out) == len(m.vals[s]) {
		return s
	}
	return m.intern(out)
}

func (m *sortedSets) union(a, b SetID) SetID {
	if a == b {
		return a
	}
	if len(m.vals[a]) == 0 {
		return b
	}
	if len(m.vals[b]) == 0 {
		return a
	}
	out := append(slices.Clone(m.vals[a]), m.vals[b]...)
	slices.Sort(out)
	return m.intern(slices.Compact(out))
}

func (m *sortedSets) intersect(a, b SetID) SetID {
	if a == b {
		return a
	}
	var out []PathID
	for _, e := range m.vals[a] {
		if m.has(b, e) {
			out = append(out, e)
		}
	}
	return m.intern(out)
}

func (m *sortedSets) coMinus(c coSet, rm []PathID) coSet {
	if c.Co {
		s := c.Set
		for _, p := range rm {
			s = m.insert(s, p)
		}
		return coSet{Co: true, Set: s}
	}
	return coSet{Co: false, Set: m.minus(c.Set, rm)}
}

func (m *sortedSets) coIntersect(a, b coSet) coSet {
	switch {
	case a.Co && b.Co:
		return coSet{Co: true, Set: m.union(a.Set, b.Set)}
	case a.Co:
		return coSet{Co: false, Set: m.minus(b.Set, m.vals[a.Set])}
	case b.Co:
		return coSet{Co: false, Set: m.minus(a.Set, m.vals[b.Set])}
	default:
		return coSet{Co: false, Set: m.intersect(a.Set, b.Set)}
	}
}

func (m *sortedSets) coIntersectSet(s SetID, c coSet) SetID {
	if c.Co {
		return m.minus(s, m.vals[c.Set])
	}
	return m.intersect(s, c.Set)
}

func (m *sortedSets) applyMustNot(nc SetID, nK coSet, nG SetID) SetID {
	return m.minus(m.union(nc, nK.Set), m.vals[nG])
}

// TestSetOpsMatchSortedReference runs seeded random sequences of the set
// algebra on the bitset table and on the sorted-slice model, on universes
// of one word, a partial word and several words, and requires every
// result to have the same members and the same first-intern ID.
func TestSetOpsMatchSortedReference(t *testing.T) {
	for _, numPaths := range []int{1, 5, 64, 65, 200} {
		rng := rand.New(rand.NewSource(int64(numPaths)))
		tab := &tables{sets: newSetTable(numPaths, hashRow)}
		ref := &sortedSets{ids: map[string]SetID{}}
		randPaths := func(density int) []PathID {
			var ps []PathID
			for p := 0; p < numPaths; p++ {
				if rng.Intn(density) == 0 {
					ps = append(ps, PathID(p))
				}
			}
			return ps
		}
		intern := func(ps []PathID) SetID {
			got, want := tab.internSet(ps), ref.intern(ps)
			if got != want {
				t.Fatalf("%d paths: internSet(%v) = %d, model %d", numPaths, ps, got, want)
			}
			return got
		}
		// Seed as initMutable does: empty set, universe; then a pool of
		// dense and sparse sets.
		intern(nil)
		intern(randPaths(1))
		for i := 0; i < 8; i++ {
			intern(randPaths(1 + rng.Intn(8)))
		}
		anySet := func() SetID { return SetID(rng.Intn(len(ref.vals))) }
		anyCo := func() coSet { return coSet{Co: rng.Intn(2) == 0, Set: anySet()} }
		fewPaths := func() []PathID { return randPaths(max(1, numPaths/3)) }
		check := func(step int, op string, got, want SetID) {
			t.Helper()
			if got != want {
				t.Fatalf("%d paths, step %d: %s = set %d, model %d", numPaths, step, op, got, want)
			}
			if tab.sets.size() != len(ref.vals) {
				t.Fatalf("%d paths, step %d: %s: %d sets interned, model %d", numPaths, step, op, tab.sets.size(), len(ref.vals))
			}
			if e := tab.setElems(got); !slices.Equal(e, ref.vals[want]) {
				t.Fatalf("%d paths, step %d: %s: members %v, model %v", numPaths, step, op, e, ref.vals[want])
			}
		}
		checkCo := func(step int, op string, got, want coSet) {
			t.Helper()
			if got.Co != want.Co {
				t.Fatalf("%d paths, step %d: %s: Co %v, model %v", numPaths, step, op, got.Co, want.Co)
			}
			check(step, op, got.Set, want.Set)
		}
		for step := 0; step < 4000; step++ {
			switch rng.Intn(10) {
			case 0:
				a, b := anySet(), anySet()
				check(step, "setUnion", tab.setUnion(a, b), ref.union(a, b))
			case 1:
				s, rm := anySet(), fewPaths()
				check(step, "setMinus", tab.setMinus(s, rm), ref.minus(s, rm))
			case 2:
				s, rm := anySet(), anySet()
				check(step, "setMinusSet", tab.setMinusSet(s, rm), ref.minus(s, ref.vals[rm]))
			case 3:
				a, b := anySet(), anySet()
				check(step, "setIntersect", tab.setIntersect(a, b), ref.intersect(a, b))
			case 4:
				s, p := anySet(), PathID(rng.Intn(numPaths))
				check(step, "setInsert", tab.setInsert(s, p), ref.insert(s, p))
			case 5:
				c, rm := anyCo(), fewPaths()
				checkCo(step, "coMinus", tab.coMinus(c, rm), ref.coMinus(c, rm))
			case 6:
				c, rm := anyCo(), anySet()
				checkCo(step, "coMinusSet", tab.coMinusSet(c, rm), ref.coMinus(c, ref.vals[rm]))
			case 7:
				a, b := anyCo(), anyCo()
				checkCo(step, "coIntersect", tab.coIntersect(a, b), ref.coIntersect(a, b))
			case 8:
				s, c := anySet(), anyCo()
				check(step, "coIntersectSet", tab.coIntersectSet(s, c), ref.coIntersectSet(s, c))
			default:
				nc, nK, nG := anySet(), coSet{Co: true, Set: anySet()}, anySet()
				check(step, "applyMustNot", tab.applyMustNot(nc, nK, nG), ref.applyMustNot(nc, nK, nG))
			}
		}
		if len(ref.vals) < 20 && numPaths > 5 {
			t.Fatalf("%d paths: only %d sets interned, the sequence is too narrow", numPaths, len(ref.vals))
		}
	}
}
