package lru

import "testing"

// byLen prices a string by its length.
func byLen(s string) int64 { return int64(len(s)) }

// check asserts the cache's size, its cost and which keys are resident.
// It reads through Get, so it refreshes the recency of every key it finds.
func check(t *testing.T, c *Cache[string, string], cost int64, resident map[string]bool) {
	t.Helper()
	n := 0
	for k, want := range resident {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("resident(%s) = %v, want %v", k, ok, want)
		}
		if want {
			n++
		}
	}
	if c.Len() != n || c.Cost() != cost {
		t.Errorf("len %d cost %d, want %d and %d", c.Len(), c.Cost(), n, cost)
	}
	if c.Cost() > c.Max() {
		t.Errorf("cost %d over the %d bound", c.Cost(), c.Max())
	}
}

// TestLRURecency: the least recently used entry goes first, and Get
// refreshes recency.
func TestLRURecency(t *testing.T) {
	c := New[string](2, func(string) int64 { return 1 })
	c.Add("a", "A")
	c.Add("b", "B")
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if n := c.Add("c", "C"); n != 1 {
		t.Errorf("Add(c) evicted %d, want 1", n)
	}
	check(t, c, 2, map[string]bool{"a": true, "b": false, "c": true})
	if _, ok := c.Get("missing"); ok {
		t.Error("Get of an absent key hit")
	}
}

// TestLRUCostBound: eviction is by total cost, so one costly entry pushes out
// as many cheap ones as it needs, least recent first.
func TestLRUCostBound(t *testing.T) {
	c := New[string](10, byLen)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		c.Add(k, "xx")
	}
	check(t, c, 10, map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true})
	// check touched the keys in map order; touching b..e makes a the LRU.
	for _, k := range []string{"b", "c", "d", "e"} {
		c.Get(k)
	}
	if n := c.Add("f", "xxxxxx"); n != 3 {
		t.Errorf("a 6-cost add evicted %d, want 3", n)
	}
	check(t, c, 10, map[string]bool{"a": false, "b": false, "c": false, "d": true, "e": true, "f": true})
}

// TestLRUReplaceSwapsCost: re-adding a key replaces its value and swaps its
// old cost for the new one instead of adding both, and refreshes recency.
func TestLRUReplaceSwapsCost(t *testing.T) {
	c := New[string](10, byLen)
	c.Add("a", "xxx")
	c.Add("b", "xxx")
	c.Add("a", "xxx")
	if c.Len() != 2 || c.Cost() != 6 {
		t.Fatalf("same-cost re-add: len %d cost %d, want 2 and 6", c.Len(), c.Cost())
	}
	c.Add("a", "x")
	if v, _ := c.Get("a"); v != "x" || c.Cost() != 4 {
		t.Errorf("resized re-add: value %q cost %d, want %q and 4", v, c.Cost(), "x")
	}
	// a was refreshed by the re-add and the Get, so b is the LRU.
	if n := c.Add("c", "xxxxxxx"); n != 1 {
		t.Errorf("evicted %d, want 1", n)
	}
	check(t, c, 8, map[string]bool{"a": true, "b": false, "c": true})
}

// TestLRUOversize: an entry costing more than the whole bound is not
// retained and evicts nothing; it still drops an older value under its
// key, which would otherwise be served stale.
func TestLRUOversize(t *testing.T) {
	c := New[string](10, byLen)
	c.Add("a", "xxxx")
	c.Add("b", "xxxx")
	if n := c.Add("big", "xxxxxxxxxxx"); n != 0 {
		t.Errorf("oversized add evicted %d, want 0", n)
	}
	check(t, c, 8, map[string]bool{"a": true, "b": true, "big": false})
	c.Add("a", "xxxxxxxxxxx")
	check(t, c, 4, map[string]bool{"a": false, "b": true})
	// An entry costing exactly the bound fits, evicting the rest.
	if n := c.Add("full", "xxxxxxxxxx"); n != 1 {
		t.Errorf("full-bound add evicted %d, want 1", n)
	}
	check(t, c, 10, map[string]bool{"b": false, "full": true})
}

// TestLRURemove: Remove drops an entry and its cost and reports whether it
// was there.
func TestLRURemove(t *testing.T) {
	c := New[string](10, byLen)
	c.Add("a", "xxx")
	c.Add("b", "xx")
	if !c.Remove("a") {
		t.Error("Remove(a) reported no entry")
	}
	if c.Remove("a") {
		t.Error("second Remove(a) reported an entry")
	}
	check(t, c, 2, map[string]bool{"a": false, "b": true})
	c.Add("a", "xxxxxxxx")
	check(t, c, 10, map[string]bool{"a": true, "b": true})
}
