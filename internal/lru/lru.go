// Package lru is the least-recently-used map behind swiftd's caches: the
// store's memory tier, the slice memo and the source-digest key memo. A
// Cache is bounded by the total cost of its entries, priced by a function
// of the value (blob bytes, table bytes, or 1 per entry for a count
// bound). It is not synchronized: callers hold their own mutex and keep
// their own hit and miss counters.
package lru

import "container/list"

// Cache maps keys to values in recency order and holds entries whose
// costs sum to at most its bound.
type Cache[K comparable, V any] struct {
	max    int64
	costOf func(V) int64
	cost   int64               // sum of the resident entries' costs
	order  *list.List          // front = most recently used; values are *entry[K, V]
	items  map[K]*list.Element // key → element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64 // costOf(val) at insertion
}

// New returns an empty cache whose entries' costs sum to at most max.
func New[K comparable, V any](max int64, costOf func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{max: max, costOf: costOf, order: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key as the most recently used entry, replacing any
// value already there and its cost, then evicts least recently used
// entries until the bound holds. It returns how many entries it evicted.
// A value costing more than the whole bound is not retained and evicts
// nothing; it still replaces, so drops, an older value under key.
func (c *Cache[K, V]) Add(key K, val V) (evicted int) {
	cost := c.costOf(val)
	if cost > c.max {
		c.Remove(key)
		return 0
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
		c.cost += cost
	}
	for c.cost > c.max {
		c.removeElement(c.order.Back())
		evicted++
	}
	return evicted
}

// Remove drops the entry under key and reports whether there was one.
func (c *Cache[K, V]) Remove(key K) bool {
	el, ok := c.items[key]
	if ok {
		c.removeElement(el)
	}
	return ok
}

func (c *Cache[K, V]) removeElement(el *list.Element) {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.cost -= e.cost
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cost returns the resident entries' total cost, at most Max.
func (c *Cache[K, V]) Cost() int64 { return c.cost }

// Max returns the bound on Cost.
func (c *Cache[K, V]) Max() int64 { return c.max }
