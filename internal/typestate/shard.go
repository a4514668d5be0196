package typestate

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the sharded interning substrate shared by every
// table of the type-state client (paths, path sets, transformers, abstract
// states, precondition formulas, relations). It exists so concurrent
// bottom-up workers (core.RunSwiftAsync, the paper's Section 7
// parallelization) can intern new values without serializing on one global
// write lock: PR 1's read/write-split Synchronized wrapper still funneled
// every mutating client operation — Trans, RTrans, RComp, Apply, WPre —
// through a single sync.RWMutex, which was the top scalability item on the
// roadmap.
//
// Design: a two-phase lookup with a striped write path.
//
//   - The key→ID map of each table is hash-partitioned into shardCount
//     shards, each guarded by its own RWMutex. A lookup hashes the value,
//     read-locks only that shard, and — on a miss — write-locks only that
//     shard to install the new entry (with a double-check, so concurrent
//     interns of the same value always return the same ID). Fixed-size
//     values are their own map keys; int32 sequences (seqInterner) are
//     keyed by a 64-bit content hash and confirmed element by element.
//   - Dense IDs are allocated from one atomic counter per table. A
//     fetch-add is wait-free, so ID allocation never becomes the
//     serialization point the old global write lock was.
//   - ID→value lookups go through a paged append-only store whose page
//     spine is a fixed slice of atomic pointers; readers never take any
//     lock. A slot is written before the ID is published (returned by
//     intern, or made visible through a shard map), so any goroutine that
//     legitimately holds an ID can dereference it.
//
// ID stability: in a single-threaded run the atomic counter assigns IDs in
// exactly the order unique values are first interned — the same order the
// previous map+slice implementation used — so the serial engines (td, bu,
// swift) produce byte-identical results before and after sharding. Only
// the asynchronous engine can observe different ID orders run to run, and
// its counters are timing-dependent by design. Concurrent interns of the
// same value return the same ID in all interleavings; denseness holds
// because the counter is bumped only after the shard's double-check
// misses, i.e. exactly once per unique value.

const (
	// shardCount is the number of lock stripes per table. 64 comfortably
	// exceeds the worker counts the async engine spawns (one per in-flight
	// trigger), so mutating traffic rarely collides on a stripe.
	shardCount = 64
	shardMask  = shardCount - 1

	// The paged store holds up to pageCount*pageSize values per table.
	// 2^14 pages of 2^12 slots bounds a table at 2^26 IDs — far beyond any
	// benchmark in the suite — while keeping the page spine at 16K atomic
	// pointers (128 KiB) per table.
	pageBits  = 12
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	pageCount = 1 << 14
)

// pagedStore is an append-only ID→value array safe for concurrent use.
// set(id, v) must happen before id is published to other goroutines (the
// interner guarantees this); get never locks.
type pagedStore[V any] struct {
	pages []atomic.Pointer[[pageSize]V]
}

func newPagedStore[V any]() pagedStore[V] {
	return pagedStore[V]{pages: make([]atomic.Pointer[[pageSize]V], pageCount)}
}

func (ps *pagedStore[V]) set(id int32, v V) {
	slot := &ps.pages[int(id)>>pageBits]
	p := slot.Load()
	if p == nil {
		fresh := new([pageSize]V)
		if !slot.CompareAndSwap(nil, fresh) {
			p = slot.Load() // another writer installed the page first
		} else {
			p = fresh
		}
	}
	p[int(id)&pageMask] = v
}

func (ps *pagedStore[V]) get(id int32) V {
	return ps.pages[int(id)>>pageBits].Load()[int(id)&pageMask]
}

// internShard is one lock stripe of an interner's key→ID map. The padding
// keeps adjacent stripes on separate cache lines so uncontended shards do
// not false-share.
type internShard[K comparable] struct {
	mu sync.RWMutex
	m  map[K]int32
	_  [24]byte
}

// interner assigns dense int32 IDs to unique values of a comparable type,
// which serve as their own map keys. Safe for concurrent use; see the file
// comment for the scheme.
type interner[K comparable] struct {
	hash   func(K) uint64
	n      atomic.Int32
	store  pagedStore[K]
	shards [shardCount]internShard[K]
}

func newInterner[K comparable](hash func(K) uint64) *interner[K] {
	it := &interner[K]{hash: hash, store: newPagedStore[K]()}
	for i := range it.shards {
		it.shards[i].m = map[K]int32{}
	}
	return it
}

// intern returns the dense ID of k. Concurrent interns of equal values
// return the same ID.
func (it *interner[K]) intern(k K) int32 {
	sh := &it.shards[it.hash(k)&shardMask]
	sh.mu.RLock()
	id, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.m[k]; ok {
		return id
	}
	id = it.n.Add(1) - 1
	// The slot is written before the ID is published via the map (or the
	// return value), so holders of an ID can always dereference it.
	it.store.set(id, k)
	sh.m[k] = id
	return id
}

// lookup returns the ID of k without interning.
func (it *interner[K]) lookup(k K) (int32, bool) {
	sh := &it.shards[it.hash(k)&shardMask]
	sh.mu.RLock()
	id, ok := sh.m[k]
	sh.mu.RUnlock()
	return id, ok
}

// at returns the value interned under id. The caller must hold a
// legitimately published id.
func (it *interner[K]) at(id int32) K { return it.store.get(id) }

// size returns the number of interned values. Concurrently with writers it
// is a lower bound on published entries plus in-flight reservations.
func (it *interner[K]) size() int { return int(it.n.Load()) }

// seqInterner assigns dense int32 IDs to unique int32 sequences — path
// sets, transformer vectors and formulas. It is keyed by a 64-bit content
// hash and confirmed by comparing elements, so each sequence is stored
// once (in the paged store) and the shard maps hold only fixed-size keys.
// Two distinct sequences that share a full hash are both kept: the first
// ID sits in m, later ones in the shard's overflow chain. Locking, ID
// allocation and publication follow interner exactly.
type seqInterner[E ~int32] struct {
	hash   func([]E) uint64
	n      atomic.Int32
	store  pagedStore[[]E]
	shards [shardCount]seqShard
}

// seqShard is one lock stripe of a seqInterner. more is allocated on the
// first full-hash collision and is nil in practice.
type seqShard struct {
	mu   sync.RWMutex
	m    map[uint64]int32
	more map[uint64][]int32
	_    [24]byte
}

func newSeqInterner[E ~int32](hash func([]E) uint64) *seqInterner[E] {
	it := &seqInterner[E]{hash: hash, store: newPagedStore[[]E]()}
	for i := range it.shards {
		it.shards[i].m = map[uint64]int32{}
	}
	return it
}

// find returns the ID of xs in sh, whose lock the caller holds.
func (it *seqInterner[E]) find(sh *seqShard, h uint64, xs []E) (int32, bool) {
	id, ok := sh.m[h]
	if !ok {
		return 0, false
	}
	if slices.Equal(it.store.get(id), xs) {
		return id, true
	}
	for _, id := range sh.more[h] {
		if slices.Equal(it.store.get(id), xs) {
			return id, true
		}
	}
	return 0, false
}

// intern returns the dense ID of xs, storing a copy on first intern only;
// the caller keeps ownership of xs. Concurrent interns of equal sequences
// return the same ID.
func (it *seqInterner[E]) intern(xs []E) int32 {
	h := it.hash(xs)
	sh := &it.shards[h&shardMask]
	sh.mu.RLock()
	id, ok := it.find(sh, h, xs)
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := it.find(sh, h, xs); ok {
		return id
	}
	id = it.n.Add(1) - 1
	cp := make([]E, len(xs))
	copy(cp, xs)
	it.store.set(id, cp)
	if _, taken := sh.m[h]; taken {
		if sh.more == nil {
			sh.more = map[uint64][]int32{}
		}
		sh.more[h] = append(sh.more[h], id)
	} else {
		sh.m[h] = id
	}
	return id
}

// at returns the sequence interned under id; callers must not modify it.
func (it *seqInterner[E]) at(id int32) []E { return it.store.get(id) }

// size returns the number of interned sequences (see interner.size).
func (it *seqInterner[E]) size() int { return int(it.n.Load()) }

// memoMap is a sharded memoization map for derived values that carry no
// ID of their own (transformer composition, method transformers). Both
// sides of a racing put compute equal values — the memoized functions are
// deterministic — so last-write-wins is safe.
type memoMap[K comparable, V any] struct {
	hash   func(K) uint64
	shards [shardCount]memoShard[K, V]
}

type memoShard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
	_  [24]byte
}

func newMemoMap[K comparable, V any](hash func(K) uint64) *memoMap[K, V] {
	mm := &memoMap[K, V]{hash: hash}
	for i := range mm.shards {
		mm.shards[i].m = map[K]V{}
	}
	return mm
}

func (mm *memoMap[K, V]) get(k K) (V, bool) {
	sh := &mm.shards[mm.hash(k)&shardMask]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

func (mm *memoMap[K, V]) put(k K, v V) {
	sh := &mm.shards[mm.hash(k)&shardMask]
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// ---- hashing ----

// FNV-style hashing over the canonical encodings of interned values. A
// hash picks a lock stripe and, for seqInterner and the set-op memo, is the
// shard map's key; it plays no part in ID assignment (IDs follow
// first-intern order), so its quality affects contention and chain length,
// never determinism.

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// hashString folds s in eight bytes per multiply, then the remaining bytes
// one at a time. A multiply only carries upward, so the final shift folds
// the well-mixed high half into the low bits the stripe mask reads.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h ^= uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h *= fnvPrime
	}
	for ; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h ^ h>>32
}

// mix folds one 64-bit lane into a running FNV-style hash.
func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	return h
}

// fold mixes one 64-bit lane with a full 64×64→128-bit multiply whose
// halves are xored, so every input bit reaches the low bits the stripe mask
// reads and full-hash collisions (a chain walk, see seqInterner) stay rare.
func fold(x uint64) uint64 {
	hi, lo := bits.Mul64(x, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// hashSeq hashes an int32 sequence two elements per multiply. The length
// seeds the state, so sequences that differ only by trailing zeros differ.
func hashSeq[E ~int32](xs []E) uint64 {
	h := uint64(fnvOffset) ^ uint64(len(xs))
	i := 0
	for ; i+2 <= len(xs); i += 2 {
		h = fold(h ^ (uint64(uint32(xs[i])) | uint64(uint32(xs[i+1]))<<32))
	}
	if i < len(xs) {
		h = fold(h ^ uint64(uint32(xs[i])))
	}
	return h
}

func hashPath(p path) uint64 {
	return mix(hashString(p.base), hashString(p.field))
}

func hashAbs(s absState) uint64 {
	h := mix(uint64(fnvOffset), uint64(uint32(s.h)))
	h = mix(h, uint64(uint32(s.t)))
	h = mix(h, uint64(uint32(s.a)))
	return mix(h, uint64(uint32(s.nc)))
}

func hashTransPair(k [2]TransID) uint64 {
	return mix(mix(uint64(fnvOffset), uint64(uint32(k[0]))), uint64(uint32(k[1])))
}

func hashCoSet(h uint64, c coSet) uint64 {
	b := uint64(0)
	if c.Co {
		b = 1
	}
	return mix(mix(h, b), uint64(uint32(c.Set)))
}

func hashRel(r rel) uint64 {
	h := mix(uint64(fnvOffset), uint64(r.kind))
	h = mix(h, uint64(uint32(r.out)))
	h = mix(h, uint64(uint32(r.iota)))
	h = hashCoSet(h, r.aK)
	h = mix(h, uint64(uint32(r.aG)))
	h = hashCoSet(h, r.nK)
	h = mix(h, uint64(uint32(r.nG)))
	return mix(h, uint64(uint32(r.pre)))
}
