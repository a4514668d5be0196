package typestate

import (
	"math/bits"
	"slices"
)

// This file implements the interning substrate shared by every table of
// the type-state client (paths, path sets, transformers, abstract states,
// precondition formulas, relations). An Analysis is used by one goroutine
// at a time, so each table is one Go map from value (or content hash) to
// ID plus one slice from ID to value (for path sets, one flat arena of
// bitset rows), with no locking.
//
// ID stability: IDs are dense and assigned in exactly the order unique
// values are first interned, so repeated runs of an engine on freshly built
// pipelines produce byte-identical IDs, result tables and store blobs.
// Slice clones (slice.go) get fresh mutable tables of their own and share
// only the frozen construction tables, which nothing writes after
// NewAnalysis returns.

// interner assigns dense int32 IDs to unique values of a comparable type,
// which serve as their own map keys.
type interner[K comparable] struct {
	ids  map[K]int32
	vals []K
}

func newInterner[K comparable]() *interner[K] {
	return &interner[K]{ids: map[K]int32{}}
}

// intern returns the dense ID of k.
func (it *interner[K]) intern(k K) int32 {
	if id, ok := it.ids[k]; ok {
		return id
	}
	id := int32(len(it.vals))
	it.vals = append(it.vals, k)
	it.ids[k] = id
	return id
}

// lookup returns the ID of k without interning.
func (it *interner[K]) lookup(k K) (int32, bool) {
	id, ok := it.ids[k]
	return id, ok
}

// at returns the value interned under id.
func (it *interner[K]) at(id int32) K { return it.vals[id] }

// size returns the number of interned values.
func (it *interner[K]) size() int { return len(it.vals) }

// seqInterner assigns dense int32 IDs to unique int32 sequences —
// transformer vectors and formulas. It is keyed by a 64-bit content
// hash and confirmed by comparing elements, so each sequence is stored
// once (in vals) and the map holds only fixed-size keys. Two distinct
// sequences that share a full hash are both kept: the first ID sits in
// ids, later ones in the overflow chain more.
type seqInterner[E ~int32] struct {
	hash func([]E) uint64
	ids  map[uint64]int32
	more map[uint64][]int32 // nil until the first full-hash collision
	vals [][]E
}

func newSeqInterner[E ~int32](hash func([]E) uint64) *seqInterner[E] {
	return &seqInterner[E]{hash: hash, ids: map[uint64]int32{}}
}

// intern returns the dense ID of xs, storing a copy on first intern only;
// the caller keeps ownership of xs.
func (it *seqInterner[E]) intern(xs []E) int32 {
	h := it.hash(xs)
	first, taken := it.ids[h]
	if taken {
		if slices.Equal(it.vals[first], xs) {
			return first
		}
		for _, id := range it.more[h] {
			if slices.Equal(it.vals[id], xs) {
				return id
			}
		}
	}
	id := int32(len(it.vals))
	cp := make([]E, len(xs))
	copy(cp, xs)
	it.vals = append(it.vals, cp)
	if !taken {
		it.ids[h] = id
		return id
	}
	if it.more == nil {
		it.more = map[uint64][]int32{}
	}
	it.more[h] = append(it.more[h], id)
	return id
}

// at returns the sequence interned under id; callers must not modify it.
func (it *seqInterner[E]) at(id int32) []E { return it.vals[id] }

// size returns the number of interned sequences.
func (it *seqInterner[E]) size() int { return len(it.vals) }

// setTable assigns dense int32 IDs to path sets stored as fixed-width
// bitsets. Every set is a row of w = ⌈numPaths/64⌉ words, bit p of a row
// standing for path p, and all rows live in one flat arena: set i is
// words[i*w:(i+1)*w]. Interning a new set appends its row, so the table
// allocates no slice per set. Rows are keyed by a 64-bit content hash and
// confirmed word by word, with the same overflow chain as seqInterner.
// The set operations of domain.go build their result in scratch, the one
// reused row of the table, and intern it from there. Rows never change
// once interned, so a row taken before later interns stays valid: an
// arena reallocation leaves it on the old, identical copy.
type setTable struct {
	w       int
	n       int32
	hash    func([]uint64) uint64
	words   []uint64
	ids     map[uint64]int32
	more    map[uint64][]int32 // nil until the first full-hash collision
	scratch []uint64
}

func newSetTable(numPaths int, hash func([]uint64) uint64) *setTable {
	w := (numPaths + 63) / 64
	return &setTable{w: w, hash: hash, ids: map[uint64]int32{}, scratch: make([]uint64, w)}
}

// row returns the bitset of set id; callers must not modify it.
func (st *setTable) row(id int32) []uint64 {
	lo, hi := int(id)*st.w, int(id+1)*st.w
	return st.words[lo:hi:hi]
}

// intern returns the dense ID of the set whose bitset is row, appending a
// copy to the arena on first intern only; the caller keeps ownership of
// row (usually scratch).
func (st *setTable) intern(row []uint64) int32 {
	h := st.hash(row)
	first, taken := st.ids[h]
	if taken {
		if slices.Equal(st.row(first), row) {
			return first
		}
		for _, id := range st.more[h] {
			if slices.Equal(st.row(id), row) {
				return id
			}
		}
	}
	id := st.n
	st.n++
	st.words = append(st.words, row...)
	if !taken {
		st.ids[h] = id
		return id
	}
	if st.more == nil {
		st.more = map[uint64][]int32{}
	}
	st.more[h] = append(st.more[h], id)
	return id
}

// size returns the number of interned sets.
func (st *setTable) size() int { return int(st.n) }

// ---- hashing ----

// The content hash of seqInterner and setTable is the map key; it plays no
// part in ID assignment (IDs follow first-intern order), so its quality
// affects chain length, never determinism.

const fnvOffset = 0xcbf29ce484222325

// fold mixes one 64-bit lane with a full 64×64→128-bit multiply whose
// halves are xored, so every input bit reaches every output bit and
// full-hash collisions (a chain walk, see seqInterner) stay rare.
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

// hashRow hashes a fixed-width bitset row one word per multiply. Rows of
// one table share their width, so the length needs no mixing in.
func hashRow(ws []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, w := range ws {
		h = fold(h ^ w)
	}
	return h
}
