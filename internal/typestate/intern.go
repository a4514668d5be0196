package typestate

import (
	"math/bits"
	"slices"
)

// This file implements table, the one intern table type behind every
// runtime table of the type-state client: path sets, transformers,
// formulas, abstract states and relations. An Analysis is used by one
// goroutine at a time, so a table needs no locking.
//
// A table stores its values back to back in one flat arena, value id being
// vals[off[id]:off[id+1]]. Path sets are bitset rows of uint64, abstract
// states and relations fixed-length int32 encodings (internAbs,
// internRel), transformers and formulas their own int32 sequences. The
// index is an open-addressing array of {tag, id} slots whose length is a
// power of two. tag is the low 32 bits of the value's 64-bit hash, and
// tag masked to the array length is the value's home slot. intern probes
// linearly from home: an empty slot means the value is new and takes that
// slot; a slot with an equal tag is confirmed element by element against
// the arena, so values that share a full hash simply sit in neighbouring
// slots. An insert that leaves the index more than half full doubles it,
// and every slot moves to the home its tag gives in the larger array, so
// growth rehashes no value.
//
// ID stability: IDs are dense and assigned in exactly the order unique
// values are first interned; the hash decides only where a slot sits,
// never an ID. Repeated runs of an engine on freshly built pipelines
// therefore produce byte-identical IDs, result tables and store blobs.
// Slice clones (slice.go) get fresh tables of their own and share only the
// frozen construction tables, which nothing writes after NewAnalysis
// returns.

// slot is one entry of a table's index; id < 0 marks an empty slot.
type slot struct {
	tag uint32
	id  int32
}

// table assigns dense int32 IDs to unique sequences of E.
type table[E ~int32 | ~uint64] struct {
	hash  func([]E) uint64
	vals  []E     // the arena: every interned value, in ID order
	off   []int32 // value id is vals[off[id]:off[id+1]]
	slots []slot
	// scratch is a reused value buffer for callers that build a value in
	// place and then intern it: the set operations, internAbs, internRel.
	scratch []E
}

// newTable returns an empty table hashing with hash, whose scratch holds
// width elements.
func newTable[E ~int32 | ~uint64](width int, hash func([]E) uint64) *table[E] {
	return &table[E]{hash: hash, off: []int32{0}, slots: emptySlots(16), scratch: make([]E, width)}
}

// newSetTable returns an empty table of path sets over a universe of
// numPaths paths: every set is a bitset row of ⌈numPaths/64⌉ words, bit p
// standing for path p.
func newSetTable(numPaths int, hash func([]uint64) uint64) *table[uint64] {
	return newTable((numPaths+63)/64, hash)
}

func emptySlots(n int) []slot {
	s := make([]slot, n)
	for i := range s {
		s[i].id = -1
	}
	return s
}

// intern returns the dense ID of xs, appending a copy to the arena on first
// intern only; the caller keeps ownership of xs (often scratch).
func (t *table[E]) intern(xs []E) int32 {
	tag := uint32(t.hash(xs))
	mask := uint32(len(t.slots) - 1)
	i := tag & mask
	for ; t.slots[i].id >= 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.tag == tag && slices.Equal(t.at(s.id), xs) {
			return s.id
		}
	}
	id := int32(t.size())
	t.vals = append(t.vals, xs...)
	t.off = append(t.off, int32(len(t.vals)))
	t.slots[i] = slot{tag: tag, id: id}
	if 2*t.size() > len(t.slots) {
		t.grow()
	}
	return id
}

// grow doubles the index, moving every slot to its tag's home.
func (t *table[E]) grow() {
	old := t.slots
	t.slots = emptySlots(2 * len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.id < 0 {
			continue
		}
		i := s.tag & mask
		for t.slots[i].id >= 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// at returns the value interned under id; callers must not modify it. A
// value never changes once interned, so one taken before later interns
// stays valid: an arena reallocation leaves it on the old, identical copy.
func (t *table[E]) at(id int32) []E {
	lo, hi := t.off[id], t.off[id+1]
	return t.vals[lo:hi:hi]
}

// size returns the number of interned values.
func (t *table[E]) size() int { return len(t.off) - 1 }

// ---- hashing ----

const fnvOffset = 0xcbf29ce484222325

// fold mixes one 64-bit lane with a full 64×64→128-bit multiply whose
// halves are xored, so every input bit reaches every output bit, the low
// 32 bits a tag keeps included.
func fold(x uint64) uint64 {
	hi, lo := bits.Mul64(x, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// hashRow hashes a value one element per multiply. The length seeds the
// state, so values that differ only by trailing zeros differ.
func hashRow[E ~int32 | ~uint64](xs []E) uint64 {
	h := uint64(fnvOffset) ^ uint64(len(xs))
	for _, x := range xs {
		h = fold(h ^ uint64(x))
	}
	return h
}
