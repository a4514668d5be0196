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
// A table stores its values in pages: arrays allocated once at their full
// capacity and never reallocated, so interning copies each value exactly
// once and a slice returned by at stays valid, on the same memory, for the
// table's lifetime. A value never straddles two pages. Page capacities
// start small and double up to pageCap elements, because a demand slice
// builds five fresh tables and most of them stay tiny; a value longer than
// pageCap gets a page of its own.
//
// Path sets are bitset rows of uint64, abstract states and relations
// fixed-length int32 encodings (internAbs, internRel): fixed-width tables.
// Their first page holds 1<<shift values and every page a multiple of
// that, so a page splits into chunks of 1<<shift values, and at finds
// value id by arithmetic — chunk id>>shift, index id&mask in it — through
// dir, one slice per chunk; the table keeps no per-value offsets.
// Transformers and formulas are variable-width int32 sequences: their
// pages fill in intern order, a value that does not fit a page's
// remainder starts the next page, and dir holds one slice per value.
//
// The index is an open-addressing array of {tag, ref} slots whose length is
// a power of two. tag is the low 32 bits of the value's 64-bit hash, and
// tag masked to the array length is the value's home slot. ref is the
// value's ID plus one, so the zero slot is the empty one and a fresh index
// straight from make needs no fill pass. intern probes linearly from home:
// an empty slot means the value is new and takes that slot; a slot with an
// equal tag is confirmed element by element against the stored value, so
// values that share a full hash simply sit in neighbouring slots. An insert
// that leaves the index more than half full doubles it, and every slot
// moves to the home its tag gives in the larger array, so growth rehashes
// no value.
//
// ID stability: IDs are dense and assigned in exactly the order unique
// values are first interned; the hash decides only where a slot sits,
// never an ID, and pages only where a value's bytes sit. Repeated runs of
// an engine on freshly built pipelines therefore produce byte-identical
// IDs, result tables and store blobs. Slice clones (slice.go) get fresh
// tables of their own and share only the frozen construction tables,
// which nothing writes after NewAnalysis returns.

const (
	// firstPage is the capacity, in elements, of a table's first page.
	firstPage = 64
	// pageCap is the capacity, in elements, past which pages stop
	// doubling: 64 KiB of set words or 32 KiB of int32s.
	pageCap = 8192
)

// slot is one entry of a table's index. ref is the ID of the value it
// locates plus one; ref == 0 marks an empty slot.
type slot struct {
	tag uint32
	ref int32
}

// table assigns dense int32 IDs to unique sequences of E.
type table[E ~int32 | ~uint64] struct {
	hash  func([]E) uint64
	pages [][]E // every page, in allocation order; see the file comment
	// dir locates values: chunk id>>shift of a fixed-width table, value
	// id of a variable-width one.
	dir [][]E
	n   int // number of interned values
	// width is every value's length in a fixed-width table and -1 in a
	// variable-width one. A fixed-width table's chunks hold 1<<shift
	// values (mask is one less) and its full pages 1<<fullShift.
	width            int
	shift, fullShift uint
	mask             int32
	grown            int // variable width only: last doubled page capacity
	slots            []slot
	// scratch is a reused value buffer for callers that build a value in
	// place and then intern it: the set operations, internAbs, internRel.
	scratch []E
}

// newTable returns an empty table of values of width elements each,
// hashing with hash; its scratch holds one value.
func newTable[E ~int32 | ~uint64](width int, hash func([]E) uint64) *table[E] {
	w := max(width, 1) // a width-0 table stores empty values, paged like width 1
	shift := uint(bits.Len(uint(max(firstPage/w, 1))) - 1)
	return &table[E]{
		hash: hash, width: width, slots: make([]slot, 16), scratch: make([]E, width),
		shift: shift, mask: 1<<shift - 1,
		fullShift: uint(bits.Len(uint(max(pageCap/w, 1))) - 1),
	}
}

// newVarTable returns an empty table of variable-width values hashing with
// hash.
func newVarTable[E ~int32 | ~uint64](hash func([]E) uint64) *table[E] {
	return &table[E]{hash: hash, width: -1, slots: make([]slot, 16)}
}

// newSetTable returns an empty table of path sets over a universe of
// numPaths paths: every set is a bitset row of ⌈numPaths/64⌉ words, bit p
// standing for path p.
func newSetTable(numPaths int, hash func([]uint64) uint64) *table[uint64] {
	return newTable((numPaths+63)/64, hash)
}

// intern returns the dense ID of xs, copying it into a page on first
// intern only; the caller keeps ownership of xs (often scratch). A value
// of a fixed-width table must have the table's width: its callers build
// every value in scratch.
func (t *table[E]) intern(xs []E) int32 {
	tag := uint32(t.hash(xs))
	mask := uint32(len(t.slots) - 1)
	i := tag & mask
	for ; t.slots[i].ref != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.tag == tag && slices.Equal(t.at(s.ref-1), xs) {
			return s.ref - 1
		}
	}
	id := int32(t.n)
	if t.width < 0 {
		t.storeVar(xs)
	} else {
		t.storeFixed(id, xs)
	}
	t.n++
	t.slots[i] = slot{tag: tag, ref: id + 1}
	if 2*t.n > len(t.slots) {
		t.grow()
	}
	return id
}

// storeFixed copies fixed-width value id into its chunk. When id starts a
// new page, it allocates the page — 1<<shift values doubling with every
// page up to 1<<fullShift — and appends the page's chunks to dir.
func (t *table[E]) storeFixed(id int32, xs []E) {
	c := int(id >> t.shift)
	if c == len(t.dir) {
		vals := 1 << min(t.shift+uint(len(t.pages)), t.fullShift)
		page := make([]E, vals*t.width)
		t.pages = append(t.pages, page)
		chunk := (1 << t.shift) * t.width
		for i := range vals >> t.shift {
			lo := i * chunk
			t.dir = append(t.dir, page[lo:lo+chunk:lo+chunk])
		}
	}
	copy(t.dir[c][int(id&t.mask)*t.width:], xs)
}

// storeVar appends a variable-width value to the last page, or to a new
// one when it does not fit that page's remainder.
func (t *table[E]) storeVar(xs []E) {
	last := len(t.pages) - 1
	if last < 0 || len(t.pages[last])+len(xs) > cap(t.pages[last]) {
		c := len(xs) // an oversized value gets a page of its own
		if len(xs) <= pageCap {
			c = min(max(2*t.grown, firstPage), pageCap)
			for c < len(xs) {
				c *= 2
			}
			t.grown = c
		}
		t.pages = append(t.pages, make([]E, 0, c))
		last++
	}
	lo := len(t.pages[last])
	t.pages[last] = append(t.pages[last], xs...)
	t.dir = append(t.dir, t.pages[last][lo:len(t.pages[last]):len(t.pages[last])])
}

// grow doubles the index, moving every slot to its tag's home.
func (t *table[E]) grow() {
	old := t.slots
	t.slots = make([]slot, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.tag & mask
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// at returns the value interned under id; callers must not modify it.
// Pages never move, so the slice stays valid, on the same memory, however
// many values are interned after it is taken.
func (t *table[E]) at(id int32) []E {
	if t.width < 0 {
		return t.dir[id]
	}
	lo := int(id&t.mask) * t.width
	return t.dir[id>>t.shift][lo : lo+t.width : lo+t.width]
}

// size returns the number of interned values.
func (t *table[E]) size() int { return t.n }

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
