package core

import (
	"cmp"
	"slices"
)

// sortedSet is a canonical (sorted, duplicate-free) slice of ordered values.
// The solvers keep all state, relation and precondition sets in this form so
// iteration order — and therefore every counter and result — is
// deterministic.
type sortedSet[T cmp.Ordered] []T

// newSortedSet canonicalizes an arbitrary slice.
func newSortedSet[T cmp.Ordered](xs []T) sortedSet[T] {
	if len(xs) == 0 {
		return nil
	}
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// has reports membership by binary search.
func (s sortedSet[T]) has(x T) bool {
	_, ok := slices.BinarySearch(s, x)
	return ok
}

// insert returns the set with x added, reporting whether it was new. The
// result is always a fresh slice: sorted sets are shared freely across
// domain elements, so in-place extension would corrupt aliases.
func (s sortedSet[T]) insert(x T) (sortedSet[T], bool) {
	i, ok := slices.BinarySearch(s, x)
	if ok {
		return s, false
	}
	out := make(sortedSet[T], len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out, true
}

// union returns the union of two sorted sets.
func (s sortedSet[T]) union(t sortedSet[T]) sortedSet[T] {
	if len(t) == 0 {
		return s
	}
	if len(s) == 0 {
		return t
	}
	out := make(sortedSet[T], 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case t[j] < s[i]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// mergeAppend merges sorted set src into dst in place, reusing dst's
// capacity when it suffices (callers must own dst exclusively — the solver's
// wide path-edge cells qualify during a run, since results are only read
// after the drain). Newly added elements are appended to buf, which is returned
// so callers can reuse it as a scratch buffer; when src ⊆ dst the call
// performs one linear scan and no allocation. src is never modified.
func mergeAppend[T cmp.Ordered](dst sortedSet[T], src sortedSet[T], buf []T) (sortedSet[T], []T) {
	buf = buf[:0]
	// First pass: count the genuinely new elements.
	novel := 0
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i] < src[j]:
			i++
		case src[j] < dst[i]:
			novel++
			j++
		default:
			i, j = i+1, j+1
		}
	}
	novel += len(src) - j
	if novel == 0 {
		return dst, buf
	}
	// Grow by the exact overflow, then merge backwards so every element is
	// moved at most once and no temporary is needed.
	n := len(dst)
	dst = append(dst, src[:novel]...) // content overwritten below; just grows
	i, j = n-1, len(src)-1
	for k := len(dst) - 1; j >= 0; k-- {
		switch {
		case i >= 0 && dst[i] > src[j]:
			dst[k] = dst[i]
			i--
		case i >= 0 && dst[i] == src[j]:
			dst[k] = dst[i]
			i--
			j--
		default:
			dst[k] = src[j]
			buf = append(buf, src[j])
			j--
		}
	}
	return dst, buf
}

// equal reports set equality.
func (s sortedSet[T]) equal(t sortedSet[T]) bool { return slices.Equal(s, t) }

// multiset counts occurrences of ordered values; used for the incoming-state
// multiset M that guides the pruning operator's ranking.
type multiset[T cmp.Ordered] map[T]int

// add increments the count of x by n.
func (m multiset[T]) add(x T, n int) { m[x] += n }

// distinct returns the number of distinct elements.
func (m multiset[T]) distinct() int { return len(m) }
