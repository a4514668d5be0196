package core

import (
	"cmp"
	"slices"
	"sort"

	"swift/internal/wire"
)

// This file gives the persistent store (internal/store, internal/driver)
// codec access to the framework's result shapes whose representation is
// unexported: RSet construction from decoded parts, and a versioned,
// canonical encoding of TDResult tables. Canonical means independent of
// map iteration order and of the order contexts arrived in — procedures,
// entry contexts and states are written sorted — so runs that reach the
// same tables under different schedules encode byte-identically. State
// values S are translated through a caller-supplied enc function, since
// only the client knows what its IDs mean (the typestate client's are
// dense interned int32s).

const tdMagic = "SWTD1"

// MakeRSet builds a summary-domain element from decoded parts,
// canonicalizing both sets. It is the only way to construct an RSet
// outside this package (the set representation is unexported on purpose —
// the solvers rely on its invariants).
func MakeRSet[R cmp.Ordered, P cmp.Ordered](rels []R, sigma []P) RSet[R, P] {
	return RSet[R, P]{Rels: newSortedSet(rels), Sigma: newSortedSet(sigma)}
}

// RSetParts returns the relation and Sigma members of a summary, sorted.
// The returned slices are the set's own storage; callers must not mutate
// them.
func RSetParts[R cmp.Ordered, P cmp.Ordered](x RSet[R, P]) (rels []R, sigma []P) {
	return x.Rels, x.Sigma
}

// EncodeTDResult appends the canonical encoding of the top-down tables to
// w: path edges, procedure summaries, incoming-state multisets and the
// work counters. The unexported snapshot caches are derived state and are
// not part of the encoding.
func EncodeTDResult[S cmp.Ordered](w *wire.Writer, r *TDResult[S], enc func(S) int64) {
	w.Raw([]byte(tdMagic))
	w.Uint(uint64(len(r.rows)))
	// byState[p] lists procedure p's context indices in state order, so
	// each node writes its contexts sorted without a per-node sort.
	byState := make([][]int32, len(r.ctxs))
	for p, pc := range r.ctxs {
		order := make([]int32, len(pc.list))
		for c := range order {
			order[c] = int32(c)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(pc.list[a], pc.list[b]) })
		byState[p] = order
	}
	var buf []S
	for node, row := range r.rows {
		n := 0
		for _, cell := range row {
			if cell.many != 0 {
				n++
			}
		}
		w.Uint(uint64(n))
		if n == 0 {
			continue
		}
		proc := r.procOf[node]
		for _, c := range byState[proc] {
			if int(c) >= len(row) || row[c].many == 0 {
				continue
			}
			buf = r.appendCell(buf[:0], row[c])
			w.Int(enc(r.ctxs[proc].list[c]))
			w.Uint(uint64(len(buf)))
			for _, s := range buf {
				w.Int(enc(s))
			}
		}
	}
	procs := sortedKeys(r.Summaries)
	w.Uint(uint64(len(procs)))
	for _, name := range procs {
		w.String(name)
		writeStateMap(w, r.Summaries[name], enc)
	}
	procs = sortedKeys(r.EntrySeen)
	w.Uint(uint64(len(procs)))
	for _, name := range procs {
		w.String(name)
		m := r.EntrySeen[name]
		states := make([]S, 0, len(m))
		for s := range m {
			states = append(states, s)
		}
		states = newSortedSet(states)
		w.Uint(uint64(len(states)))
		for _, s := range states {
			w.Int(enc(s))
			w.Int(int64(m[s]))
		}
	}
	w.Int(int64(r.NumPathEdges))
	w.Int(int64(r.NumSummaries))
	w.Int(int64(r.Steps))
}

// writeStateMap encodes a state → state-set map in sorted key order.
func writeStateMap[S cmp.Ordered](w *wire.Writer, m map[S]sortedSet[S], enc func(S) int64) {
	ins := make([]S, 0, len(m))
	for in := range m {
		ins = append(ins, in)
	}
	ins = newSortedSet(ins)
	w.Uint(uint64(len(ins)))
	for _, in := range ins {
		w.Int(enc(in))
		outs := m[in]
		w.Uint(uint64(len(outs)))
		for _, s := range outs {
			w.Int(enc(s))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
