package driver

// This file gives the incremental re-analysis layer its measuring stick:
// a per-procedure index of the same call-graph-closure digests that key
// the summary store. Diffing the indexes of two program versions yields
// the invalidation frontier — procedures whose stored summaries an
// incremental run cannot reuse — without running any engine. The warm
// path itself needs no index (matching keys hit the store by
// construction); the index exists so edit-stream benchmarks and servers
// can surface how much of the program an edit invalidated.

import "sort"

// DigestIndex maps every procedure of one program version to its
// call-graph-closure digest — the Body component of the "summary" store
// keys its trigger outcomes live under. Procedures with equal digests
// across versions keep their summaries (same closure bytes, same key);
// procedures whose digest changed lost all of them.
type DigestIndex map[string]string

// IndexClosures computes the digest index of the build's lowered
// program. Each procedure's digest equals closureDigest of the same root;
// the body prints are the build's own, so indexing the whole program
// costs one hash per closure.
func IndexClosures(b *Build) DigestIndex {
	prog := b.Lowered.Prog
	idx := make(DigestIndex, len(prog.Procs))
	for _, name := range prog.ProcNames() {
		idx[name] = closureDigest(b, name)
	}
	return idx
}

// Changed returns the sorted names of procedures whose closure digest
// differs between idx and other, including procedures present in only
// one of the two — the invalidation frontier between two program
// versions.
func (idx DigestIndex) Changed(other DigestIndex) []string {
	set := map[string]bool{}
	for name, d := range idx {
		if od, ok := other[name]; !ok || od != d {
			set[name] = true
		}
	}
	for name := range other {
		if _, ok := idx[name]; !ok {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
