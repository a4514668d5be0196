package killgen

import (
	"reflect"
	"testing"

	"swift/internal/ir"
)

// The solvers in internal/core evaluate the same (primitive, input) pairs
// in different orders and numbers on each CFG view and scheduler, and
// require identical results. That holds only if the transfer functions are
// pure: the result for a given pair must not depend on when the call
// happens, how often, or what other transfers ran in between. The kill/gen
// clients run the generic Trans/RTrans path (the type-state client
// additionally compiles transfers, tested in internal/typestate), so pin
// the property down here.

func TestTaintTransPure(t *testing.T) {
	_, taint, prims := taintFixture()

	// Collect reachable states by closure under Trans.
	seen := map[string]bool{taint.Initial(): true}
	frontier := []string{taint.Initial()}
	for len(frontier) > 0 {
		var next []string
		for _, s := range frontier {
			for _, c := range prims {
				for _, out := range taint.Trans(c, s) {
					if !seen[out] {
						seen[out] = true
						next = append(next, out)
					}
				}
			}
		}
		frontier = next
	}
	if len(seen) < 4 {
		t.Fatalf("fixture too small: only %d reachable states", len(seen))
	}

	// First pass: record Trans on every (prim, state) pair.
	want := map[*ir.Prim]map[string][]string{}
	for _, c := range prims {
		want[c] = map[string][]string{}
		for s := range seen {
			want[c][s] = taint.Trans(c, s)
		}
	}

	// Second pass in a different interleaving — states outer, prims inner,
	// with every other transfer running in between — must reproduce the
	// recorded results exactly.
	for s := range seen {
		for _, c := range prims {
			got := taint.Trans(c, s)
			if !reflect.DeepEqual(got, want[c][s]) {
				t.Fatalf("Trans(%v, %q) changed across calls: %v then %v",
					c, taint.StateString(s), want[c][s], got)
			}
		}
	}

	// Mutating a returned slice must not poison later calls (a caller may
	// keep or reuse the slice it was handed).
	for _, c := range prims {
		for s := range seen {
			out := taint.Trans(c, s)
			if len(out) > 0 {
				out[0] = "CLOBBERED"
			}
			if got := taint.Trans(c, s); !reflect.DeepEqual(got, want[c][s]) {
				t.Fatalf("Trans(%v, %q) shares state with caller-visible slice", c, s)
			}
		}
	}
}

func TestTaintRTransPure(t *testing.T) {
	_, taint, prims := taintFixture()

	// Close the identity relation under RTrans and RComp (bounded: the
	// relation space of the fixture is small).
	seen := map[string]bool{taint.Identity(): true}
	frontier := []string{taint.Identity()}
	for len(frontier) > 0 && len(seen) < 4096 {
		var next []string
		for _, r := range frontier {
			for _, c := range prims {
				for _, out := range taint.RTrans(c, r) {
					if !seen[out] {
						seen[out] = true
						next = append(next, out)
					}
				}
			}
		}
		frontier = next
	}
	if len(seen) < 4 {
		t.Fatalf("fixture too small: only %d reachable relations", len(seen))
	}

	want := map[*ir.Prim]map[string][]string{}
	for _, c := range prims {
		want[c] = map[string][]string{}
		for r := range seen {
			want[c][r] = taint.RTrans(c, r)
		}
	}
	for r := range seen {
		for _, c := range prims {
			if got := taint.RTrans(c, r); !reflect.DeepEqual(got, want[c][r]) {
				t.Fatalf("RTrans(%v, %q) changed across calls: %v then %v", c, r, want[c][r], got)
			}
		}
	}
}
