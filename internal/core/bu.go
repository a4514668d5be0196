package core

import (
	"cmp"
	"fmt"
	"sort"

	"swift/internal/ir"
)

// RSet is an element of the abstract domain Dr of the pruned bottom-up
// analysis (Section 3.4): a set of abstract relations Rels together with the
// set Sigma of ignored incoming abstract states, represented symbolically as
// a union of client preconditions. The invariant ∀r∈Rels: dom(r) ⊄ Sigma is
// maintained by clean (up to the client's PreImplies approximation).
type RSet[R cmp.Ordered, P cmp.Ordered] struct {
	Rels  sortedSet[R]
	Sigma sortedSet[P]
}

// equal reports equality of domain elements.
func (x RSet[R, P]) equal(y RSet[R, P]) bool {
	return x.Rels.equal(y.Rels) && x.Sigma.equal(y.Sigma)
}

// Size returns the number of relational cases, the paper's "bottom-up
// summaries" count for one procedure.
func (x RSet[R, P]) Size() int { return len(x.Rels) }

// Ignores reports whether state s is in the ignored set Sigma.
func Ignores[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](c Client[S, R, P], x RSet[R, P], s S) bool {
	for _, q := range x.Sigma {
		if c.PreHolds(q, s) {
			return true
		}
	}
	return false
}

// ApplySummary instantiates a bottom-up summary on an incoming state: it
// returns γ†(Rels) applied to s. Callers must first check !Ignores(c, x, s);
// Theorem 3.1 then guarantees the result coincides with the top-down
// analysis of the procedure body.
func ApplySummary[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](c Client[S, R, P], x RSet[R, P], s S) []S {
	var out []S
	for _, r := range x.Rels {
		if c.Applies(r, s) {
			out = append(out, c.Apply(r, s)...)
		}
	}
	return newSortedSet(out)
}

// BUStats aggregates work counters of the bottom-up solver.
type BUStats struct {
	// Relations counts every abstract relation materialized by rtrans and
	// rcomp calls (the dominant cost of the bottom-up approach).
	Relations int
	// Steps counts command evaluations including fixpoint re-iterations.
	Steps int
	// Rounds counts outer fixpoint rounds over the procedure set.
	Rounds int
}

// buSolver evaluates the bottom-up abstract semantics with pruning
// (Sections 3.4–3.5) over procedure bodies.
type buSolver[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	client Client[S, R, P]
	prog   *ir.Program
	theta  int
	// rank maps procedure → multiset M of incoming states observed by the
	// top-down analysis; nil (or missing entries) means no ranking data, in
	// which case pruning keeps the θ first relations in canonical order.
	rank   map[string]multiset[S]
	eta    map[string]RSet[R, P]
	stats  *BUStats
	budget Config
	dl     deadline
}

// runBU computes bottom-up summaries for the procedures in F (sorted), using
// preEta for procedures outside F that already have summaries. theta is the
// pruning width (Unlimited disables pruning). The returned map contains
// summaries for exactly the procedures in F.
func runBU[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	client Client[S, R, P],
	prog *ir.Program,
	config Config,
	theta int,
	f []string,
	preEta map[string]RSet[R, P],
	rank map[string]multiset[S],
	stats *BUStats,
) (map[string]RSet[R, P], error) {
	if name, ok := config.Fault.triggerBudgetFault(f); ok {
		// Injected per-trigger budget exhaustion: the hybrid drivers see
		// the same ErrBudget a genuinely blown budget produces and fall
		// back to top-down analysis for this trigger.
		return nil, fmt.Errorf("core: run_bu(%s): injected trigger budget fault: %w", name, ErrBudget)
	}
	b := &buSolver[S, R, P]{
		client: client,
		prog:   prog,
		theta:  theta,
		rank:   rank,
		eta:    map[string]RSet[R, P]{},
		stats:  stats,
		budget: config,
		dl:     newDeadline(config),
	}
	for name, rs := range preEta {
		b.eta[name] = rs
	}
	inF := map[string]bool{}
	for _, name := range f {
		inF[name] = true
		if _, ok := b.eta[name]; !ok {
			b.eta[name] = RSet[R, P]{}
		}
	}
	// Outer fixpoint: iterate the procedure-summary map until stable
	// (the fix_η0 computation of Section 3.5).
	for {
		b.stats.Rounds++
		changed := false
		for _, name := range f {
			init := RSet[R, P]{Rels: sortedSet[R]{client.Identity()}}
			out, err := b.eval(name, b.prog.Procs[name].Body, init)
			if err != nil {
				// Wrap with the procedure being evaluated; callers match the
				// budget sentinels with errors.Is.
				return nil, fmt.Errorf("core: run_bu(%s): %w", name, err)
			}
			merged := b.prune(name, b.join(out, b.eta[name]))
			if !merged.equal(b.eta[name]) {
				b.eta[name] = merged
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	res := map[string]RSet[R, P]{}
	for _, name := range f {
		res[name] = b.eta[name]
	}
	return res, nil
}

// bump charges budget for one evaluation step.
func (b *buSolver[S, R, P]) bump() error {
	b.stats.Steps++
	if b.stats.Steps > b.budget.MaxBUSteps {
		return ErrBudget
	}
	return b.dl.check()
}

// charge accounts newly materialized relations against the budget.
func (b *buSolver[S, R, P]) charge(n int) error {
	b.stats.Relations += n
	if b.stats.Relations > b.budget.MaxRelations {
		return ErrBudget
	}
	return nil
}

// eval computes JCK^r_{f,η}(x), the pruned relational semantics of a command
// within procedure f.
func (b *buSolver[S, R, P]) eval(f string, c ir.Cmd, x RSet[R, P]) (RSet[R, P], error) {
	if err := b.bump(); err != nil {
		return x, err
	}
	switch c := c.(type) {
	case *ir.Prim:
		var rels []R
		for _, r := range x.Rels {
			out := b.client.RTrans(c, r)
			if err := b.charge(len(out)); err != nil {
				return x, err
			}
			rels = append(rels, out...)
		}
		return b.prune(f, b.clean(RSet[R, P]{Rels: newSortedSet(rels), Sigma: x.Sigma})), nil

	case *ir.Seq:
		cur := x
		for _, s := range c.Cmds {
			var err error
			cur, err = b.eval(f, s, cur)
			if err != nil {
				return cur, err
			}
		}
		return cur, nil

	case *ir.Choice:
		acc := RSet[R, P]{}
		for _, a := range c.Alts {
			out, err := b.eval(f, a, x)
			if err != nil {
				return x, err
			}
			acc = b.join(acc, out)
		}
		return b.prune(f, acc), nil

	case *ir.Loop:
		cur := x
		for {
			body, err := b.eval(f, c.Body, cur)
			if err != nil {
				return cur, err
			}
			next := b.prune(f, b.join(cur, body))
			if next.equal(cur) {
				return cur, nil
			}
			cur = next
			if err := b.bump(); err != nil {
				return cur, err
			}
		}

	case *ir.Call:
		callee := b.eta[c.Callee]
		var rels []R
		for _, r := range x.Rels {
			for _, rc := range callee.Rels {
				out := b.client.RComp(r, rc)
				if err := b.charge(len(out)); err != nil {
					return x, err
				}
				rels = append(rels, out...)
			}
		}
		// Pull the callee's ignored set back to the entry of f: a state σ
		// must be ignored here if some relation maps it into the callee's
		// Sigma (the paper's Σ″ = S \ ∩{wp(r, S\Σ′) | r ∈ R}).
		sigma := x.Sigma
		for _, r := range x.Rels {
			for _, q := range callee.Sigma {
				sigma = sigma.union(newSortedSet(b.client.WPre(r, q)))
			}
		}
		return b.prune(f, b.clean(RSet[R, P]{Rels: newSortedSet(rels), Sigma: sigma})), nil
	}
	panic("core: eval on invalid command")
}

// join is the domain join ⊔: union both components, then clean.
func (b *buSolver[S, R, P]) join(x, y RSet[R, P]) RSet[R, P] {
	return b.clean(RSet[R, P]{Rels: x.Rels.union(y.Rels), Sigma: x.Sigma.union(y.Sigma)})
}

// clean removes relations whose domain is contained in Sigma (the paper's
// excl operator), using the client's PreImplies entailment check, and then
// drops relations subsumed by others via the client's Reduce.
func (b *buSolver[S, R, P]) clean(x RSet[R, P]) RSet[R, P] {
	if len(x.Rels) == 0 {
		return x
	}
	kept := x.Rels
	if len(x.Sigma) > 0 {
		kept = make(sortedSet[R], 0, len(x.Rels))
		for _, r := range x.Rels {
			pre := b.client.PreOf(r)
			subsumed := false
			for _, q := range x.Sigma {
				if b.client.PreImplies(pre, q) {
					subsumed = true
					break
				}
			}
			if !subsumed {
				kept = append(kept, r)
			}
		}
	}
	kept = newSortedSet(b.client.Reduce(kept))
	return RSet[R, P]{Rels: kept, Sigma: x.Sigma}
}

// prune implements the paper's prune operator for procedure f: rank the
// relations by how many top-down-observed incoming states of f fall in their
// domains, keep the best θ, move the domains of the rest into Sigma, and
// re-clean.
func (b *buSolver[S, R, P]) prune(f string, x RSet[R, P]) RSet[R, P] {
	if b.theta >= len(x.Rels) || b.theta == Unlimited {
		return x
	}
	m := b.rank[f]
	type ranked struct {
		r    R
		rank int
	}
	rs := make([]ranked, len(x.Rels))
	for i, r := range x.Rels {
		score := 0
		for s, count := range m {
			if b.client.Applies(r, s) {
				score += count
			}
		}
		rs[i] = ranked{r: r, rank: score}
	}
	// Sort by descending rank; x.Rels is sorted, so SliceStable makes ties
	// deterministic in the relations' canonical order.
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].rank > rs[j].rank })
	kept := make([]R, 0, b.theta)
	sigma := x.Sigma
	for i, rr := range rs {
		if i < b.theta {
			kept = append(kept, rr.r)
			continue
		}
		var added bool
		sigma, added = sigma.insert(b.client.PreOf(rr.r))
		_ = added
	}
	return b.clean(RSet[R, P]{Rels: newSortedSet(kept), Sigma: sigma})
}
