package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"swift/internal/ir"
)

// Analysis binds a client to a program, caching the program's control-flow
// graph so the three engines (top-down, bottom-up, hybrid) can be run and
// compared on the same input.
type Analysis[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	Client Client[S, R, P]
	Prog   *ir.Program
	CFG    *ir.CFG

	// view is the solver-facing traversal overlay of CFG, the superblock
	// view (ir.CompressedView), built lazily and shared by every run on
	// this Analysis.
	view *ir.CFGView

	// structIdx is the loop-structure index of view, built lazily for the
	// sparse scheduler. Pure graph structure, so — like the view — one
	// instance is shared by every run, including concurrent sliced runs
	// (RunSliceSet pre-builds it).
	structIdx *ir.StructIndex
}

// NewAnalysis validates the program, builds its CFG and returns an Analysis
// ready to run.
func NewAnalysis[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	client Client[S, R, P], prog *ir.Program,
) (*Analysis[S, R, P], error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Analysis[S, R, P]{Client: client, Prog: prog, CFG: ir.BuildCFG(prog)}, nil
}

// cfgView returns the traversal view, building it on first use. Engine
// entry points run on the caller's goroutine, so no locking is needed.
func (a *Analysis[S, R, P]) cfgView() *ir.CFGView {
	if a.view == nil {
		a.view = ir.CompressedView(a.CFG)
	}
	return a.view
}

// sparseIndex returns the structure index of the traversal view, or nil
// under the dense test schedule. Only td and bu call it; the hybrid always
// passes newTDSolver a nil index (see RunSwift).
func (a *Analysis[S, R, P]) sparseIndex(config Config) *ir.StructIndex {
	if config.schedule == scheduleDense {
		return nil
	}
	if a.structIdx == nil {
		a.structIdx = ir.BuildStructIndex(a.cfgView())
	}
	return a.structIdx
}

// Result is the outcome of one engine run.
type Result[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	// Engine names the solver that produced the result: "td", "bu" or
	// "swift".
	Engine string
	// TD holds the tabulation output (path edges, summaries, incoming-state
	// multisets). For the bottom-up baseline it holds the instantiation
	// pass's output.
	TD *TDResult[S]
	// BU maps procedures to their bottom-up summaries (empty for pure TD).
	BU map[string]RSet[R, P]
	// BUFailed marks procedures whose bottom-up analysis hit its budget in
	// hybrid mode (the driver falls back to top-down for them).
	BUFailed map[string]bool
	// Triggered lists the trigger procedures whose run_bu completed
	// successfully, sorted and deduplicated. Both hybrid engines produce
	// it in this form, so table code can diff the field across engines.
	Triggered []string
	// BUStats aggregates bottom-up work counters.
	BUStats BUStats
	// CallsViaBU and CallsViaTD count call-site events answered by
	// bottom-up summaries versus handled by tabulation. Of the CallsViaTD
	// events in hybrid mode, CallsInSigma were fallbacks forced by the
	// incoming state being in the summary's ignored set Σ (the rest had no
	// summary yet).
	CallsViaBU   int
	CallsViaTD   int
	CallsInSigma int
	// ClientPanics counts client panics contained inside bottom-up
	// triggers (each is retried up to panicRetryLimit times, then the
	// trigger degrades to a BUFailed top-down fallback). Engine-level
	// panics are not counted here; they surface in Err.
	ClientPanics int
	// Elapsed is wall-clock duration of the run.
	Elapsed time.Duration
	// Err is nil if the run completed, or a wrapped
	// ErrBudget/ErrDeadline/ErrClientPanic/ErrClientFault if the engine
	// did not finish (the paper's "timeout" entries, plus the fault
	// model's containment outcomes). Match with errors.Is.
	Err error
}

// Completed reports whether the engine finished within its budgets.
func (r *Result[S, R, P]) Completed() bool { return r.Err == nil }

// WorkUnits returns a machine-independent cost measure for the run: the sum
// of the solvers' step and materialization counters. Every engine is
// deterministic, so it is identical across repeated runs and across hosts,
// which is what lets the benchmark harness render comparable cost columns
// regardless of scheduling; wall-clock stays in Elapsed.
func (r *Result[S, R, P]) WorkUnits() int {
	n := r.BUStats.Steps + r.BUStats.Relations
	if r.TD != nil {
		n += r.TD.Steps + r.TD.NumPathEdges
	}
	return n
}

// add accumulates one trigger's (or one slice's) counters into an
// aggregate.
func (s *BUStats) add(o BUStats) {
	s.Relations += o.Relations
	s.Steps += o.Steps
	s.Rounds += o.Rounds
}

// TDSummaryTotal returns the total number of top-down summaries.
func (r *Result[S, R, P]) TDSummaryTotal() int {
	if r.TD == nil {
		return 0
	}
	return r.TD.NumSummaries
}

// BUSummaryTotal returns the total number of bottom-up summaries (relational
// cases across all procedures).
func (r *Result[S, R, P]) BUSummaryTotal() int {
	n := 0
	for _, rs := range r.BU {
		n += rs.Size()
	}
	return n
}

// ExitStates returns the analysis result at the exit of the entry procedure
// for the given initial state: the abstract states the whole program may end
// in. All three engines agree on this set when they complete (Theorem 3.1).
func (r *Result[S, R, P]) ExitStates(entry string, initial S) []S {
	if r.TD == nil {
		return nil
	}
	return r.TD.Summaries[entry][initial]
}

// RunTD runs the conventional top-down baseline.
func (a *Analysis[S, R, P]) RunTD(initial S, config Config) *Result[S, R, P] {
	start := time.Now()
	client := effectiveClient(a.Client, config)
	t := newTDSolver(client, a.cfgView(), config, nil, a.sparseIndex(config))
	res := &Result[S, R, P]{Engine: "td", TD: t.res}
	err := func() (err error) {
		defer contain(&err)
		if err := t.seed(initial); err != nil {
			return err
		}
		return t.run()
	}()
	res.Elapsed = time.Since(start)
	res.Err = err
	return res
}

// RunBU runs the conventional bottom-up baseline: relational summaries with
// no pruning for every procedure reachable from the entry, followed by a
// top-down instantiation pass that answers every call from those summaries.
func (a *Analysis[S, R, P]) RunBU(initial S, config Config) *Result[S, R, P] {
	start := time.Now()
	res := &Result[S, R, P]{Engine: "bu", BU: map[string]RSet[R, P]{}}
	client := effectiveClient(a.Client, config)
	err := func() (err error) {
		defer contain(&err)
		f := a.Prog.Reachable(a.Prog.Entry)
		eta, err := safeRunBU(client, a.Prog, config, Unlimited, f, nil, nil, &res.BUStats)
		if err != nil {
			return err
		}
		res.BU = eta
		inst := &buInstantiator[S, R, P]{client: client, res: res}
		t := newTDSolver(client, a.cfgView(), config, inst, a.sparseIndex(config))
		inst.eta = make([]*RSet[R, P], len(t.procs))
		for i := range t.procs {
			if rs, ok := eta[t.procs[i].name]; ok {
				inst.eta[i] = &rs
			}
		}
		res.TD = t.res
		if err := t.seed(initial); err != nil {
			return err
		}
		return t.run()
	}()
	res.Elapsed = time.Since(start)
	res.Err = err
	return res
}

// buInstantiator answers every call from precomputed bottom-up summaries.
type buInstantiator[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	client Client[S, R, P]
	// eta holds each procedure's summary by solver procedure index, nil
	// where it has none.
	eta []*RSet[R, P]
	res *Result[S, R, P]
}

func (b *buInstantiator[S, R, P]) beforeCall(callee int32, s S) ([]S, bool, error) {
	rs := b.eta[callee]
	if rs == nil {
		return nil, false, nil
	}
	b.res.CallsViaBU++
	return ApplySummary(b.client, *rs, s), true, nil
}

func (b *buInstantiator[S, R, P]) afterCall(int32, S) error { return nil }

// RunSwift runs Algorithm 1: top-down tabulation with bottom-up
// summarization triggered at threshold k and pruned at width θ.
func (a *Analysis[S, R, P]) RunSwift(initial S, config Config) *Result[S, R, P] {
	start := time.Now()
	res := &Result[S, R, P]{
		Engine:   "swift",
		BU:       map[string]RSet[R, P]{},
		BUFailed: map[string]bool{},
	}
	client := effectiveClient(a.Client, config)
	h := &hybrid[S, R, P]{
		a: a, client: client, config: config, res: res,
		pending:  map[string]bool{},
		panicked: map[string]int{},
	}
	// Always the dense FIFO (nil index), whatever config.schedule says.
	// Pop order decides when triggers fire and which EntrySeen sample they
	// rank by, so this pins one schedule; Theorem 3.1 makes the error
	// report independent of it. The sparse scheduler was
	// measured and rejected here (DESIGN.md §13.4).
	t := newTDSolver(client, a.cfgView(), config, h, nil)
	h.td = t
	h.bu = make([]*RSet[R, P], len(t.procs))
	h.failed = make([]bool, len(t.procs))
	res.TD = t.res
	err := func() (err error) {
		defer contain(&err)
		if err := t.seed(initial); err != nil {
			return err
		}
		if err := t.run(); err != nil {
			return err
		}
		// The worklist is empty; flush triggers still postponed in pending
		// (the periodic retry only fires every 64th call event, so triggers
		// whose last chance fell inside a retry window gap would otherwise
		// be dropped and the run would under-summarize).
		return h.drainPending()
	}()
	res.Triggered = newSortedSet(res.Triggered)
	res.Elapsed = time.Since(start)
	res.Err = err
	return res
}

// hybrid is the call interceptor implementing the SWIFT-specific parts of
// Algorithm 1 (lines 12–19).
type hybrid[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	a *Analysis[S, R, P]
	// client is the effective client of this run (the analysis client, or
	// its fault wrapper when Config.Fault is armed).
	client Client[S, R, P]
	td     *tdSolver[S, R, P]
	config Config
	res    *Result[S, R, P]
	// panicked counts contained run_bu panics per trigger, bounding retries
	// at panicRetryLimit before the trigger degrades to BUFailed.
	panicked map[string]int
	// pending holds procedures whose trigger fired but whose run_bu was
	// postponed because some reachable procedure had no top-down incoming
	// state yet to rank by (Section 4). Postponed means deferred, not
	// dropped: the driver periodically retries them.
	pending map[string]bool
	// retryTick throttles pending retries.
	retryTick int
	// bu and failed mirror res.BU and res.BUFailed by solver procedure
	// index, so the per-call hooks look nothing up by name.
	bu     []*RSet[R, P]
	failed []bool
}

// beforeCall applies a bottom-up summary when one exists and the incoming
// state is not in its ignored set Σ (line 12 of Algorithm 1); Theorem 3.1
// guarantees the result equals re-analyzing the callee top-down.
func (h *hybrid[S, R, P]) beforeCall(callee int32, s S) ([]S, bool, error) {
	rs := h.bu[callee]
	if rs == nil {
		return nil, false, nil
	}
	if Ignores(h.client, *rs, s) {
		h.res.CallsInSigma++
		return nil, false, nil
	}
	results := ApplySummary(h.client, *rs, s)
	if len(results) == 0 {
		// The commands of the language are total, so a correct client's
		// summary relates every non-ignored state to at least one output
		// (Theorem 3.1). Guard against client bugs by re-analyzing
		// top-down instead of silently dropping the state.
		return nil, false, nil
	}
	h.res.CallsViaBU++
	return results, true, nil
}

// afterCall checks the trigger condition (line 17): once the callee has more
// than k distinct incoming states and no bottom-up summary yet, run the
// pruned bottom-up analysis on all procedures reachable from it. Postponed
// triggers are retried periodically: a procedure's calls often arrive in a
// burst before its callees have any incoming states to rank by, and the
// retry fires run_bu once they do.
func (h *hybrid[S, R, P]) afterCall(callee int32, s S) error {
	h.res.CallsViaTD++
	if h.config.K == Unlimited {
		return nil
	}
	if tp := &h.td.procs[callee]; tp.seen.distinct() > h.config.K {
		if h.bu[callee] == nil && !h.failed[callee] {
			if err := h.trigger(tp.name, false); err != nil {
				return err
			}
		}
	}
	h.retryTick++
	if h.retryTick&0x3f == 0 && len(h.pending) > 0 {
		if err := h.retryPending(); err != nil {
			return err
		}
	}
	return nil
}

// retryPending re-attempts every postponed trigger once, in sorted order.
func (h *hybrid[S, R, P]) retryPending() error {
	for _, f := range newSortedSet(keysOf(h.pending)) {
		if _, done := h.res.BU[f]; done || h.res.BUFailed[f] {
			delete(h.pending, f)
			continue
		}
		if err := h.trigger(f, false); err != nil {
			return err
		}
	}
	return nil
}

// drainPending is the final flush of postponed triggers, run after the
// top-down worklist empties. Earlier triggers can install summaries that
// shrink later triggers' frontiers, so it retries in rounds while that
// makes progress; triggers still postponed then are waiting on procedures
// the top-down analysis never reached (dead branches of the frontier) and
// are forced — the pruning operator handles absent ranking data by keeping
// the first θ relations in canonical order.
func (h *hybrid[S, R, P]) drainPending() error {
	for len(h.pending) > 0 {
		before := len(h.pending)
		if err := h.retryPending(); err != nil {
			return err
		}
		if len(h.pending) < before {
			continue
		}
		for _, f := range newSortedSet(keysOf(h.pending)) {
			if err := h.trigger(f, true); err != nil {
				return err
			}
		}
	}
	return nil
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// trigger runs run_bu(Γ, θ, f, bu) with the paper's two implementation
// refinements (Section 4): procedures that already have summaries are reused
// rather than recomputed, and triggering is postponed until every procedure
// to be analyzed has at least one top-down incoming state (otherwise the
// pruning operator has no data to rank by). force skips the postpone check;
// the final drain uses it for frontiers the top-down analysis never
// completes.
func (h *hybrid[S, R, P]) trigger(f string, force bool) error {
	frontier := h.reachableWithoutSummaries(f)
	if !force {
		for _, g := range frontier {
			if h.res.TD.EntrySeen[g].distinct() == 0 {
				h.pending[f] = true // postpone: retried once g has data
				return nil
			}
		}
	}
	delete(h.pending, f)
	for {
		// Each trigger gets the full MaxRelations/MaxBUSteps budget from the
		// config (per-trigger counters, aggregated after).
		var stats BUStats
		eta, err := safeRunBU(
			h.client, h.a.Prog, h.config, h.config.Theta,
			frontier, h.res.BU, h.res.TD.EntrySeen, &stats,
		)
		h.res.BUStats.add(stats)
		if errors.Is(err, ErrClientPanic) {
			// A contained panic inside the trigger: retry a bounded number
			// of times, then degrade to the same top-down fallback a blown
			// budget gets (Theorem 3.1 makes the fallback safe).
			h.res.ClientPanics++
			h.panicked[f]++
			if h.panicked[f] <= panicRetryLimit {
				continue
			}
			h.fail(f)
			return nil
		}
		if errors.Is(err, ErrBudget) {
			// The bottom-up side ran out of budget: fall back to pure
			// top-down for this trigger procedure and carry on.
			h.fail(f)
			return nil
		}
		if err != nil {
			return err
		}
		for name, rs := range eta {
			h.res.BU[name] = rs
			h.bu[h.td.procIdx[name]] = &rs
		}
		h.res.Triggered = append(h.res.Triggered, f)
		return nil
	}
}

// fail marks trigger procedure f BUFailed: its calls fall back to top-down.
func (h *hybrid[S, R, P]) fail(f string) {
	h.res.BUFailed[f] = true
	h.failed[h.td.procIdx[f]] = true
}

// reachableWithoutSummaries returns the procedures reachable from f by call
// chains, not expanding through procedures that already have bottom-up
// summaries (they are reused via η), sorted.
func (h *hybrid[S, R, P]) reachableWithoutSummaries(f string) []string {
	seen := map[string]bool{}
	var out []string
	var visit func(string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if _, done := h.res.BU[name]; done {
			return
		}
		proc, ok := h.a.Prog.Procs[name]
		if !ok {
			return
		}
		out = append(out, name)
		for _, callee := range ir.Callees(proc.Body) {
			visit(callee)
		}
	}
	visit(f)
	return newSortedSet(out)
}
