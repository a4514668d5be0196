package core

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"swift/internal/ir"
)

// This file implements the parallelization sketched in the paper's
// Section 7: "whenever a bottom-up summary is to be computed, [SWIFT]
// spawns a new thread to do this bottom-up analysis, and itself continues
// the top-down analysis." Use RunSwiftAsync with a Synchronized client.
// Each trigger's bottom-up run gets its own (non-cumulative) relation and
// step budget from the configuration.
//
// Asynchronous summarization preserves correctness — a summary is only
// consulted after it is fully installed, and Theorem 3.1 applies to
// whatever summaries exist at each call event — but a live run is not
// deterministic: how many call events are answered from summaries depends
// on when triggers finish, so counters (and therefore summary counts) vary
// run to run. The final abstract states still coincide with the top-down
// analysis. Config.RecordTrace captures one run's schedule and
// Config.ReplayTrace re-executes it deterministically; see trace.go.
//
// Concurrency structure: workers never touch the engine's scheduling
// state. A worker runs one bottom-up invocation on snapshots taken at
// spawn time and posts an asyncCompletion to a queue; the main goroutine
// drains the queue at the start of each call event (and between drain
// waves), so every install, failure, retry and abort decision is taken on
// the main goroutine — which is exactly what makes the schedule
// recordable as a stream of main-goroutine-relative events.

// ConcurrentClient marks a Client implementation as safe for concurrent
// use by any number of goroutines without external locking — typically
// because its interning tables are internally sharded (internal/typestate)
// or because it keeps no mutable state at all (internal/killgen).
// Synchronized returns marked clients unchanged, so their operations run
// lock-free from the engine's point of view and mutating traffic contends
// only on whatever internal striping the client provides.
type ConcurrentClient interface {
	// ConcurrentClient is a marker; implementations assert thread safety.
	ConcurrentClient()
}

// Synchronized makes a client safe to share between the top-down solver
// (main goroutine) and asynchronous bottom-up runs (worker goroutines).
//
// Clients that declare themselves concurrency-safe via the
// ConcurrentClient marker are returned unchanged: both in-tree clients
// qualify (typestate's interners are sharded with per-stripe locks;
// killgen is stateless after construction), so no engine-level lock is
// taken on any of their operations.
//
// Other clients are wrapped with a read/write-split lock: operations that
// only consult already-interned data — Applies, PreHolds, PreImplies,
// PreOf and Identity — take a read lock and run concurrently across
// workers, while operations that may intern new states, relations or
// formulas — Trans, RTrans, RComp, Apply, WPre and Reduce — take the
// write lock. Applies and the precondition queries dominate the bottom-up
// solver's inner loops (prune ranks every relation against every sampled
// state; clean checks every relation against every Sigma member), so the
// split turns the hottest client traffic into shared-access reads instead
// of serializing everything behind one mutex.
//
// Contract for wrapped clients: Applies, PreHolds, PreImplies, PreOf and
// Identity must not mutate client state. Clients whose read operations
// memoize internally must do their own locking — or do it properly and
// implement ConcurrentClient.
func Synchronized[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](c Client[S, R, P]) Client[S, R, P] {
	if _, ok := any(c).(ConcurrentClient); ok {
		return c
	}
	return &lockedClient[S, R, P]{inner: c}
}

// lockedClient applies the read/write lock split described at Synchronized.
type lockedClient[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	mu    sync.RWMutex
	inner Client[S, R, P]
}

func (l *lockedClient[S, R, P]) Trans(c *ir.Prim, s S) []S {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Trans(c, s)
}

func (l *lockedClient[S, R, P]) Identity() R {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Identity()
}

func (l *lockedClient[S, R, P]) RTrans(c *ir.Prim, r R) []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.RTrans(c, r)
}

func (l *lockedClient[S, R, P]) RComp(r1, r2 R) []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.RComp(r1, r2)
}

func (l *lockedClient[S, R, P]) Applies(r R, s S) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Applies(r, s)
}

func (l *lockedClient[S, R, P]) Apply(r R, s S) []S {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Apply(r, s)
}

func (l *lockedClient[S, R, P]) PreOf(r R) P {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.PreOf(r)
}

func (l *lockedClient[S, R, P]) PreHolds(pre P, s S) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.PreHolds(pre, s)
}

func (l *lockedClient[S, R, P]) PreImplies(p, q P) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.PreImplies(p, q)
}

func (l *lockedClient[S, R, P]) WPre(r R, post P) []P {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.WPre(r, post)
}

// Reduce is grouped with the mutators even though the in-tree clients
// implement it read-only: its contract allows arbitrary subsumption
// reasoning, which a client may well memoize.
func (l *lockedClient[S, R, P]) Reduce(rels []R) []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Reduce(rels)
}

// add accumulates worker-local counters into an aggregate.
func (s *BUStats) add(o BUStats) {
	s.Relations += o.Relations
	s.Steps += o.Steps
	s.Rounds += o.Rounds
}

// snapshotEntrySeen deep-copies the trigger procedure's incoming-state
// multisets so the worker ranks against a stable sample while the top-down
// analysis keeps mutating the live map.
func snapshotEntrySeen[S cmp.Ordered](src map[string]multiset[S]) map[string]multiset[S] {
	out := make(map[string]multiset[S], len(src))
	for proc, m := range src {
		cp := make(multiset[S], len(m))
		for s, n := range m {
			cp[s] = n
		}
		out[proc] = cp
	}
	return out
}

// errWorkerFailed is the internal abort sentinel the interceptor returns
// to stop the tabulation once a worker's fatal error has been drained. The
// entry point strips it and substitutes the deterministically joined
// per-trigger worker errors; it never escapes to callers.
var errWorkerFailed = errors.New("core: async worker failed")

// asyncCompletion is one worker's finished bottom-up invocation, posted to
// the completion queue for the main goroutine to apply.
type asyncCompletion[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	trigger  string
	frontier []string
	eta      map[string]RSet[R, P]
	stats    BUStats
	err      error
}

// asyncState is the only state shared with worker goroutines: the
// completion queue and the WaitGroup that guarantees no worker outlives
// the run. Everything else the engine schedules with is owned by the main
// goroutine.
type asyncState[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	mu   sync.Mutex
	done []asyncCompletion[S, R, P]
	wg   sync.WaitGroup
}

// post enqueues a completion; called from worker goroutines.
func (st *asyncState[S, R, P]) post(c asyncCompletion[S, R, P]) {
	st.mu.Lock()
	st.done = append(st.done, c)
	st.mu.Unlock()
}

// take removes and returns all queued completions, in posting order.
func (st *asyncState[S, R, P]) take() []asyncCompletion[S, R, P] {
	st.mu.Lock()
	out := st.done
	st.done = nil
	st.mu.Unlock()
	return out
}

// asyncHybrid is the interceptor for RunSwiftAsync. All fields below st
// are owned by the main goroutine.
type asyncHybrid[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	a *Analysis[S, R, P]
	// client is the effective client of the run (fault wrapper included).
	client Client[S, R, P]
	config Config
	res    *Result[S, R, P]
	st     *asyncState[S, R, P]
	// busy marks every procedure covered by some in-flight worker's
	// frontier, not just its trigger: two triggers whose frontiers overlap
	// would otherwise summarize the shared procedures twice concurrently,
	// wasting budget and racing on installation order. Non-overlapping
	// triggers proceed concurrently.
	busy map[string]bool
	// pending holds triggers postponed because their frontier overlapped an
	// in-flight worker, contained a procedure with no top-down incoming
	// state to rank by, or panicked and earned a retry; they are retried
	// periodically and drained at the end of the run.
	pending map[string]bool
	// panicked counts contained run_bu panics per trigger, bounding retries
	// at panicRetryLimit before the trigger degrades to BUFailed.
	panicked map[string]int
	// errs collects fatal worker errors by trigger; the entry point joins
	// them in sorted-trigger order, so concurrent failures aggregate
	// deterministically instead of racing for a single error slot.
	errs map[string]error
	// aborted is set when the first fatal worker error is drained; no
	// further triggers spawn and later completions are discarded.
	aborted bool
	// retryTick throttles pending retries.
	retryTick int

	// seq counts call events; it increments at the start of every
	// beforeCall, so trace events recorded while handling one call event
	// all carry that event's ordinal (see trace.go).
	seq int
	// rec is the trace being recorded, nil when not recording.
	rec *Trace
	// replay is the trace being replayed, nil for a live run. cursor is
	// the next event to consume and stash holds the outcome of each
	// synchronously executed spawn until its install/fail event.
	replay *Trace
	cursor int
	stash  map[string]asyncCompletion[S, R, P]
}

// record appends a trace event at the current call-event ordinal when
// recording is armed.
func (h *asyncHybrid[S, R, P]) record(kind TraceEventKind, trigger string, forced bool) {
	if h.rec != nil {
		h.rec.add(h.seq, kind, trigger, forced)
	}
}

func (h *asyncHybrid[S, R, P]) beforeCall(callee string, s S) ([]S, bool, error) {
	h.seq++
	if h.replay != nil {
		if err := h.replayOutcomesAt(); err != nil {
			return nil, false, err
		}
	} else {
		h.drainCompletions()
	}
	if h.aborted {
		return nil, false, errWorkerFailed
	}
	rs, ok := h.res.BU[callee]
	if !ok {
		return nil, false, nil
	}
	if Ignores(h.client, rs, s) {
		h.res.CallsInSigma++
		return nil, false, nil
	}
	results := ApplySummary(h.client, rs, s)
	if len(results) == 0 {
		return nil, false, nil // defensive: see hybrid.beforeCall
	}
	h.res.CallsViaBU++
	return results, true, nil
}

func (h *asyncHybrid[S, R, P]) afterCall(callee string, s S) error {
	h.res.CallsViaTD++
	if h.aborted {
		return errWorkerFailed
	}
	if h.replay != nil {
		// The trace dictates the schedule: consume this call event's
		// recorded spawns instead of evaluating the trigger condition.
		h.replaySpawnsAt()
		return nil
	}
	if h.config.K == Unlimited {
		return nil
	}
	if h.res.TD.EntrySeen[callee].distinct() > h.config.K {
		if _, done := h.res.BU[callee]; !done && !h.res.BUFailed[callee] {
			h.tryTrigger(callee, false)
		}
	}
	// Retry postponed triggers periodically, mirroring the synchronous
	// hybrid driver: a procedure's calls often arrive in a burst before its
	// callees have any incoming states to rank by, or while an overlapping
	// worker is still running.
	h.retryTick++
	if h.retryTick&0x3f == 0 && len(h.pending) > 0 {
		for _, f := range newSortedSet(keysOf(h.pending)) {
			h.tryTrigger(f, false)
		}
	}
	return nil
}

// drainCompletions applies every queued worker completion, in posting
// order. Main goroutine only.
func (h *asyncHybrid[S, R, P]) drainCompletions() {
	for _, c := range h.st.take() {
		h.applyCompletion(c)
	}
}

// applyCompletion is where every worker outcome becomes engine state:
// summaries install, budget exhaustion degrades to a top-down fallback,
// contained panics earn a bounded retry and then degrade too
// (Theorem 3.1 makes both fallbacks safe), and anything else is fatal.
func (h *asyncHybrid[S, R, P]) applyCompletion(c asyncCompletion[S, R, P]) {
	for _, g := range c.frontier {
		delete(h.busy, g)
	}
	h.res.BUStats.add(c.stats)
	if h.aborted {
		// The run is already aborting: discard the outcome — nothing is
		// installed or recorded — but keep fatal errors for the aggregate.
		if c.err != nil && !errors.Is(c.err, ErrBudget) && !errors.Is(c.err, ErrClientPanic) {
			h.errs[c.trigger] = errors.Join(h.errs[c.trigger], c.err)
		}
		return
	}
	switch {
	case c.err == nil:
		for name, rs := range c.eta {
			h.res.BU[name] = rs
		}
		h.res.Triggered = append(h.res.Triggered, c.trigger)
		h.record(TraceInstall, c.trigger, false)
	case errors.Is(c.err, ErrClientPanic):
		h.res.ClientPanics++
		h.panicked[c.trigger]++
		if h.panicked[c.trigger] <= panicRetryLimit {
			// Bounded retry: park the trigger; the periodic retry or the
			// final drain respawns it with a fresh budget.
			h.pending[c.trigger] = true
			return
		}
		h.res.BUFailed[c.trigger] = true
		h.record(TraceFail, c.trigger, false)
	case errors.Is(c.err, ErrBudget):
		h.res.BUFailed[c.trigger] = true
		h.record(TraceFail, c.trigger, false)
	default:
		h.errs[c.trigger] = c.err
		h.aborted = true
		h.record(TraceFail, c.trigger, false)
	}
}

// joinedWorkerErrs joins the fatal worker errors in sorted-trigger order:
// a deterministic aggregate no matter in which order the workers crossed
// the finish line.
func (h *asyncHybrid[S, R, P]) joinedWorkerErrs() error {
	if len(h.errs) == 0 {
		return nil
	}
	names := make([]string, 0, len(h.errs))
	for name := range h.errs {
		names = append(names, name)
	}
	sort.Strings(names)
	joined := make([]error, 0, len(names))
	for _, name := range names {
		joined = append(joined, fmt.Errorf("trigger %s: %w", name, h.errs[name]))
	}
	return errors.Join(joined...)
}

// tryTrigger spawns an asynchronous run_bu for callee if it is ready:
// no summary or failure recorded yet, no in-flight worker covering any
// frontier procedure, and (unless force is set) every frontier procedure
// has at least one top-down incoming state to rank by. Not-ready triggers
// are parked in pending for the periodic retry and the final drain. It
// reports whether a worker was spawned. Main goroutine only.
func (h *asyncHybrid[S, R, P]) tryTrigger(callee string, force bool) bool {
	if h.aborted {
		return false
	}
	if _, done := h.res.BU[callee]; done || h.res.BUFailed[callee] {
		delete(h.pending, callee)
		return false
	}
	frontier := h.frontier(callee)
	for _, g := range frontier {
		if h.busy[g] {
			h.pending[callee] = true
			return false
		}
	}
	if !force {
		for _, g := range frontier {
			if h.res.TD.EntrySeen[g].distinct() == 0 {
				h.pending[callee] = true
				return false
			}
		}
	}
	delete(h.pending, callee)
	for _, g := range frontier {
		h.busy[g] = true
	}
	// Snapshot the worker's inputs: it must not read engine state the main
	// goroutine keeps mutating.
	preEta := make(map[string]RSet[R, P], len(h.res.BU))
	for k, v := range h.res.BU {
		preEta[k] = v
	}
	rank := snapshotEntrySeen(h.res.TD.EntrySeen)
	h.record(TraceSpawn, callee, force)
	h.st.wg.Add(1)
	go func() {
		defer h.st.wg.Done()
		// Warm-start is consulted inside the worker, not at the spawn site:
		// a synchronous install in tryTrigger would record spawn and install
		// at the same call event, violating the replay cursor's invariant
		// that installs become visible at a later event than their spawn.
		// The hit still flows through the completion queue like any other
		// outcome, so recording, retries and abort handling are uniform.
		if warm := h.a.Warm; warm != nil {
			if out, ok := warm.Lookup(callee, frontier); ok {
				c := asyncCompletion[S, R, P]{trigger: callee, frontier: frontier, eta: out.Eta}
				if out.Failed {
					c.eta = nil
					c.err = errCachedBudget()
				}
				h.st.post(c)
				return
			}
		}
		var stats BUStats
		// safeRunBU contains client panics inside the worker; whatever
		// happens, exactly one completion is posted and Done is called, so
		// the drain logic never deadlocks on a crashed worker.
		eta, err := safeRunBU(h.client, h.a.Prog, h.config, h.config.Theta,
			frontier, preEta, rank, &stats)
		publishOutcome(h.a.Warm, callee, frontier, eta, err)
		h.st.post(asyncCompletion[S, R, P]{
			trigger: callee, frontier: frontier, eta: eta, stats: stats, err: err,
		})
	}()
	return true
}

// drainPending flushes triggers still parked after the top-down worklist
// emptied — without it, triggers postponed inside the last retry window
// would be silently dropped and the run would under-summarize. It runs in
// waves: wait for in-flight workers (their completion clears busy overlaps
// and may install summaries that shrink other frontiers), retry everything
// pending, and if nothing could be spawned force the remainder (their
// unranked frontier procedures were never reached top-down; prune falls
// back to canonical order without ranking data).
func (h *asyncHybrid[S, R, P]) drainPending() error {
	// One seq bump for the whole drain phase: its events sort after every
	// call event's, and replay processes them in list order.
	h.seq++
	for {
		h.st.wg.Wait()
		h.drainCompletions()
		if h.aborted {
			return errWorkerFailed
		}
		if len(h.pending) == 0 {
			return nil
		}
		spawned := false
		for _, f := range newSortedSet(keysOf(h.pending)) {
			if h.tryTrigger(f, false) {
				spawned = true
			}
		}
		if !spawned {
			// With no workers in flight, the first forced trigger always
			// spawns, so every wave makes progress and the loop terminates.
			for _, f := range newSortedSet(keysOf(h.pending)) {
				h.tryTrigger(f, true)
			}
		}
	}
}

// frontier is reachableWithoutSummaries against the main-owned store.
func (h *asyncHybrid[S, R, P]) frontier(f string) []string {
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

// replayOutcomesAt consumes this call event's recorded install/fail
// events, publishing the stashed outcome of each synchronously executed
// spawn — the moment the recorded run's top-down analysis first saw it.
func (h *asyncHybrid[S, R, P]) replayOutcomesAt() error {
	for h.cursor < len(h.replay.Events) {
		e := h.replay.Events[h.cursor]
		if e.Seq < h.seq {
			return fmt.Errorf("%w: event %d (%s %s at seq %d) was never consumed",
				ErrTraceMismatch, h.cursor, e.Kind, e.Trigger, e.Seq)
		}
		if e.Seq != h.seq || e.Kind == TraceSpawn {
			return nil
		}
		h.cursor++
		if err := h.applyReplayOutcome(e); err != nil {
			return err
		}
	}
	return nil
}

// replaySpawnsAt consumes this call event's recorded spawns.
func (h *asyncHybrid[S, R, P]) replaySpawnsAt() {
	for h.cursor < len(h.replay.Events) {
		e := h.replay.Events[h.cursor]
		if e.Seq != h.seq || e.Kind != TraceSpawn {
			return
		}
		h.cursor++
		h.replaySpawn(e)
	}
}

// replaySpawn executes a recorded spawn synchronously and stashes its
// outcome until the trace says it became visible. The inputs equal the
// recorded worker's snapshots: the summary store and incoming-state
// multisets exactly as they stood at this point of the recorded run
// (equality holds inductively — every earlier event replayed
// identically).
func (h *asyncHybrid[S, R, P]) replaySpawn(e TraceEvent) {
	frontier := h.frontier(e.Trigger)
	// Same warm-start seam as the live worker: a replayed spawn may be
	// answered from the store, which is how a recorded cold run replays
	// warm with byte-identical tables (the hit returns exactly what the
	// recorded run computed and published).
	if warm := h.a.Warm; warm != nil {
		if out, ok := warm.Lookup(e.Trigger, frontier); ok {
			c := asyncCompletion[S, R, P]{trigger: e.Trigger, frontier: frontier, eta: out.Eta}
			if out.Failed {
				c.eta = nil
				c.err = errCachedBudget()
			}
			h.stash[e.Trigger] = c
			return
		}
	}
	var stats BUStats
	eta, err := safeRunBU(h.client, h.a.Prog, h.config, h.config.Theta,
		frontier, h.res.BU, h.res.TD.EntrySeen, &stats)
	h.res.BUStats.add(stats)
	publishOutcome(h.a.Warm, e.Trigger, frontier, eta, err)
	h.stash[e.Trigger] = asyncCompletion[S, R, P]{
		trigger: e.Trigger, frontier: frontier, eta: eta, err: err,
	}
}

// applyReplayOutcome publishes a stashed spawn outcome at its recorded
// install/fail point, verifying the replayed run_bu agreed with the
// recorded one about succeeding.
func (h *asyncHybrid[S, R, P]) applyReplayOutcome(e TraceEvent) error {
	c, ok := h.stash[e.Trigger]
	if !ok {
		return fmt.Errorf("%w: %s of %s at seq %d without a preceding spawn",
			ErrTraceMismatch, e.Kind, e.Trigger, e.Seq)
	}
	delete(h.stash, e.Trigger)
	switch e.Kind {
	case TraceInstall:
		if c.err != nil {
			return fmt.Errorf("%w: trace installs %s but the replayed run_bu failed: %v",
				ErrTraceMismatch, e.Trigger, c.err)
		}
		for name, rs := range c.eta {
			h.res.BU[name] = rs
		}
		h.res.Triggered = append(h.res.Triggered, e.Trigger)
	case TraceFail:
		switch {
		case c.err == nil:
			return fmt.Errorf("%w: trace fails %s but the replayed run_bu succeeded",
				ErrTraceMismatch, e.Trigger)
		case errors.Is(c.err, ErrClientPanic):
			h.res.ClientPanics++
			h.res.BUFailed[e.Trigger] = true
		case errors.Is(c.err, ErrBudget):
			h.res.BUFailed[e.Trigger] = true
		default:
			h.errs[e.Trigger] = c.err
			h.aborted = true
		}
	default:
		return fmt.Errorf("%w: unexpected %s event at seq %d", ErrTraceMismatch, e.Kind, e.Seq)
	}
	return nil
}

// replayDrain processes the drain-phase tail of the trace in list order.
func (h *asyncHybrid[S, R, P]) replayDrain() error {
	for h.cursor < len(h.replay.Events) {
		e := h.replay.Events[h.cursor]
		h.cursor++
		if e.Kind == TraceSpawn {
			h.replaySpawn(e)
			continue
		}
		if err := h.applyReplayOutcome(e); err != nil {
			return err
		}
		if h.aborted {
			return errWorkerFailed
		}
	}
	if len(h.stash) > 0 {
		names := make([]string, 0, len(h.stash))
		for name := range h.stash {
			names = append(names, name)
		}
		sort.Strings(names)
		return fmt.Errorf("%w: trace ended with unresolved spawns: %v", ErrTraceMismatch, names)
	}
	return nil
}

// RunSwiftAsync runs Algorithm 1 with asynchronous bottom-up triggers: each
// run_bu executes on its own goroutine while the top-down analysis
// continues, per the parallelization sketch of the paper's Section 7.
// Workers whose trigger frontiers do not overlap run concurrently with each
// other as well as with the tabulation. The client must be safe for
// concurrent use — wrap it with Synchronized. Results coincide with
// RunSwift/RunTD states-wise, but summary-usage counters are
// timing-dependent unless the run replays a recorded trace
// (Config.RecordTrace / Config.ReplayTrace; see trace.go).
//
// No goroutine outlives the call: every worker is awaited before the
// result is assembled, whether the run completed, aborted on an error, or
// contained a panic.
func (a *Analysis[S, R, P]) RunSwiftAsync(initial S, config Config) *Result[S, R, P] {
	start := time.Now()
	res := &Result[S, R, P]{
		Engine:   "swift-async",
		BU:       map[string]RSet[R, P]{},
		BUFailed: map[string]bool{},
	}
	client := effectiveClient(a.Client, config)
	h := &asyncHybrid[S, R, P]{
		a: a, client: client, config: config, res: res,
		st:       &asyncState[S, R, P]{},
		busy:     map[string]bool{},
		pending:  map[string]bool{},
		panicked: map[string]int{},
		errs:     map[string]error{},
	}
	switch {
	case config.ReplayTrace != nil:
		h.replay = config.ReplayTrace
		h.stash = map[string]asyncCompletion[S, R, P]{}
		if err := h.replay.validate(a.Prog.Entry, config); err != nil {
			res.Elapsed = time.Since(start)
			res.Err = err
			return res
		}
	case config.RecordTrace != nil:
		h.rec = config.RecordTrace
		h.rec.reset(a.Prog.Entry, config)
	}
	// The same view and scheduler as RunSwift, for the same reasons.
	t := newTDSolver(client, a.cfgView(), config, h, nil)
	res.TD = t.res
	err := func() (err error) {
		defer contain(&err)
		if err := t.seed(initial); err != nil {
			return err
		}
		if err := t.run(); err != nil {
			return err
		}
		if h.replay != nil {
			return h.replayDrain()
		}
		return h.drainPending()
	}()
	// Wait out every worker — no goroutine outlives the run — then absorb
	// whatever completions they posted (post-abort ones are discarded
	// except for their counters and fatal errors).
	h.st.wg.Wait()
	h.drainCompletions()
	res.Triggered = newSortedSet(res.Triggered)
	if errors.Is(err, errWorkerFailed) {
		err = nil // replaced by the joined worker errors below
	}
	if werr := h.joinedWorkerErrs(); werr != nil {
		if err != nil {
			err = errors.Join(err, werr)
		} else {
			err = werr
		}
	}
	res.Elapsed = time.Since(start)
	res.Err = err
	return res
}
