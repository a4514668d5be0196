package core

// This file is the site-sliced parallel execution layer. A sliceable
// client decomposes its abstract domain into independent slices — the
// type-state client uses one slice per tracked allocation site — and
// RunSliced analyzes each slice with its own client instance on a bounded
// worker pool, under any of the three engines.
//
// Slices are independent by construction: each slice's client spawns
// tracked tuples only at its own site, and the shared (sliceless) part of
// the domain evolves identically in every slice. Determinism across worker
// counts follows from instance isolation: a slice's client interns into
// tables only that slice's run touches, so its ID assignment — and with it
// worklist order, pruning tie-breaks and trigger sampling — is exactly
// that of a fresh monolithic run of the restricted client, regardless of
// what other slices do concurrently. Aggregation walks slices in sorted
// SliceID order, so merged reports, counters and tables are byte-identical
// at any SliceWorkers setting.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SliceID names one slice of a sliceable client's abstract domain. For the
// type-state client it is a tracked allocation-site label.
type SliceID string

// SliceableClient is an optional capability of Client: a client that can
// decompose its analysis into independent slices. Implementations must
// guarantee that the union of the slices' results over error-observable
// states equals the monolithic result (the type-state argument is spelled
// out in DESIGN.md), and that SliceClient returns a client whose behaviour
// depends only on the slice — never on other concurrently running slices.
type SliceableClient[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] interface {
	Client[S, R, P]

	// Slices enumerates the client's slices. The order is not significant:
	// RunSliced sorts the IDs before dispatching and aggregating.
	Slices() []SliceID

	// SliceClient returns an independent client restricted to the slice,
	// together with the slice's initial abstract state in that client's
	// own representation. Each call must return a fresh instance that can
	// run concurrently with every other slice's instance.
	SliceClient(id SliceID) (Client[S, R, P], S, error)
}

// SliceRun is one slice's outcome inside a sliced run. Result's abstract
// state and relation IDs are in the slice Client's own ID space, so
// interpreting them (e.g. rendering error sites) must go through Client,
// not through the monolithic client the slices were derived from.
type SliceRun[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	ID     SliceID
	Client Client[S, R, P]
	Result *Result[S, R, P]
}

// SlicedResult aggregates one engine's per-slice outcomes. Slices is in
// sorted SliceID order; every accessor folds over it in that order, so
// merged values are independent of how the slices were scheduled.
type SlicedResult[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	Engine string
	Slices []SliceRun[S, R, P]
	// Elapsed is the wall-clock duration of the whole sliced run (the
	// parallel makespan, not the per-slice sum).
	Elapsed time.Duration
}

// Completed reports whether every slice finished within its budgets.
func (r *SlicedResult[S, R, P]) Completed() bool {
	for i := range r.Slices {
		if !r.Slices[i].Result.Completed() {
			return false
		}
	}
	return true
}

// Err joins the per-slice run errors, each annotated with its slice ID, in
// sorted slice order; nil when every slice completed.
func (r *SlicedResult[S, R, P]) Err() error {
	var errs []error
	for i := range r.Slices {
		if err := r.Slices[i].Result.Err; err != nil {
			errs = append(errs, fmt.Errorf("slice %s: %w", r.Slices[i].ID, err))
		}
	}
	return errors.Join(errs...)
}

// WorkUnits sums the slices' deterministic work counters. Comparing it
// against the monolithic run's WorkUnits measures the state-space effect
// of slicing independently of parallelism: smaller per-slice state spaces
// shrink the superlinear path-edge blowup even at one worker.
func (r *SlicedResult[S, R, P]) WorkUnits() int {
	n := 0
	for i := range r.Slices {
		n += r.Slices[i].Result.WorkUnits()
	}
	return n
}

// MaxSliceWork returns the largest single slice's work — the critical path
// of the sliced run, i.e. the deterministic cost lower bound at unlimited
// workers.
func (r *SlicedResult[S, R, P]) MaxSliceWork() int {
	n := 0
	for i := range r.Slices {
		if w := r.Slices[i].Result.WorkUnits(); w > n {
			n = w
		}
	}
	return n
}

// BUStatsTotal sums the slices' bottom-up work counters in slice order.
func (r *SlicedResult[S, R, P]) BUStatsTotal() BUStats {
	var total BUStats
	for i := range r.Slices {
		total.add(r.Slices[i].Result.BUStats)
	}
	return total
}

// TDSummaryTotal sums the slices' top-down summary counts.
func (r *SlicedResult[S, R, P]) TDSummaryTotal() int {
	n := 0
	for i := range r.Slices {
		n += r.Slices[i].Result.TDSummaryTotal()
	}
	return n
}

// BUSummaryTotal sums the slices' bottom-up summary counts.
func (r *SlicedResult[S, R, P]) BUSummaryTotal() int {
	n := 0
	for i := range r.Slices {
		n += r.Slices[i].Result.BUSummaryTotal()
	}
	return n
}

// Triggered concatenates the slices' sorted trigger lists in slice order,
// each entry prefixed with its slice ID so repeated triggers across slices
// stay distinguishable.
func (r *SlicedResult[S, R, P]) Triggered() []string {
	var out []string
	for i := range r.Slices {
		for _, f := range r.Slices[i].Result.Triggered {
			out = append(out, string(r.Slices[i].ID)+"/"+f)
		}
	}
	return out
}

// RunEngine dispatches an engine by name, applying the baseline threshold
// conventions (td disables triggering, bu disables pruning). It is the
// single dispatch point shared by the driver's monolithic path and
// RunSliced's per-slice workers.
func (a *Analysis[S, R, P]) RunEngine(engine string, initial S, config Config) (*Result[S, R, P], error) {
	switch engine {
	case "td":
		config.K = Unlimited
		return a.RunTD(initial, config), nil
	case "bu":
		config.Theta = Unlimited
		return a.RunBU(initial, config), nil
	case "swift":
		return a.RunSwift(initial, config), nil
	}
	return nil, fmt.Errorf("core: unknown engine %q (want td, bu or swift)", engine)
}

// withClient returns an Analysis over the same program and traversal view
// but a different client. The view must already be built (see RunSliced):
// the lazy builders are unlocked, so a derived Analysis handed to another
// goroutine must never be the first to build one.
func (a *Analysis[S, R, P]) withClient(client Client[S, R, P]) *Analysis[S, R, P] {
	return &Analysis[S, R, P]{
		Client: client, Prog: a.Prog, CFG: a.CFG,
		view: a.view, structIdx: a.structIdx,
	}
}

// RunSliced runs one independent analysis per slice of the client on a
// bounded worker pool (Config.SliceWorkers; GOMAXPROCS when unset) and
// returns the per-slice results in sorted SliceID order. Every engine is
// supported. A slice whose engine run merely exhausts a budget is a normal
// outcome (its Result.Err is reported through SlicedResult.Err); RunSliced
// itself fails only on dispatch-level errors — a non-sliceable client, an
// unknown engine, or a SliceClient failure — joined in sorted slice order.
func (a *Analysis[S, R, P]) RunSliced(engine string, config Config) (*SlicedResult[S, R, P], error) {
	sc, ok := any(a.Client).(SliceableClient[S, R, P])
	if !ok {
		return nil, fmt.Errorf("core: client %T does not support slicing", a.Client)
	}
	return a.RunSliceSet(engine, config, sc.Slices())
}

// RunSliceSet is RunSliced restricted to a subset of the client's slices:
// the demand-driven hook behind point queries, which name one slice (or a
// few) instead of wanting the whole decomposition. The ids are sorted and
// deduplicated before dispatch, so the result order — and, per slice,
// every byte of the outcome (fresh per-slice interners; see the file
// comment) — is independent of both the caller's order and the worker
// count. Unknown slice IDs surface as SliceClient dispatch errors.
func (a *Analysis[S, R, P]) RunSliceSet(engine string, config Config, subset []SliceID) (*SlicedResult[S, R, P], error) {
	sc, ok := any(a.Client).(SliceableClient[S, R, P])
	if !ok {
		return nil, fmt.Errorf("core: client %T does not support slicing", a.Client)
	}
	// Build the traversal view (and, for the order-insensitive engines,
	// the structure index) the engine will use on this goroutine, before
	// any worker can race to build them lazily. Both are immutable once
	// built, so the slice runs share them freely.
	switch engine {
	case "td", "bu":
		a.cfgView()
		a.sparseIndex(config)
	case "swift":
		a.cfgView()
	default:
		return nil, fmt.Errorf("core: unknown engine %q (want td, bu or swift)", engine)
	}
	ids := append([]SliceID(nil), subset...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ids = slices.Compact(ids)

	start := time.Now()
	out := &SlicedResult[S, R, P]{
		Engine: engine,
		Slices: make([]SliceRun[S, R, P], len(ids)),
	}
	errs := make([]error, len(ids))
	runOne := func(i int) {
		id := ids[i]
		// Pre-dispatch cancellation check: a canceled sliced run should
		// stop launching queued slices promptly instead of letting each
		// one start and abort on its own first periodic check. A slice
		// skipped here is a dispatch-level failure, like an unknown ID —
		// the caller gets no partial SlicedResult to misread as complete.
		if config.Cancel != nil {
			select {
			case <-config.Cancel:
				errs[i] = fmt.Errorf("slice %s: %w", id, ErrCanceled)
				return
			default:
			}
		}
		client, initial, err := sc.SliceClient(id)
		if err != nil {
			errs[i] = fmt.Errorf("slice %s: %w", id, err)
			return
		}
		cfg := config
		// Each slice counts its own operation stream (see FaultPlan.Fork):
		// sharing the counter would make fault indices depend on
		// scheduling.
		cfg.Fault = config.Fault.Fork()
		labels := []string{"engine", engine, "slice", string(id)}
		if config.ProfileLabel != "" {
			labels = append(labels, "suite", config.ProfileLabel)
		}
		var res *Result[S, R, P]
		pprof.Do(context.Background(), pprof.Labels(labels...),
			func(context.Context) {
				res, err = a.withClient(client).RunEngine(engine, initial, cfg)
			})
		if err != nil {
			errs[i] = fmt.Errorf("slice %s: %w", id, err)
			return
		}
		out.Slices[i] = SliceRun[S, R, P]{ID: id, Client: client, Result: res}
	}

	workers := config.SliceWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for i := range ids {
			runOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ids) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	out.Elapsed = time.Since(start)
	var fatal []error
	for _, err := range errs {
		if err != nil {
			fatal = append(fatal, err)
		}
	}
	if len(fatal) > 0 {
		return nil, errors.Join(fatal...)
	}
	return out, nil
}
