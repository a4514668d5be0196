package core

import (
	"cmp"
	"errors"
	"fmt"
)

// This file defines the warm-start seam between the engines and a
// persistent summary store (internal/store, wired up by internal/driver):
// every place the hybrid engines would invoke run_bu first consults an
// optional SummarySource, and every deterministic run_bu outcome is
// offered back to it.
//
// What is cached is a whole trigger outcome — the eta map run_bu returned
// for one (trigger, frontier) invocation, or the fact that the invocation
// deterministically exhausted its budget. Reusing a stored outcome is
// sound whenever the bodies of every procedure reachable from the trigger
// are unchanged and the client's frozen construction (property layout,
// may-alias oracle) is identical: a bottom-up summary over-approximates
// its procedure's top-down behaviour as a property of the code alone
// (Theorem 3.1), independent of the run that computed it. The stored
// outcome may still differ from what a cold run at this point would
// compute — pruning ranks against the live incoming-state sample, and
// callee summaries outside the frontier may differ — which changes
// counters and Σ-fallbacks but never final state sets. Byte-identical
// warm runs additionally require restoring the cold run's intern tables;
// the driver's Warm runner handles that and the store key pins the rest.

// TriggerOutcome is one cached run_bu invocation result: the summaries it
// produced, or Failed for a deterministic budget exhaustion (cached so a
// warm run skips recomputing a doomed trigger just to watch it fail
// again).
type TriggerOutcome[R cmp.Ordered, P cmp.Ordered] struct {
	Eta    map[string]RSet[R, P]
	Failed bool
}

// SummarySource serves and accepts trigger outcomes. The engine calls it
// from its own goroutine. Implementations must return freshly allocated
// maps from Lookup — the engines install the eta directly into their results.
// Lookup must only report a hit when the stored outcome was recorded for
// the same trigger with the same frontier under an equivalent
// configuration; how that is keyed is the implementation's business (see
// internal/store and internal/driver).
type SummarySource[R cmp.Ordered, P cmp.Ordered] interface {
	Lookup(trigger string, frontier []string) (TriggerOutcome[R, P], bool)
	Publish(trigger string, frontier []string, out TriggerOutcome[R, P])
}

// publishOutcome offers a finished run_bu invocation to the source, if
// its outcome is deterministic: a success publishes the summaries; a
// budget exhaustion publishes a Failed marker unless a wall-clock
// deadline or a caller cancellation (both nondeterministic by nature) or
// the fault layer was involved. Contained panics are never published —
// they earn retries.
func publishOutcome[R cmp.Ordered, P cmp.Ordered](
	w SummarySource[R, P], trigger string, frontier []string,
	eta map[string]RSet[R, P], err error,
) {
	if w == nil {
		return
	}
	switch {
	case err == nil:
		w.Publish(trigger, frontier, TriggerOutcome[R, P]{Eta: eta})
	case errors.Is(err, ErrBudget) &&
		!errors.Is(err, ErrDeadline) &&
		!errors.Is(err, ErrCanceled) &&
		!errors.Is(err, ErrClientPanic) &&
		!errors.Is(err, ErrClientFault):
		w.Publish(trigger, frontier, TriggerOutcome[R, P]{Failed: true})
	}
}

// errCachedBudget reconstructs the error shape of a budget-failed trigger
// when its cached outcome is replayed without rerunning run_bu.
func errCachedBudget() error {
	return fmt.Errorf("core: cached trigger outcome: %w", ErrBudget)
}
