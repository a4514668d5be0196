// Package core implements the SWIFT framework of Zhang, Mangal, Naik and
// Yang (PLDI 2014): a generic hybrid interprocedural analysis that combines
// a top-down (tabulating) analysis with a bottom-up (relational) analysis
// whose case splitting is limited by a pruning operator guided by the
// top-down analysis.
//
// The framework is parametrized by a Client, which supplies both analyses:
//
//   - the top-down analysis A = (S, trans) of Section 3.1 via Trans;
//   - the bottom-up analysis B = (R, id#, γ, rtrans, rcomp) of Section 3.2
//     via Identity, RTrans, RComp, Applies and Apply;
//   - the weakest-precondition machinery of Section 3.3 (condition C3) via
//     the symbolic precondition type P and PreOf, PreHolds, PreImplies and
//     WPre.
//
// Three solvers are provided:
//
//   - RunTD: the conventional top-down tabulation baseline;
//   - RunBU: the conventional bottom-up baseline (relational solver without
//     pruning, followed by a top-down instantiation pass);
//   - RunSwift: Algorithm 1 of the paper, the hybrid analysis with
//     thresholds k and θ.
//
// All solvers are deterministic: worklists are FIFO (or, for the sparse
// scheduler, a priority order fixed by the program's structure) and every
// set iteration is over sorted keys, so repeated runs on the same program
// produce identical results and identical counters.
package core

import (
	"cmp"
	"errors"
	"math"
	"time"

	"swift/internal/ir"
)

// Client couples a top-down analysis with a bottom-up analysis over the same
// abstract state space, as required by the SWIFT framework. The type
// parameters are:
//
//   - S: abstract states (Section 3.1). Must be ordered so state sets can be
//     kept canonical; implementations typically intern states to integers.
//   - R: abstract relations (Section 3.2), similarly ordered/interned.
//   - P: symbolic preconditions describing sets of abstract states. The
//     framework represents the ignored set Σ of the pruned bottom-up
//     analysis as a finite union of P values (exactly like the paper's
//     example Σ' = {(h,t,a) | f ∉ a}).
//
// Implementations must satisfy conditions C1–C3 of the paper (Figure 4);
// package core provides CheckC1 and friends to property-test them.
type Client[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] interface {
	// Trans is the top-down transfer function trans(c): S → 2^S of a
	// primitive command. It must handle every ir.PrimKind including Nop
	// (identity).
	Trans(c *ir.Prim, s S) []S

	// Identity returns id#, the abstract relation denoting the identity
	// relation on abstract states.
	Identity() R

	// RTrans is the bottom-up transfer function rtrans(c): R → 2^R. The
	// result set covers exactly the state pairs required by condition C1;
	// infeasible case splits (false preconditions) must be omitted.
	RTrans(c *ir.Prim, r R) []R

	// RComp composes two abstract relations per condition C2: the returned
	// set means {(σ,σ″) | ∃σ′: (σ,σ′)∈γ(r1) ∧ (σ′,σ″)∈γ(r2)}. An empty
	// result means the composition is void.
	RComp(r1, r2 R) []R

	// Applies reports whether s ∈ dom(r).
	Applies(r R, s S) bool

	// Apply returns {σ′ | (s,σ′) ∈ γ(r)}. It is only called when
	// Applies(r, s) is true.
	Apply(r R, s S) []S

	// PreOf returns a symbolic precondition denoting exactly dom(r).
	PreOf(r R) P

	// PreHolds reports whether s satisfies the precondition.
	PreHolds(pre P, s S) bool

	// PreImplies reports whether pre p entails pre q (p ⊆ q as state sets).
	// A sound under-approximation (answering false when unsure) is
	// acceptable: it only causes void relations to be retained, which never
	// affects results on non-ignored states.
	PreImplies(p, q P) bool

	// WPre returns preconditions whose union denotes
	// {σ | σ ∈ dom(r) ∧ ∀σ′:(σ,σ′)∈γ(r) ⇒ σ′ ⊨ post}, i.e. the paper's
	// dom(r) ∧ wp(r, post). It is used to propagate a callee's ignored set
	// backward through the relations at a call site (Section 3.5).
	WPre(r R, post P) []P

	// Reduce removes relations that are subsumed by others in the set
	// (γ(r) ⊆ γ(r′) for some kept r′), preserving γ† of the set exactly.
	// Joins of control-flow branches routinely produce the same transformer
	// under both a weaker and a stronger precondition; dropping the
	// stronger one costs nothing — in particular it needs no addition to
	// the ignored set Σ — and is what lets a single relational case cover a
	// procedure's dominant behaviour. Returning the input unchanged is
	// always correct, just less effective.
	Reduce(rels []R) []R
}

// TransCompiler is an optional capability of Client. CompileTrans returns
// a specialized, append-style form of Trans(c, ·) with the
// state-independent work of the primitive — name resolution, method-table
// lookups, fixed operand sets — hoisted out of the per-state path, and
// with whatever per-primitive memoization the client can key on its
// interned representations. The returned function must append exactly what
// Trans(c, s) returns (same states, same order) to dst and return the
// extended slice.
//
// The tabulation solver probes for this interface in every engine and on
// either view and composes superblock chains out of compiled transfers;
// clients that do not implement it are served by plain Trans.
type TransCompiler[S cmp.Ordered] interface {
	CompileTrans(c *ir.Prim) func(s S, dst []S) []S
}

// Budget errors returned by the solvers when a resource limit is hit. The
// baselines are expected to hit these on the larger benchmarks, mirroring
// the paper's timeouts and out-of-memory failures.
var (
	// ErrBudget indicates a work or memory budget was exhausted.
	ErrBudget = errors.New("core: analysis budget exhausted")
	// ErrDeadline indicates the wall-clock deadline passed.
	ErrDeadline = errors.New("core: analysis deadline exceeded")
	// ErrCanceled indicates the caller canceled the run via Config.Cancel.
	// Like ErrDeadline it is nondeterministic — a rerun of the same inputs
	// would not abort — so canceled outcomes are never published to a
	// summary source, never snapshotted as tables, and never memoized as
	// slice results (see publishOutcome and the driver's warm/demand
	// paths).
	ErrCanceled = errors.New("core: analysis canceled")
)

// Unlimited disables a numeric budget field.
const Unlimited = math.MaxInt

// Config controls a solver run. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// K is the SWIFT trigger threshold: the bottom-up analysis is triggered
	// on a procedure once the top-down analysis has seen more than K
	// distinct incoming abstract states for it. Unlimited disables
	// triggering (pure top-down behaviour).
	K int

	// Theta is the pruning width θ: the maximum number of relational cases
	// kept by the pruning operator at each step. Unlimited disables pruning
	// (the conventional bottom-up analysis).
	Theta int

	// MaxPathEdges bounds the number of top-down path edges (pairs (σ,σ′)
	// recorded at program points). Models the paper's memory exhaustion.
	MaxPathEdges int

	// MaxTDSummaries bounds the total number of top-down summaries (pairs
	// of input-output states per procedure).
	MaxTDSummaries int

	// MaxRelations bounds the number of distinct abstract relations
	// materialized by one bottom-up invocation. Models the exponential
	// case explosion of the conventional bottom-up analysis. The budget is
	// per trigger in RunSwift — every run_bu starts from a fresh counter,
	// and Result.BUStats aggregates the per-trigger counters afterwards.
	// For RunBU the entire analysis is one invocation, so the bound is
	// effectively global there.
	MaxRelations int

	// MaxBUSteps bounds the number of evaluation steps taken by one
	// bottom-up invocation (fixpoint iterations included). Per trigger,
	// like MaxRelations.
	MaxBUSteps int

	// Timeout bounds wall-clock time for the whole run; zero means none.
	Timeout time.Duration

	// Cancel, when non-nil, lets the caller abort the run cooperatively:
	// once the channel is closed, every solver returns ErrCanceled from
	// its next periodic check — the same low-cost points that poll the
	// wall-clock deadline (the TD worklist, each BU evaluation step, the
	// hybrid trigger loop), plus a pre-dispatch
	// check in RunSliceSet's slice workers. Closing the channel is the
	// only supported signal; sending on it does nothing.
	Cancel <-chan struct{}

	// Fault, when non-nil, arms the deterministic fault-injection layer:
	// every engine entry point wraps the client so the plan's scheduled
	// faults (errors, panics, stalls, forced budget exhaustion) fire at
	// their operation indices, and run_bu honours the plan's per-trigger
	// budget faults. Results with an empty plan are byte-identical to an
	// unarmed run (the wrapper only counts). See fault.go.
	Fault *FaultPlan

	// SliceWorkers bounds how many slices RunSliced analyzes concurrently;
	// zero or negative means GOMAXPROCS. Merged sliced results are
	// independent of this setting — every slice runs on its own client
	// instance and slices are aggregated in sorted slice order — so it is
	// purely a wall-clock knob, like bench.Suite.Parallel.
	SliceWorkers int

	// ProfileLabel, when non-empty, is added as the "suite" pprof label to
	// every slice run of RunSliced (alongside "engine" and "slice"), so
	// CPU profiles attribute per-slice samples back to the caller's run
	// name. It has no effect on analysis results.
	ProfileLabel string

	// schedule picks the order-insensitive solvers' worklist (RunTD, and
	// RunBU's instantiation pass). The zero value is the production
	// schedule: the sparse scheduler with loop-depth priority (sparse.go).
	// The other schedules produce identical result tables and counters;
	// only tests select them, as equivalence oracles (export_test.go).
	schedule schedule
}

// schedule names a worklist schedule for td and bu. The hybrid ignores
// it and always runs the dense FIFO (see RunSwift).
type schedule uint8

const (
	scheduleSparse   schedule = iota // sparse, loop-depth priority
	scheduleDense                    // dense FIFO fact worklist
	schedulePlainRPO                 // sparse, plain reverse postorder
)

// DefaultConfig returns the configuration used throughout the evaluation
// section: the paper's overall-optimal thresholds k=5, θ=1 and generous
// budgets.
func DefaultConfig() Config {
	return Config{
		K:              5,
		Theta:          1,
		MaxPathEdges:   Unlimited,
		MaxTDSummaries: Unlimited,
		MaxRelations:   Unlimited,
		MaxBUSteps:     Unlimited,
	}
}

// TDConfig returns the pure top-down baseline configuration.
func TDConfig() Config {
	c := DefaultConfig()
	c.K = Unlimited
	return c
}

// BUConfig returns the pure bottom-up baseline configuration (no pruning).
func BUConfig() Config {
	c := DefaultConfig()
	c.Theta = Unlimited
	return c
}

// deadline tracks the run's abort conditions cheaply: an optional
// wall-clock limit and an optional cancellation channel, both polled by
// the solvers every few hundred steps via check. One check interval
// (256 calls) bounds how stale either signal can get.
type deadline struct {
	at     time.Time
	armed  bool
	cancel <-chan struct{}
	count  int
}

func newDeadline(config Config) deadline {
	d := deadline{cancel: config.Cancel}
	if config.Timeout > 0 {
		d.at = time.Now().Add(config.Timeout)
		d.armed = true
	}
	return d
}

func (d *deadline) check() error {
	if !d.armed && d.cancel == nil {
		return nil
	}
	d.count++
	if d.count&0xff != 0 {
		return nil
	}
	select {
	case <-d.cancel:
		// Cancellation wins over the deadline: a canceled run must never
		// be mistaken for a deadline abort, whose Failed markers other
		// layers treat differently.
		return ErrCanceled
	default:
	}
	if d.armed && time.Now().After(d.at) {
		return ErrDeadline
	}
	return nil
}
