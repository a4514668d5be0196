// Package driver assembles the full toolchain: mini-Java source (or a
// programmatically built HIR program) → pointer analysis → lowering →
// type-state analysis ready to run under any of the three engines. The CLI
// tools, the examples and the benchmark harness all build on it.
package driver

import (
	"fmt"
	"sort"
	"sync"

	"swift/internal/core"
	"swift/internal/hir"
	"swift/internal/ir"
	"swift/internal/lower"
	"swift/internal/pointer"
	"swift/internal/source"
	"swift/internal/typestate"
)

// Build is a fully prepared analysis pipeline for one program.
type Build struct {
	// HIR is the front-end program.
	HIR *hir.Program
	// Pointer is the 0-CFA points-to and call-graph result.
	Pointer *pointer.Result
	// Lowered is the command IR program plus tracking metadata.
	Lowered *lower.Output
	// TS is the type-state client (implements core.Client).
	TS *typestate.Analysis
	// Core binds the client to the lowered program's CFG.
	Core *core.Analysis[typestate.AbsID, typestate.RelID, typestate.FormulaID]

	// program memoizes ProgramDigest. The lowered program never changes
	// after the build, so neither does its digest.
	programOnce sync.Once
	program     string
}

// FromSource parses, validates and prepares a mini-Java program.
func FromSource(src string) (*Build, error) {
	prog, err := source.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromHIR(prog)
}

// FromHIR prepares an already-built HIR program. The program must be
// finalized; it is validated here.
func FromHIR(prog *hir.Program) (*Build, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	pts, err := pointer.Analyze(prog)
	if err != nil {
		return nil, err
	}
	low, err := lower.Lower(prog, pts)
	if err != nil {
		return nil, err
	}
	ts, err := typestate.NewAnalysis(low.Prog, low.Track, pts)
	if err != nil {
		return nil, err
	}
	ca, err := core.NewAnalysis[typestate.AbsID, typestate.RelID, typestate.FormulaID](ts, low.Prog)
	if err != nil {
		return nil, err
	}
	return &Build{HIR: prog, Pointer: pts, Lowered: low, TS: ts, Core: ca}, nil
}

// Result is a type-state analysis result under one engine.
type Result = core.Result[typestate.AbsID, typestate.RelID, typestate.FormulaID]

// Run executes the named engine ("td", "bu" or "swift") with the given
// configuration, starting from the bootstrap state.
func (b *Build) Run(engine string, cfg core.Config) (*Result, error) {
	return b.Core.RunEngine(engine, b.TS.InitialState(), cfg)
}

// SlicedResult is a site-sliced engine outcome (one Result per tracked
// allocation site, in sorted site order).
type SlicedResult = core.SlicedResult[typestate.AbsID, typestate.RelID, typestate.FormulaID]

// RunSliced executes the named engine once per tracked allocation site on
// a bounded worker pool (cfg.SliceWorkers), each slice on its own
// independent type-state client. The merged report (SlicedErrorReport) and
// all aggregated counters are independent of the worker count.
func (b *Build) RunSliced(engine string, cfg core.Config) (*SlicedResult, error) {
	return b.Core.RunSliced(engine, cfg)
}

// ErrorReport lists the allocation sites whose tracked objects may reach a
// property error state anywhere in the program, per the engine result.
// Error states are absorbing, so they are visible in the instantiated
// top-down states for every engine — including "bu", whose instantiation
// pass fills res.TD. A result without instantiated states (the run aborted
// before or during the bottom-up phase) has no report; that is an explicit
// error here, not an empty report, since an empty report means "no misuse
// found".
func (b *Build) ErrorReport(res *Result) ([]string, error) {
	if res.TD == nil {
		if res.Err != nil {
			return nil, fmt.Errorf("driver: %s run has no instantiated states to report on: %w", res.Engine, res.Err)
		}
		return nil, fmt.Errorf("driver: %s run has no instantiated states to report on", res.Engine)
	}
	return b.TS.ErrorSites(core.ReachedStates(res.TD, b.TS.StateCount())), nil
}

// SlicedErrorReport merges the per-slice error reports of a sliced run
// into the monolithic report: the sorted union, in slice order, of each
// slice's error sites. Per-slice abstract-state IDs live in the slice
// client's own ID space, so each slice's states are interpreted by its own
// client. Like ErrorReport, a slice without instantiated states is an
// explicit error.
func (b *Build) SlicedErrorReport(res *SlicedResult) ([]string, error) {
	set := map[string]bool{}
	for i := range res.Slices {
		sl := &res.Slices[i]
		ts, ok := sl.Client.(*typestate.Analysis)
		if !ok {
			return nil, fmt.Errorf("driver: slice %s has client %T, want *typestate.Analysis", sl.ID, sl.Client)
		}
		if sl.Result.TD == nil {
			// Distinguish an aborted slice from one that genuinely produced
			// no states: a fault or budget abort is the real cause, and the
			// report names it (with the slice's engine, like the monolithic
			// path) instead of mislabeling it as an empty-state condition.
			if sl.Result.Err != nil {
				return nil, fmt.Errorf("driver: %s slice %s run aborted before instantiating states: %w",
					sl.Result.Engine, sl.ID, sl.Result.Err)
			}
			return nil, fmt.Errorf("driver: %s slice %s has no instantiated states to report on",
				sl.Result.Engine, sl.ID)
		}
		for _, site := range ts.ErrorSites(core.ReachedStates(sl.Result.TD, ts.StateCount())) {
			set[site] = true
		}
	}
	out := make([]string, 0, len(set))
	for site := range set {
		out = append(out, site)
	}
	sort.Strings(out)
	return out, nil
}

// ProgramStats summarizes the lowered program.
func (b *Build) ProgramStats() ir.Stats { return ir.CollectStats(b.Lowered.Prog) }
