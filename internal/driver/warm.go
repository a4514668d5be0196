package driver

// This file wires the persistent artifact store (internal/store) into the
// pipeline: Warm.Run is Build.Run with a summary cache and intern-table
// snapshots around it.
//
// Two artifact kinds cooperate:
//
//   - "tables": the full mutable intern-table snapshot of a completed run
//     (typestate.EncodeTables), keyed by the whole program's digest. A
//     warm run restores it into its fresh pipeline before solving, which
//     pins every interned ID to the cold run's value — the precondition
//     for byte-identical result tables (EncodeResultTables) under the
//     deterministic engines.
//
//   - "summary": one trigger outcome (typestate.EncodeSummaries), keyed
//     by the trigger's call-graph-closure digest. The closure covers
//     every procedure whose body can influence the outcome — including
//     already-summarized callees outside the run_bu frontier, whose
//     stored summaries the solver consults — so a hit is sound whenever
//     the key matches. Lookup additionally requires the stored frontier
//     to equal the live one; otherwise the outcome belongs to a different
//     summarization state and is treated as a miss.
//
// Summary hits without a restored tables snapshot ("relaxed" reuse,
// e.g. after editing an unrelated procedure changed the program digest
// but not a trigger's closure) are still sound and yield the same error
// report, but decoded components intern to different IDs, so the result
// tables need not be byte-identical to a cold run's. WarmStats records
// which mode a run got.
//
// Fault-injection runs (cfg.Fault != nil) bypass the store entirely: the
// fault plan's operation indices count client calls, and warm-skipped
// work would shift every subsequent fault site.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/store"
	"swift/internal/typestate"
)

// Warm runs engines against a persistent artifact store.
type Warm struct {
	Store *store.Store
}

// WarmStats describes what one Warm.Run got from (and gave to) the store.
type WarmStats struct {
	// RestoredTables reports that the cold run's intern tables were
	// restored before solving — the byte-identity precondition.
	RestoredTables bool
	// PublishedTables reports that this run's tables were snapshotted into
	// the store for future warm starts.
	PublishedTables bool
	// RestoreFailed reports that a stored tables snapshot was found but
	// failed to restore (corrupt or mismatched blob). The pipeline may hold
	// partially replayed intern tables after a replay-phase failure, so such a
	// run never publishes its tables; the corrupt snapshot is deleted so a
	// later fresh run can re-publish a good one.
	RestoreFailed bool
	// Relaxed reports summary-level reuse without a restored tables
	// snapshot: sound, same error report, but decoded components intern to
	// fresh IDs, so result tables need not be byte-identical to the cold
	// run that published the summaries.
	Relaxed bool
	// SummaryHits and SummaryMisses count run_bu invocations answered from
	// the store versus computed (and, when deterministic, published).
	SummaryHits   int64
	SummaryMisses int64
}

// normalizeConfig mirrors core.RunEngine's per-engine overrides so store
// keys are computed from the thresholds the engine actually runs with (td
// always analyzes with K=∞, bu with θ=∞). Without it, requests that differ
// only in an ignored threshold would occupy distinct keys for identical
// artifacts.
func normalizeConfig(engine string, cfg core.Config) core.Config {
	switch engine {
	case "td":
		cfg.K = core.Unlimited
	case "bu":
		cfg.Theta = core.Unlimited
	}
	return cfg
}

// keyTemplate fills the key fields shared by every artifact of one run.
func keyTemplate(b *Build, engine string, cfg core.Config) store.Key {
	return keyFor(b.TS.FrozenDigest(), engine, cfg)
}

func keyFor(frozen, engine string, cfg core.Config) store.Key {
	return store.Key{
		Frozen: frozen,
		Engine: engine,
		K:      cfg.K,
		Theta:  cfg.Theta,
	}
}

// bodyPrints returns each lowered procedure's ir.Print, printed once per
// build. Slice runs may ask from several goroutines, hence the sync.Once.
func (b *Build) bodyPrints() map[string][]byte {
	b.bodiesOnce.Do(func() {
		prog := b.Lowered.Prog
		b.bodies = make(map[string][]byte, len(prog.Procs))
		for name, p := range prog.Procs {
			b.bodies[name] = []byte(ir.Print(&ir.Program{Procs: map[string]*ir.Proc{name: p}}))
		}
	})
	return b.bodies
}

// ProgramDigest returns the hex digest of the whole lowered program: the
// SHA-256 of ir.Print of it, which is the procedure prints in name order
// joined by newlines. It is computed once per build.
func ProgramDigest(b *Build) string {
	b.programOnce.Do(func() {
		bodies := b.bodyPrints()
		h := sha256.New()
		for i, name := range b.Lowered.Prog.ProcNames() {
			if i > 0 {
				h.Write([]byte{'\n'})
			}
			h.Write(bodies[name])
		}
		b.program = hex.EncodeToString(h.Sum(nil))
	})
	return b.program
}

// BuildDigests are the two content digests every store key of a build
// carries: the client's frozen-construction digest and the whole lowered
// program's digest. Two builds of one source have equal digests, so a
// caller that remembers them per source can derive a result key without
// building again.
type BuildDigests struct {
	Frozen  string
	Program string
}

// Digests returns the build's key digests, each computed at most once.
func (b *Build) Digests() BuildDigests {
	return BuildDigests{Frozen: b.TS.FrozenDigest(), Program: ProgramDigest(b)}
}

// closureDigest hashes the bodies of every procedure reachable from root
// by call chains (root included), in sorted order. Procedures named but
// absent from the program hash as their name alone, matching how the
// solvers treat them (no-op bodies).
func closureDigest(b *Build, root string) string {
	bodies := b.bodyPrints()
	h := sha256.New()
	for _, name := range b.Lowered.Prog.Reachable(root) {
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(bodies[name])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ResultKey is the store key under which a whole analysis response for
// this (program, engine, config) may be cached — swiftd's outermost
// cache layer. The body digest covers the entire lowered program, so any
// source change invalidates it.
func ResultKey(b *Build, engine string, cfg core.Config) store.Key {
	return ResultKeyFor(b.Digests(), engine, cfg)
}

// ResultKeyFor is ResultKey from a build's digests alone, for callers
// that remember them and want the key without building.
func ResultKeyFor(d BuildDigests, engine string, cfg core.Config) store.Key {
	k := keyFor(d.Frozen, engine, normalizeConfig(engine, cfg))
	k.Kind = "result"
	k.Body = d.Program
	return k
}

// summarySource adapts the store to core.SummarySource for one run.
type summarySource struct {
	b     *Build
	store *store.Store
	tmpl  store.Key

	digests map[string]string // trigger → closure digest

	hits   int64
	misses int64
}

func (s *summarySource) key(trigger string) store.Key {
	d, ok := s.digests[trigger]
	if !ok {
		d = closureDigest(s.b, trigger)
		s.digests[trigger] = d
	}
	k := s.tmpl
	k.Kind = "summary"
	k.Proc = trigger
	k.Body = d
	return k
}

// Lookup implements core.SummarySource. Corrupt blobs, digest mismatches
// and frontier mismatches all degrade to misses.
func (s *summarySource) Lookup(trigger string, frontier []string) (core.TriggerOutcome[typestate.RelID, typestate.FormulaID], bool) {
	var zero core.TriggerOutcome[typestate.RelID, typestate.FormulaID]
	blob, ok := s.store.Get(s.key(trigger))
	if !ok {
		s.misses++
		return zero, false
	}
	storedFrontier, eta, failed, err := s.b.TS.DecodeSummaries(blob)
	if err != nil || !slices.Equal(storedFrontier, frontier) {
		s.misses++
		return zero, false
	}
	s.hits++
	return core.TriggerOutcome[typestate.RelID, typestate.FormulaID]{Eta: eta, Failed: failed}, true
}

// Publish implements core.SummarySource.
func (s *summarySource) Publish(trigger string, frontier []string, out core.TriggerOutcome[typestate.RelID, typestate.FormulaID]) {
	s.store.Put(s.key(trigger), s.b.TS.EncodeSummaries(frontier, out.Eta, out.Failed))
}

// deterministicOutcome reports whether a run outcome is reproducible on
// an identical rebuild: a completed run, or a budget abort that did not
// involve the wall clock or a caller cancellation. ErrCanceled never
// wraps ErrBudget today, but the exclusion is spelled out anyway: a
// canceled run's tables are partial and must never be snapshotted.
func deterministicOutcome(err error) bool {
	if err == nil {
		return true
	}
	return errors.Is(err, core.ErrBudget) &&
		!errors.Is(err, core.ErrDeadline) &&
		!errors.Is(err, core.ErrCanceled)
}

// Run executes the engine like Build.Run, warm-starting from the store
// and feeding it afterwards. b must be a freshly built pipeline for
// tables restore (and publication) to engage; a non-fresh pipeline still
// gets summary-level reuse.
func (w Warm) Run(b *Build, engine string, cfg core.Config) (*Result, *WarmStats, error) {
	stats := &WarmStats{}
	if w.Store == nil || cfg.Fault != nil {
		// No store, or fault injection armed (see file comment): run cold
		// and unobserved.
		res, err := b.Run(engine, cfg)
		return res, stats, err
	}
	ncfg := normalizeConfig(engine, cfg)
	tmpl := keyTemplate(b, engine, ncfg)

	tablesKey := tmpl
	tablesKey.Kind = "tables"
	tablesKey.Body = ProgramDigest(b)

	wasFresh := b.TS.Fresh()
	if wasFresh {
		if blob, ok := w.Store.Get(tablesKey); ok {
			if err := b.TS.RestoreTables(blob); err == nil {
				stats.RestoredTables = true
			} else {
				stats.RestoreFailed = true
				w.Store.Delete(tablesKey)
			}
		}
	}

	src := &summarySource{b: b, store: w.Store, tmpl: tmpl, digests: map[string]string{}}
	b.Core.Warm = src
	defer func() { b.Core.Warm = nil }()

	res, err := b.Run(engine, cfg)
	stats.SummaryHits = src.hits
	stats.SummaryMisses = src.misses
	stats.Relaxed = stats.SummaryHits > 0 && !stats.RestoredTables
	if err != nil {
		return res, stats, err
	}

	// Snapshot the finished run's tables for the next cold start. Gated on
	// a fresh start (a polluted pipeline's tables would not reproduce a
	// cold run — and a failed restore may have polluted it), and a
	// deterministic outcome; re-publishing after a restore is skipped —
	// the stored snapshot already equals these tables.
	if wasFresh && !stats.RestoredTables && !stats.RestoreFailed && deterministicOutcome(res.Err) {
		w.Store.Put(tablesKey, b.TS.EncodeTables())
		stats.PublishedTables = true
	}
	return res, stats, nil
}
