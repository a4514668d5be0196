package driver

// This file wires the persistent artifact store (internal/store) into the
// pipeline: Warm.Run is Build.Run with intern-table snapshots around it.
//
// The "tables" artifact is the full mutable intern-table snapshot of a
// completed run (typestate.EncodeTables), keyed by the whole program's
// digest. A warm run restores it into its fresh pipeline before solving,
// which pins every interned ID to the cold run's value. The engine still
// runs in full, so every warm result is byte-identical to a cold run's
// (EncodeResultTables).
//
// Fault-injection runs (cfg.Fault != nil) bypass the store entirely, so
// a fault plan always meets the pipeline a cold run would.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/store"
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
	// Relaxed, SummaryHits and SummaryMisses are always zero: runs no
	// longer reuse stored trigger summaries. They remain only because the
	// swiftperf benchmark (cmd/swiftperf/internal/perf/replay.go) still
	// reads them; they go when that benchmark next changes.
	Relaxed       bool
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

func keyFor(frozen, engine string, cfg core.Config) store.Key {
	return store.Key{
		Frozen: frozen,
		Engine: engine,
		K:      cfg.K,
		Theta:  cfg.Theta,
	}
}

// ProgramDigest returns the hex digest of the whole lowered program, the
// SHA-256 of its ir.Print bytes, which ir.Fprint streams into the hash as
// it renders them. It is computed once per build.
func ProgramDigest(b *Build) string {
	b.programOnce.Do(func() {
		h := sha256.New()
		ir.Fprint(h, b.Lowered.Prog) // hash writes never fail
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

// DeterministicOutcome reports whether a run outcome is reproducible on
// an identical rebuild: a completed run, or a budget abort that did not
// involve the wall clock or a caller cancellation. ErrCanceled never
// wraps ErrBudget today, but the exclusion is spelled out anyway: a
// canceled run's tables are partial and must never be snapshotted.
func DeterministicOutcome(err error) bool {
	if err == nil {
		return true
	}
	return errors.Is(err, core.ErrBudget) &&
		!errors.Is(err, core.ErrDeadline) &&
		!errors.Is(err, core.ErrCanceled)
}

// Run executes the engine like Build.Run, restoring a stored tables
// snapshot first and publishing one afterwards. b must be a freshly built
// pipeline for either to engage; a non-fresh pipeline just runs.
func (w Warm) Run(b *Build, engine string, cfg core.Config) (*Result, *WarmStats, error) {
	stats := &WarmStats{}
	if w.Store == nil || cfg.Fault != nil {
		// No store, or fault injection armed (see file comment): run cold
		// and unobserved.
		res, err := b.Run(engine, cfg)
		return res, stats, err
	}
	tablesKey := keyFor(b.TS.FrozenDigest(), engine, normalizeConfig(engine, cfg))
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

	res, err := b.Run(engine, cfg)
	if err != nil {
		return res, stats, err
	}

	// Snapshot the finished run's tables for the next cold start. Gated on
	// a fresh start (a polluted pipeline's tables would not reproduce a
	// cold run — and a failed restore may have polluted it), and a
	// deterministic outcome; re-publishing after a restore is skipped —
	// the stored snapshot already equals these tables.
	if wasFresh && !stats.RestoredTables && !stats.RestoreFailed && DeterministicOutcome(res.Err) {
		w.Store.Put(tablesKey, b.TS.EncodeTables())
		stats.PublishedTables = true
	}
	return res, stats, nil
}
