package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"swift/internal/benchprog"
	"swift/internal/driver"
	"swift/internal/store"
)

// EditTable is the edit-stream incremental benchmark: a deterministic
// stream of single-procedure edits to one benchmark program
// (benchprog.EditStream), each analyzed cold and incrementally against a
// shared store, across all three engines. The version sequence is the
// base program, each edit applied to the base in isolation, and a final
// revert (the base again). Per version the table reports the
// invalidation frontier (procedures whose call-graph-closure digest
// changed, from driver.IndexClosures), whether the client's frozen
// construction survived the edit, cold-versus-incremental work units,
// and summary hit rates.
//
// The table is diagnostic; the correctness checks are hard errors:
//
//   - On the revert, every engine must restore the base run's tables
//     snapshot, reuse its summaries without a miss, and reproduce its
//     result tables byte for byte.
//   - The hybrid engine must answer at least one trigger from the store
//     on the closure-preserving edits (those that keep the frozen
//     digest) — the incremental-reuse acceptance criterion.
func (s *Suite) EditTable(w io.Writer, budget Budget, dir, benchmark string, seed int64, nEdits int) error {
	if budget.FaultEvery > 0 {
		return fmt.Errorf("bench: EditTable is incompatible with fault injection (fault-armed runs bypass the store)")
	}
	if budget.config(1, 1).Ablation() {
		return fmt.Errorf("bench: EditTable is incompatible with ablation knobs (ablation runs bypass the store)")
	}
	p, ok := benchprog.ProfileByName(benchmark)
	if !ok {
		return fmt.Errorf("bench: unknown benchmark %q", benchmark)
	}
	st, err := store.Open(dir, 256<<20)
	if err != nil {
		return err
	}
	// k=1, θ=1: the low-threshold configuration triggers run_bu on nearly
	// every procedure, which is what gives the summary store something to
	// reuse between versions.
	cfg := budget.config(1, 1)

	edits, err := benchprog.EditStream(p, seed, nEdits)
	if err != nil {
		return err
	}
	type version struct {
		label string
		edit  string
		edits []benchprog.Edit

		// Engine-independent shape of the edit, filled on the first pass.
		frontier   int
		procs      int
		frozenSame bool
	}
	versions := make([]*version, 0, nEdits+2)
	versions = append(versions, &version{label: "base", edit: "-"})
	for i, e := range edits {
		versions = append(versions, &version{
			label: fmt.Sprintf("edit%d", i+1), edit: e.String(), edits: []benchprog.Edit{e},
		})
	}
	versions = append(versions, &version{label: "revert", edit: "-"})

	build := func(v *version) (*driver.Build, error) {
		prog, err := benchprog.GenerateEdited(p, v.edits...)
		if err != nil {
			return nil, err
		}
		return driver.FromHIR(prog)
	}

	// Shape the versions once: frontier sizes and frozen-digest survival
	// do not depend on the engine.
	baseBuild, err := build(versions[0])
	if err != nil {
		return err
	}
	baseIdx := driver.IndexClosures(baseBuild)
	baseFrozen := baseBuild.TS.FrozenDigest()
	for _, v := range versions {
		b, err := build(v)
		if err != nil {
			return err
		}
		v.frontier = len(driver.IndexClosures(b).Changed(baseIdx))
		v.procs = len(baseIdx)
		v.frozenSame = b.TS.FrozenDigest() == baseFrozen
	}

	engines := []string{"td", "bu", "swift"}
	var rows [][]string
	var swiftPreservingHits, preservingEdits int
	for _, v := range versions[1 : len(versions)-1] {
		if v.frozenSame {
			preservingEdits++
		}
	}

	for _, engine := range engines {
		var baseEnc []byte
		for vi, v := range versions {
			revert := vi == len(versions)-1

			// Cold baseline: the same version with no store at all.
			bCold, err := build(v)
			if err != nil {
				return err
			}
			resCold, _, err := driver.Warm{}.Run(bCold, engine, cfg)
			if err != nil {
				return err
			}

			// Incremental run against the shared store.
			start := time.Now()
			bInc, err := build(v)
			if err != nil {
				return err
			}
			resInc, stats, err := driver.Warm{Store: st}.Run(bInc, engine, cfg)
			if err != nil {
				return err
			}
			s.telemetry("editbench %-10s %-11s %-7s wall=%-8s hits=%d misses=%d\n",
				benchmark, engine, v.label, fmtDur(time.Since(start)), stats.SummaryHits, stats.SummaryMisses)

			rows = append(rows, []string{
				engine, v.label, v.edit,
				fmt.Sprintf("%d/%d", v.frontier, v.procs),
				map[bool]string{true: "same", false: "changed"}[v.frozenSame],
				fmtK(resCold.WorkUnits()), fmtK(resInc.WorkUnits()),
				fmt.Sprintf("%d/%d", stats.SummaryHits, stats.SummaryMisses),
				yn(stats.RestoredTables), yn(stats.Relaxed),
			})

			if engine == "swift" && vi > 0 && !revert && v.frozenSame {
				swiftPreservingHits += int(stats.SummaryHits)
			}
			enc := driver.EncodeResultTables(bInc, resInc)
			if vi == 0 {
				baseEnc = enc
			}
			if revert {
				if !stats.RestoredTables {
					return fmt.Errorf("bench: %s: revert did not restore the base tables snapshot", engine)
				}
				// bu may legitimately re-miss on the revert: it does not
				// publish budget-aborted outcomes (the abort is its terminal
				// result, recomputed identically). Byte-identity below is the
				// binding check for it.
				if resInc.Completed() && stats.SummaryMisses != 0 {
					return fmt.Errorf("bench: %s: revert had %d summary misses", engine, stats.SummaryMisses)
				}
				if !bytes.Equal(baseEnc, enc) {
					return fmt.Errorf("bench: %s: reverted result tables differ from the base run", engine)
				}
			}
		}
	}

	fmt.Fprintf(w, "Edit-stream incremental benchmark (%s, k=1, θ=1, seed %d, %d edits) — store: %s\n\n",
		benchmark, seed, nEdits, storeDesc(dir))
	table(w, []string{"engine", "version", "edit", "invalidated", "frozen", "cold-work", "inc-work", "hits/miss", "restored", "relaxed"}, rows)

	if preservingEdits > 0 && swiftPreservingHits == 0 {
		return fmt.Errorf("bench: swift reused no summaries across %d closure-preserving edits", preservingEdits)
	}
	sst := st.Stats()
	fmt.Fprintf(w, "\neditbench: %d edits (%d closure-preserving), revert byte-identical under td/bu/swift, swift reused %d summaries on closure-preserving edits\n",
		nEdits, preservingEdits, swiftPreservingHits)
	fmt.Fprintf(w, "store: mem %d hits / %d misses, disk %d hits / %d misses, %d puts, %d deletes, %d evictions\n",
		sst.MemHits, sst.MemMisses, sst.DiskHits, sst.DiskMisses, sst.Puts, sst.Deletes, sst.Evictions)
	return nil
}
