package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"swift/internal/driver"
	"swift/internal/store"
)

// WarmTable is the cold-versus-warm benchmark of the persistent tables
// store: two serial passes of the hybrid engine (k=5, θ=1 — the headline
// Table 2 configuration) over the suite against one store directory,
// printing per-benchmark wall-clock and cache telemetry. Within the
// process it is cold → warm; pointed at a directory populated by an
// earlier process, the first pass is already warm — which is how the CI
// smoke proves cross-process persistence (its second invocation must
// report every first-pass run as restored).
//
// The table is diagnostic output; the correctness checks are hard
// errors: every warm pass must restore the cold pass's intern tables and
// reproduce its result tables byte for byte (driver.EncodeResultTables).
func (s *Suite) WarmTable(w io.Writer, budget Budget, dir string) error {
	if budget.FaultEvery > 0 {
		return fmt.Errorf("bench: WarmTable is incompatible with fault injection (fault-armed runs bypass the store)")
	}
	st, err := store.Open(dir, 256<<20)
	if err != nil {
		return err
	}
	cfg := budget.config(5, 1)
	names := s.sortedNames()

	type passRun struct {
		run   *EngineRun
		stats *driver.WarmStats
		enc   []byte
		wall  time.Duration
	}
	// Both passes run serially: the point is the per-run cold/warm
	// wall-clock contrast, which parallelism would blur.
	pass := func() ([]passRun, error) {
		out := make([]passRun, 0, len(names))
		for _, name := range names {
			prog, err := s.Program(name)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			b, err := driver.FromHIR(prog)
			if err != nil {
				return nil, err
			}
			res, stats, err := driver.Warm{Store: st}.Run(b, "swift", cfg)
			if err != nil {
				return nil, err
			}
			if err := deadlineErr(name, "swift", res.Err); err != nil {
				return nil, err
			}
			wall := time.Since(start)
			run := &EngineRun{
				Benchmark:   name,
				Engine:      "swift",
				Elapsed:     res.Elapsed,
				Work:        res.WorkUnits(),
				Cost:        time.Duration(res.WorkUnits()) * costPerWorkUnit,
				Completed:   res.Completed(),
				TDSummaries: res.TDSummaryTotal(),
				BUSummaries: res.BUSummaryTotal(),
			}
			out = append(out, passRun{run: run, stats: stats, enc: driver.EncodeResultTables(b, res), wall: wall})
		}
		return out, nil
	}

	first, err := pass()
	if err != nil {
		return err
	}
	second, err := pass()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Warm-start benchmark (swift, k=5, θ=1) — store: %s\n\n", storeDesc(dir))
	fmt.Fprintf(w, "%-12s %9s %9s %9s %9s\n",
		"benchmark", "wall1", "wall2", "restored1", "restored2")
	firstRestored := 0
	for i, name := range names {
		f, g := first[i], second[i]
		if f.stats.RestoredTables {
			firstRestored++
		}
		fmt.Fprintf(w, "%-12s %9s %9s %9s %9s\n",
			name, fmtDur(f.wall), fmtDur(g.wall),
			yn(f.stats.RestoredTables), yn(g.stats.RestoredTables))

		if !g.stats.RestoredTables {
			return fmt.Errorf("bench: %s: warm pass did not restore tables", name)
		}
		if !bytes.Equal(f.enc, g.enc) {
			return fmt.Errorf("bench: %s: warm result tables differ from the first pass", name)
		}
		s.Release(name)
	}
	sst := st.Stats()
	fmt.Fprintf(w, "\nwarmbench: %d benchmarks, first pass restored %d/%d, second pass restored %d/%d, all tables byte-identical\n",
		len(names), firstRestored, len(names), len(names), len(names))
	fmt.Fprintf(w, "store: mem %d hits / %d misses, disk %d hits / %d misses, %d puts, %d evictions\n",
		sst.MemHits, sst.MemMisses, sst.DiskHits, sst.DiskMisses, sst.Puts, sst.Evictions)
	return nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
