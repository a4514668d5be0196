package core_test

// Tabulation hot-path benchmarks on the paper-mirror programs:
//
//   - BenchmarkTabulationCompressed — the shipped solver: superblock view,
//     one chain walk per superedge traversal, per-node rows of
//     entry-context cells as the path-edge table, structure-driven sparse
//     scheduler (DESIGN.md §13).
//   - BenchmarkTabulationDense — A/B control: the shipped solver with the
//     sparse scheduler off (core.DenseFIFO), i.e. the dense FIFO that was
//     the shipped configuration before the structure layer.
//   - BenchmarkTabulationNoStruct — A/B control: sparse scheduler without
//     loop-depth priority (core.PlainRPO): plain RPO batching.
//   - BenchmarkTabulationRaw — the pre-optimization solver preserved in
//     legacy_bench_test.go: one edge per traversal, map[pathPair]bool
//     table. This is the "before" the ratio is measured against.
//   - BenchmarkTabulationRawView — A/B control: the shipped solver on the
//     test-only raw view (core.RawViewAnalysis), isolating how much of the
//     win comes from compression versus the path-edge table rework.
//
// Run with:
//
//	go test ./internal/core -bench BenchmarkTabulation -benchmem
//
// The measured ratios are recorded in EXPERIMENTS.md.

import (
	"reflect"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
)

// tabulationProfiles are the paper-mirror programs used for the benchmark
// (small, medium and the largest profiles the TD baseline completes
// quickly) plus deep-nest, the loop-structure stress fixture where
// loop-depth priority matters most.
var tabulationProfiles = []string{"jpat-p", "elevator", "toba-s", "javasrc-p", "deep-nest"}

func tabulationBuild(tb testing.TB, name string) *driver.Build {
	tb.Helper()
	p, ok := benchprog.ProfileByName(name)
	if !ok {
		tb.Fatalf("unknown profile %s", name)
	}
	prog, err := benchprog.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	bl, err := driver.FromHIR(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return bl
}

func BenchmarkTabulationCompressed(b *testing.B) {
	for _, name := range tabulationProfiles {
		b.Run(name, func(b *testing.B) {
			bl := tabulationBuild(b, name)
			cfg := core.TDConfig()
			// Warm once: interning and view construction happen on the first
			// run; the loop then measures the steady-state solve.
			if res, err := bl.Run("td", cfg); err != nil || res.Err != nil {
				b.Fatalf("warmup: %v / %v", err, res.Err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bl.Run("td", cfg)
				if err != nil || res.Err != nil {
					b.Fatalf("%v / %v", err, res.Err)
				}
			}
		})
	}
}

// tabulationKnob benchmarks the shipped solver under one test schedule —
// the dense and plain-RPO controls.
func tabulationKnob(b *testing.B, sched func(core.Config) core.Config) {
	for _, name := range tabulationProfiles {
		b.Run(name, func(b *testing.B) {
			bl := tabulationBuild(b, name)
			cfg := sched(core.TDConfig())
			if res, err := bl.Run("td", cfg); err != nil || res.Err != nil {
				b.Fatalf("warmup: %v / %v", err, res.Err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bl.Run("td", cfg)
				if err != nil || res.Err != nil {
					b.Fatalf("%v / %v", err, res.Err)
				}
			}
		})
	}
}

func BenchmarkTabulationDense(b *testing.B)    { tabulationKnob(b, core.DenseFIFO) }
func BenchmarkTabulationNoStruct(b *testing.B) { tabulationKnob(b, core.PlainRPO) }

func BenchmarkTabulationRaw(b *testing.B) {
	for _, name := range tabulationProfiles {
		b.Run(name, func(b *testing.B) {
			bl := tabulationBuild(b, name)
			cfg := core.TDConfig()
			init := bl.TS.InitialState()
			if _, err := core.LegacyRunTD(bl.Core.Client, bl.Core.CFG, cfg, init); err != nil {
				b.Fatalf("warmup: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.LegacyRunTD(bl.Core.Client, bl.Core.CFG, cfg, init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTabulationRawView(b *testing.B) {
	for _, name := range tabulationProfiles {
		b.Run(name, func(b *testing.B) {
			bl := tabulationBuild(b, name)
			cfg := core.TDConfig()
			an, init := core.RawViewAnalysis(bl.Core), bl.TS.InitialState()
			if res, err := an.RunEngine("td", init, cfg); err != nil || res.Err != nil {
				b.Fatalf("warmup: %v / %v", err, res.Err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := an.RunEngine("td", init, cfg)
				if err != nil || res.Err != nil {
					b.Fatalf("%v / %v", err, res.Err)
				}
			}
		})
	}
}

// TestLegacySolverCountersMatch pins the baseline to the shipped solver: on
// the benchmark profiles, the seed algorithm preserved for the Raw
// benchmark must agree with the reworked solver on every counter the
// results tables consume and on the summary tables themselves. The legacy
// run goes first so it populates the shared interner; the shipped run then
// reuses the same state IDs, making the tables directly comparable.
func TestLegacySolverCountersMatch(t *testing.T) {
	for _, name := range []string{"jpat-p", "elevator", "toba-s"} {
		t.Run(name, func(t *testing.T) {
			bl := tabulationBuild(t, name)
			cfg := core.TDConfig()
			legacy, err := core.LegacyRunTD(bl.Core.Client, bl.Core.CFG, cfg, bl.TS.InitialState())
			if err != nil {
				t.Fatalf("legacy solver: %v", err)
			}
			res, err := bl.Run("td", cfg)
			if err != nil || res.Err != nil {
				t.Fatalf("shipped solver: %v / %v", err, res.Err)
			}
			td := res.TD
			if legacy.NumPathEdges != td.NumPathEdges ||
				legacy.NumSummaries != td.NumSummaries ||
				legacy.Steps != td.Steps {
				t.Fatalf("counters diverge: legacy edges=%d summaries=%d steps=%d, shipped edges=%d summaries=%d steps=%d",
					legacy.NumPathEdges, legacy.NumSummaries, legacy.Steps,
					td.NumPathEdges, td.NumSummaries, td.Steps)
			}
			if !reflect.DeepEqual(legacy.Summaries, td.Summaries) {
				t.Fatal("summary tables diverge between legacy and shipped solver")
			}
		})
	}
}
