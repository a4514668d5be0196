package core_test

// Equivalence tests for the structure-driven sparse scheduler: on every
// program we can get our hands on — the killgen fixture, randomized
// killgen programs, the paper-mirror benchmarks and the deep-nest
// structure stress — the sparse priority worklist (with and without
// loop-depth priority) must produce result tables
// and counters byte-identical to the dense FIFO baseline, under every
// engine and at every slice-worker count. The sparse path is purely a
// scheduling optimization; these tests are the contract that makes the
// -nosparse/-nostruct ablation knobs meaningful A/B switches.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
)

// sparseConfigs are the scheduler/view combinations that must all be
// observationally identical. The zero config is the default: sparse
// scheduler over the compressed view with loop-depth priority. The raw
// rows run on the test-only raw view (core.RawViewAnalysis).
var sparseConfigs = []struct {
	name            string
	noSparse, noIdx bool
	raw             bool
}{
	{"sparse+compressed", false, false, false},
	{"dense", true, false, false},
	{"nostruct", false, true, false},
	{"sparse+raw", false, false, true},
	{"dense+raw", true, false, true},
}

func applySparse(cfg core.Config, noSparse, noIdx bool) core.Config {
	cfg.NoSparse = noSparse
	cfg.NoStructIndex = noIdx
	return cfg
}

// onView returns an, or its raw-view oracle when raw is set.
func onView(an *core.Analysis[string, string, string], raw bool) *core.Analysis[string, string, string] {
	if raw {
		return core.RawViewAnalysis(an)
	}
	return an
}

// sparseVariants runs RunTD under every scheduler/view combination and
// asserts the tables and counters are indistinguishable, plus that the
// sparse stats honestly report whether the scheduler engaged. The default
// (sparse) result is returned.
func sparseVariants(t *testing.T, label string, an *core.Analysis[string, string, string], init string, cfg core.Config) *core.Result[string, string, string] {
	t.Helper()
	base := an.RunTD(init, applySparse(cfg, false, false))
	if !base.TD.Sparse.Enabled {
		t.Errorf("%s: sparse scheduler did not engage on the default config", label)
	}
	for _, v := range sparseConfigs[1:] {
		got := onView(an, v.raw).RunTD(init, applySparse(cfg, v.noSparse, v.noIdx))
		if !errors.Is(got.Err, base.Err) && !errors.Is(base.Err, got.Err) {
			t.Errorf("%s/%s: err = %v, want %v", label, v.name, got.Err, base.Err)
			continue
		}
		sameTD(t, label+"/"+v.name, base.TD, got.TD)
		if got.TD.Sparse.Enabled == v.noSparse {
			t.Errorf("%s/%s: Sparse.Enabled = %v under noSparse=%v",
				label, v.name, got.TD.Sparse.Enabled, v.noSparse)
		}
	}
	return base
}

func TestSparseMatchesDenseOnFixture(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	res := sparseVariants(t, "fixture", an, init, core.TDConfig())
	if !res.Completed() {
		t.Fatalf("td: %v", res.Err)
	}

	// The bottom-up baseline's instantiation pass runs the same solver, so
	// it must be equally indifferent to the scheduler.
	buBase := an.RunBU(init, core.BUConfig())
	for _, v := range sparseConfigs[1:] {
		got := onView(an, v.raw).RunBU(init, applySparse(core.BUConfig(), v.noSparse, v.noIdx))
		if !buBase.Completed() || !got.Completed() {
			t.Fatalf("bu/%s: %v / %v", v.name, buBase.Err, got.Err)
		}
		sameTD(t, "fixture/bu/"+v.name, buBase.TD, got.TD)
		if buBase.BUStats != got.BUStats {
			t.Errorf("bu/%s: stats differ: %+v vs %+v", v.name, buBase.BUStats, got.BUStats)
		}
	}
}

// TestSparseMatchesDenseRandomPrograms fuzzes the equivalence over seeded
// random programs: every scheduler/view combination of the top-down
// solver, the bottom-up instantiation pass, and the hybrid (which must be
// bit-identical because it always runs dense on the compressed view — the
// knobs are no-ops there, not perturbations).
func TestSparseMatchesDenseRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		prog, taint := randomKillgenProgram(rng)
		an, err := core.NewAnalysis[string, string, string](taint, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		init := taint.Initial()
		label := fmt.Sprintf("trial%d", trial)
		sparseVariants(t, label, an, init, core.TDConfig())

		buBase := an.RunBU(init, core.BUConfig())
		buDense := an.RunBU(init, applySparse(core.BUConfig(), true, false))
		if buBase.Err != nil || buDense.Err != nil {
			t.Fatalf("%s: bu: %v / %v", label, buBase.Err, buDense.Err)
		}
		sameTD(t, label+"/bu", buBase.TD, buDense.TD)
		if buBase.BUStats != buDense.BUStats {
			t.Errorf("%s: bu stats differ: %+v vs %+v", label, buBase.BUStats, buDense.BUStats)
		}

		cfg := core.DefaultConfig()
		cfg.K = 1
		swBase := an.RunSwift(init, cfg)
		swKnob := an.RunSwift(init, applySparse(cfg, true, true))
		if swBase.Err != nil || swKnob.Err != nil {
			t.Fatalf("%s: swift: %v / %v", label, swBase.Err, swKnob.Err)
		}
		sameTD(t, label+"/swift", swBase.TD, swKnob.TD)
		if swBase.TD.Sparse.Enabled || swKnob.TD.Sparse.Enabled {
			t.Errorf("%s: hybrid reported a sparse run; it must run dense on the compressed view", label)
		}
		if swBase.BUStats != swKnob.BUStats {
			t.Errorf("%s: swift stats differ with knobs set", label)
		}
	}
}

// TestSparseMatchesDenseOnBenchSuite drives the full pipeline on every
// paper-mirror benchmark plus the deep-nest structure stress: the encoded
// result tables — every path edge, summary, entry multiset, error text and
// counter — must be byte-identical between the dense and sparse runs of
// one shared build. Runs that exhaust the (deliberately modest) path-edge
// budget must abort on the identical insert count, per the
// original-graph-units contract.
func TestSparseMatchesDenseOnBenchSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-suite equivalence is not a -short test")
	}
	names := []string{"deep-nest"}
	for _, p := range benchprog.Profiles() {
		names = append(names, p.Name)
	}
	for _, name := range names {
		for _, engine := range []string{"td", "bu"} {
			t.Run(name+"/"+engine, func(t *testing.T) {
				p, ok := benchprog.ProfileByName(name)
				if !ok {
					t.Fatalf("unknown profile %s", name)
				}
				prog, err := benchprog.Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				// One build for all runs: shared interner, comparable AbsIDs
				// (see TestCompressedMatchesRawOnTestdata).
				b, err := driver.FromHIR(prog)
				if err != nil {
					t.Fatal(err)
				}
				run := func(noSparse, noIdx bool) *driver.Result {
					cfg := core.DefaultConfig()
					// The quick-budget caps: the largest stand-ins are built
					// to exhaust the TD path-edge budget, and the unpruned
					// bottom-up phase needs a relation budget to terminate at
					// all on the alias-tangled ones.
					cfg.MaxPathEdges = 300_000
					cfg.MaxRelations = 60_000
					cfg.NoSparse = noSparse
					cfg.NoStructIndex = noIdx
					res, err := b.Run(engine, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				dense := run(true, false)
				sparse := run(false, false)
				nostruct := run(false, true)
				for _, v := range []struct {
					name string
					res  *driver.Result
				}{{"sparse", sparse}, {"nostruct", nostruct}} {
					if (dense.Err == nil) != (v.res.Err == nil) ||
						(dense.Err != nil && !errors.Is(v.res.Err, core.ErrBudget)) {
						t.Fatalf("%s: err = %v, dense err = %v", v.name, v.res.Err, dense.Err)
					}
					if dense.Err != nil {
						// Budget abort: only the insert count is pinned across
						// schedulers (see TestBudgetAbortAgreesAcrossViews). A
						// bu run aborted before instantiation has no TD table
						// at all — then both sides must lack one.
						if (dense.TD == nil) != (v.res.TD == nil) {
							t.Errorf("%s: TD table presence differs at abort", v.name)
						} else if dense.TD != nil && dense.TD.NumPathEdges != v.res.TD.NumPathEdges {
							t.Errorf("%s: path edges at abort: %d vs %d",
								v.name, v.res.TD.NumPathEdges, dense.TD.NumPathEdges)
						}
						continue
					}
					if !bytes.Equal(driver.EncodeResultTables(b, dense), driver.EncodeResultTables(b, v.res)) {
						sameTD(t, v.name, dense.TD, v.res.TD) // pinpoint the field
						t.Errorf("%s: encoded result tables differ from dense", v.name)
					}
				}
			})
		}
	}
}

// TestSparseStatsSanity pins that the scheduler's telemetry reflects real
// work: batching must pop far fewer times than it propagates on loopy
// programs, the deep loop nest included.
func TestSparseStatsSanity(t *testing.T) {
	for _, name := range []string{"elevator", "deep-nest"} {
		p, ok := benchprog.ProfileByName(name)
		if !ok {
			t.Fatalf("unknown profile %s", name)
		}
		prog, err := benchprog.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := driver.FromHIR(prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run("td", core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		sp := res.TD.Sparse
		if !sp.Enabled || sp.Regions == 0 || sp.MaxDepth == 0 {
			t.Errorf("%s: structure index missing from stats: %+v", name, sp)
		}
		if sp.Pops == 0 || sp.Pops >= res.TD.Steps {
			t.Errorf("%s: batching ineffective: %d pops for %d steps", name, sp.Pops, res.TD.Steps)
		}
	}
}

// TestSparseMatchesDenseSliced closes the loop at the driver's sliced
// layer. Per-slice clients intern fresh, so same-scheduler runs produce
// identical per-slice tables at every worker count; across schedulers the
// traversal order — and with it the AbsID numbering — differs, so the
// comparison drops to the ID-independent quantities: every per-slice
// counter, the aggregate work, and the merged error report.
func TestSparseMatchesDenseSliced(t *testing.T) {
	p, ok := benchprog.ProfileByName("toba-s")
	if !ok {
		t.Fatal("unknown profile toba-s")
	}
	prog, err := benchprog.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := driver.FromHIR(prog)
	if err != nil {
		t.Fatal(err)
	}
	runSliced := func(workers int, noSparse bool) (*driver.SlicedResult, []string) {
		cfg := core.DefaultConfig()
		cfg.SliceWorkers = workers
		cfg.NoSparse = noSparse
		res, err := b.RunSliced("td", cfg)
		if err != nil {
			t.Fatalf("workers=%d nosparse=%v: %v", workers, noSparse, err)
		}
		if e := res.Err(); e != nil {
			t.Fatalf("workers=%d nosparse=%v: %v", workers, noSparse, e)
		}
		report, err := b.SlicedErrorReport(res)
		if err != nil {
			t.Fatalf("workers=%d nosparse=%v: %v", workers, noSparse, err)
		}
		return res, report
	}
	base, baseReport := runSliced(1, false)
	for _, workers := range []int{1, 2, 8} {
		for _, noSparse := range []bool{false, true} {
			if workers == 1 && !noSparse {
				continue // the baseline itself
			}
			label := fmt.Sprintf("workers=%d/nosparse=%v", workers, noSparse)
			got, report := runSliced(workers, noSparse)
			if len(got.Slices) != len(base.Slices) {
				t.Fatalf("%s: %d slices, want %d", label, len(got.Slices), len(base.Slices))
			}
			for i := range base.Slices {
				if got.Slices[i].ID != base.Slices[i].ID {
					t.Fatalf("%s: slice %d is %s, want %s", label, i, got.Slices[i].ID, base.Slices[i].ID)
				}
				slabel := label + "/" + string(base.Slices[i].ID)
				bt, gt := base.Slices[i].Result.TD, got.Slices[i].Result.TD
				if noSparse {
					if bt.NumPathEdges != gt.NumPathEdges || bt.NumSummaries != gt.NumSummaries || bt.Steps != gt.Steps {
						t.Errorf("%s: counters differ: (%d,%d,%d) vs (%d,%d,%d)", slabel,
							bt.NumPathEdges, bt.NumSummaries, bt.Steps,
							gt.NumPathEdges, gt.NumSummaries, gt.Steps)
					}
				} else {
					sameTD(t, slabel, bt, gt)
				}
			}
			if got.WorkUnits() != base.WorkUnits() {
				t.Errorf("%s: work units %d, want %d", label, got.WorkUnits(), base.WorkUnits())
			}
			if fmt.Sprint(report) != fmt.Sprint(baseReport) {
				t.Errorf("%s: merged report %v, want %v", label, report, baseReport)
			}
		}
	}
}
