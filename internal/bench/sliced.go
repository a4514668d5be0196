package bench

// The site-sliced experiment: run the deterministic engines monolithically
// and site-sliced on every benchmark and compare their deterministic work
// costs. Slicing wins twice — wall-clock parallelism across slices, and
// smaller per-slice state spaces shrinking the superlinear path-edge
// blowup even at one worker — and the table shows both: the sliced total
// cost (all slices summed, the one-worker cost) and the critical-path cost
// (the largest single slice, the cost floor at unlimited workers).
//
// Every cost cell is computed from the engines' deterministic work
// counters and the slices are aggregated in sorted site order, so the
// table is byte-identical at any -sliceworkers setting; real wall-clock
// goes to the Telemetry stream like everywhere else in this harness.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
)

// slicedEngines are the engines the sliced table compares.
var slicedEngines = []string{"td", "swift"}

// SlicedRun is the outcome of one sliced engine run on one benchmark.
type SlicedRun struct {
	Benchmark string
	Engine    string
	Slices    int
	// Work sums the slices' deterministic work counters; MaxWork is the
	// largest single slice (the critical path). Cost/CritCost are the
	// scaled durations the tables print.
	Work      int
	MaxWork   int
	Cost      time.Duration
	CritCost  time.Duration
	Completed bool
	Elapsed   time.Duration
	Result    *driver.SlicedResult
}

// RunSlicedConfig executes one engine site-sliced on one benchmark, on a
// freshly built pipeline (see RunConfig for why runs never share one).
func (s *Suite) RunSlicedConfig(name, engine string, cfg core.Config) (*SlicedRun, error) {
	prog, err := s.Program(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := driver.FromHIR(prog)
	if err != nil {
		return nil, err
	}
	// The dispatch goroutine gets suite + engine-sliced labels; each slice
	// labels itself engine/slice and inherits the suite via ProfileLabel.
	cfg.ProfileLabel = name
	var res *driver.SlicedResult
	pprof.Do(context.Background(),
		pprof.Labels("suite", name, "engine", engine+"-sliced"),
		func(context.Context) { res, err = b.RunSliced(engine, cfg) })
	if err != nil {
		return nil, err
	}
	if err := deadlineErr(name, engine+"-sliced", res.Err()); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	run := &SlicedRun{
		Benchmark: name,
		Engine:    engine,
		Slices:    len(res.Slices),
		Work:      res.WorkUnits(),
		MaxWork:   res.MaxSliceWork(),
		Cost:      time.Duration(res.WorkUnits()) * costPerWorkUnit,
		CritCost:  time.Duration(res.MaxSliceWork()) * costPerWorkUnit,
		Completed: res.Completed(),
		Elapsed:   res.Elapsed,
		Result:    res,
	}
	s.telemetry("run %-10s %-6s sliced over %d sites, workers=%-3d wall=%-8s cost=%s crit=%s\n",
		name, engine, run.Slices, cfg.SliceWorkers, fmtDur(wall), fmtDur(run.Cost), fmtDur(run.CritCost))
	return run, nil
}

// SlicedTable renders the site-sliced vs monolithic comparison with the
// paper's headline thresholds (k=5, θ=1). Monolithic runs execute on the
// suite's worker pool; each sliced run then parallelizes internally over
// workers (zero means GOMAXPROCS). "total" sums every slice (the
// one-worker cost: the state-space effect alone), "crit" is the largest
// slice (the cost floor at unlimited workers); DNF marks a run — or any
// slice of it — that exhausted a budget.
func (s *Suite) SlicedTable(w io.Writer, budget Budget, workers int) error {
	// On a single-core host the sliced runs execute one after another: each
	// already fans out over its slices, and stacking the suite pool on top
	// would only add scheduling churn. With real cores available the
	// benchmark cells go on the suite pool like every other experiment —
	// serializing there left multi-core hosts idle (the PR 5 note in
	// ROADMAP.md kept it always-on as a dodge, which was the bug).
	return s.slicedTable(w, budget, workers, runtime.GOMAXPROCS(0) == 1)
}

// slicedTable is SlicedTable with the suite-serialization decision
// explicit, so tests can pin that both paths render identical bytes.
func (s *Suite) slicedTable(w io.Writer, budget Budget, workers int, serialize bool) error {
	names := s.sortedNames()
	mono := make([]*EngineRun, len(names)*len(slicedEngines))
	var jobs []func() error
	for i, name := range names {
		for j, engine := range slicedEngines {
			slot := i*len(slicedEngines) + j
			name, engine := name, engine
			jobs = append(jobs, func() error {
				run, err := s.Run(name, engine, budget, 5, 1)
				if err != nil {
					return err
				}
				run.Result = nil
				mono[slot] = run
				return nil
			})
		}
	}
	if err := s.forEach(jobs); err != nil {
		return err
	}
	sliced := make([]*SlicedRun, len(names)*len(slicedEngines))
	cfg := budget.config(5, 1)
	cfg.SliceWorkers = workers
	runSliced := func(i, j int) error {
		run, err := s.RunSlicedConfig(names[i], slicedEngines[j], cfg)
		if err != nil {
			return err
		}
		run.Result = nil
		sliced[i*len(slicedEngines)+j] = run
		return nil
	}
	if serialize {
		for i, name := range names {
			for j := range slicedEngines {
				if err := runSliced(i, j); err != nil {
					return err
				}
			}
			s.Release(name)
		}
	} else {
		// Per-benchmark release accounting keeps the memory footprint flat
		// on the pool too: the last engine cell of a benchmark releases it.
		var mu sync.Mutex
		left := make([]int, len(names))
		for i := range left {
			left[i] = len(slicedEngines)
		}
		var sjobs []func() error
		for i := range names {
			for j := range slicedEngines {
				i, j := i, j
				sjobs = append(sjobs, func() error {
					err := runSliced(i, j)
					mu.Lock()
					left[i]--
					done := left[i] == 0
					mu.Unlock()
					if done {
						s.Release(names[i])
					}
					return err
				})
			}
		}
		if err := s.forEach(sjobs); err != nil {
			return err
		}
	}
	cell := func(ok bool, d time.Duration) string {
		if !ok {
			return "DNF"
		}
		return fmtDur(d)
	}
	header := []string{"benchmark", "slices",
		"TD mono", "total", "crit",
		"SWIFT mono", "total", "crit"}
	var rows [][]string
	for i, name := range names {
		tdM, swM := mono[i*2], mono[i*2+1]
		tdS, swS := sliced[i*2], sliced[i*2+1]
		rows = append(rows, []string{
			name, fmt.Sprintf("%d", tdS.Slices),
			cell(tdM.Completed, tdM.Cost), cell(tdS.Completed, tdS.Cost), cell(tdS.Completed, tdS.CritCost),
			cell(swM.Completed, swM.Cost), cell(swS.Completed, swS.Cost), cell(swS.Completed, swS.CritCost),
		})
	}
	fmt.Fprintln(w, "Sliced: site-sliced vs monolithic cost (k=5, θ=1). \"total\" sums all")
	fmt.Fprintln(w, "slices (the one-worker cost), \"crit\" is the largest slice (the cost")
	fmt.Fprintln(w, "floor at unlimited workers). DNF = a budget was exhausted.")
	table(w, header, rows)
	return nil
}
