package bench

// The demand-vs-exhaustive experiment behind `swiftbench -querybench`: for
// each benchmark and engine, run the engine exhaustively once, then answer
// a seeded stream of randomized point queries through the demand-driven
// query engine (internal/query) with a fresh slice memo, tracking the
// aggregate demand cost as the stream progresses. The headline number is
// the break-even query count: how many uniformly random queries it takes
// before the accumulated demand work (each distinct site's slice runs
// once, memo hits are free) reaches the cost of the one exhaustive run. A
// "-" means the stream never got there — every slice the stream touched
// ran and their total still undercuts the exhaustive run, so demand wins
// at any query count.
//
// Cost cells are deterministic work units like every other table (the
// query stream is a pure function of program and seed, and memo hits
// depend only on the stream); wall clock goes to Telemetry. Every row is
// byte-identical at any worker count.
//
// Every isError answer is checked against the exhaustive run's error
// report on the fly (when that run completed): a divergence fails the
// whole experiment rather than rendering a wrong table.

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/query"
)

// queryEngines is every engine the query table exercises.
var queryEngines = []string{"td", "bu", "swift"}

// QueryBenchRun is the outcome of the query stream for one benchmark and
// engine.
type QueryBenchRun struct {
	Benchmark string
	Engine    string
	Sites     int
	Queries   int
	// Exhaustive is the one full run's deterministic cost; ExhaustiveOK is
	// false when it blew a budget (DNF).
	Exhaustive   time.Duration
	ExhaustiveOK bool
	// Demand is the stream's total demand cost (the sum of the slice runs
	// the memo missed); DemandOK is false when a slice run blew a budget.
	Demand   time.Duration
	DemandOK bool
	// Hits/Misses are the stream's slice-memo counters; BreakEven is the
	// 1-based index of the first query at which cumulative demand work
	// reached the exhaustive cost (0 = never, demand always cheaper).
	Hits      int64
	Misses    int64
	BreakEven int
}

// HitRate renders the stream's slice-memo hit rate in percent.
func (r *QueryBenchRun) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(total)
}

// queryBenchOne runs one benchmark × engine cell: the exhaustive run, then
// the seeded query stream against it, each on its own fresh pipeline (see
// RunConfig for why runs never share one).
func (s *Suite) queryBenchOne(name, engine string, cfg core.Config, seed int64,
	kinds []query.Kind, n int) (*QueryBenchRun, error) {
	prog, err := s.Program(name)
	if err != nil {
		return nil, err
	}
	run := &QueryBenchRun{Benchmark: name, Engine: engine}

	// Exhaustive pass. The pipeline is kept alive just long enough to
	// render the error report the stream's isError answers are checked
	// against.
	exStart := time.Now()
	bEx, err := driver.FromHIR(prog)
	if err != nil {
		return nil, err
	}
	var mono *driver.Result
	pprof.Do(context.Background(),
		pprof.Labels("suite", name, "engine", engine, "mode", "exhaustive"),
		func(context.Context) { mono, err = bEx.Run(engine, cfg) })
	if err != nil {
		return nil, err
	}
	if err := deadlineErr(name, engine, mono.Err); err != nil {
		return nil, err
	}
	run.Exhaustive = time.Duration(mono.WorkUnits()) * costPerWorkUnit
	run.ExhaustiveOK = mono.Completed()
	var errSites map[string]bool
	if run.ExhaustiveOK {
		report, err := bEx.ErrorReport(mono)
		if err != nil {
			return nil, err
		}
		errSites = map[string]bool{}
		for _, site := range report {
			errSites[site] = true
		}
	}
	s.telemetry("querybench %-10s %-11s exhaustive wall=%-8s cost=%s\n",
		name, engine, fmtDur(time.Since(exStart)), fmtDur(run.Exhaustive))
	mono, bEx = nil, nil

	// Demand pass: a fresh pipeline and memo, one query at a time. Slice
	// runs label their profiles per slice; ProfileLabel threads the suite.
	cfg.ProfileLabel = name
	b, err := driver.FromHIR(prog)
	if err != nil {
		return nil, err
	}
	memo := driver.NewSliceMemo(0)
	e, err := query.New(b, engine, cfg, memo)
	if err != nil {
		return nil, err
	}
	run.Sites = len(e.TrackedSites())
	qs, err := query.Generate(b, kinds, seed, n)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	work := 0
	run.DemandOK = true
	for i, q := range qs {
		a, stats, err := e.Answer(q)
		if err != nil {
			// A slice that exhausts a budget is a DNF cell, like every
			// exhaustive DNF in the other tables; nothing was memoized, so
			// the stream cannot make progress and stops here.
			run.DemandOK = false
			s.telemetry("querybench %-10s %-11s DNF at query %d: %v\n", name, engine, i+1, err)
			break
		}
		work += stats.Work
		if run.BreakEven == 0 && run.ExhaustiveOK &&
			time.Duration(work)*costPerWorkUnit >= run.Exhaustive {
			run.BreakEven = i + 1
		}
		if q.Kind == query.KindIsError && errSites != nil && a.Reachable != errSites[q.Site] {
			return nil, fmt.Errorf("bench: %s/%s: demand isError(%s) = %v, exhaustive report says %v",
				name, engine, q.Site, a.Reachable, errSites[q.Site])
		}
	}
	run.Queries = len(qs)
	run.Demand = time.Duration(work) * costPerWorkUnit
	ms := memo.Stats()
	run.Hits, run.Misses = ms.Hits, ms.Misses
	s.telemetry("querybench %-10s %-11s queries=%d sites=%d wall=%-8s demand=%s hit%%=%.1f\n",
		name, engine, run.Queries, run.Sites, fmtDur(time.Since(start)),
		fmtDur(run.Demand), run.HitRate())
	return run, nil
}

// QueryBench runs the demand-vs-exhaustive experiment for one benchmark
// across all three engines.
func (s *Suite) QueryBench(name string, cfg core.Config, queries int, seed int64,
	kinds []query.Kind) ([]*QueryBenchRun, error) {
	runs := make([]*QueryBenchRun, 0, len(queryEngines))
	for _, engine := range queryEngines {
		run, err := s.queryBenchOne(name, engine, cfg, seed, kinds, queries)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// QueryBenchTable renders the demand-vs-exhaustive table with the paper's
// headline thresholds (k=5, θ=1). An empty benchmark name sweeps the whole
// suite. Cells run serially — each demand stream already fans its memo
// misses out over sliceWorkers (zero = GOMAXPROCS).
func (s *Suite) QueryBenchTable(w io.Writer, budget Budget, benchmark string,
	queries int, seed int64, kinds []query.Kind, sliceWorkers int) error {
	names := s.sortedNames()
	if benchmark != "" {
		names = []string{benchmark}
	}
	cfg := budget.config(5, 1)
	cfg.SliceWorkers = sliceWorkers
	var all []*QueryBenchRun
	for _, name := range names {
		runs, err := s.QueryBench(name, cfg, queries, seed, kinds)
		if err != nil {
			return err
		}
		all = append(all, runs...)
		s.Release(name)
	}
	cell := func(ok bool, d time.Duration) string {
		if !ok {
			return "DNF"
		}
		return fmtDur(d)
	}
	header := []string{"benchmark", "engine", "sites", "queries",
		"exhaustive", "demand", "hit%", "break-even"}
	var rows [][]string
	for _, r := range all {
		breakEven := "-"
		if r.BreakEven > 0 {
			breakEven = fmt.Sprintf("%d", r.BreakEven)
		}
		rows = append(rows, []string{
			r.Benchmark, r.Engine,
			fmt.Sprintf("%d", r.Sites), fmt.Sprintf("%d", r.Queries),
			cell(r.ExhaustiveOK, r.Exhaustive), cell(r.DemandOK, r.Demand),
			fmt.Sprintf("%.1f", r.HitRate()), breakEven,
		})
	}
	fmt.Fprintln(w, "Querybench: demand-driven point queries vs one exhaustive run (k=5, θ=1).")
	fmt.Fprintln(w, "\"demand\" is the seeded query stream's total cost (memoized slices are")
	fmt.Fprintln(w, "free), \"break-even\" the first query at which cumulative demand cost")
	fmt.Fprintln(w, "reached the exhaustive cost (\"-\" = never: demand wins at any query")
	fmt.Fprintln(w, "count). DNF = a budget was exhausted.")
	table(w, header, rows)
	return nil
}
