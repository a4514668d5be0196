// Package bench is the experiment harness of the reproduction: it runs the
// engines over the synthetic benchmark suite and renders every table and
// figure of the paper's evaluation section (Tables 1–4 and Figure 5).
//
// Runs are independent — each gets its own freshly built pipeline — so the
// harness executes them on a bounded worker pool (Suite.Parallel) and
// assembles results in deterministic profile order: every table and figure
// renders byte-identically whatever the parallelism. Table cells therefore
// never contain wall-clock time; they show the engines' deterministic work
// counters scaled to a nominal cost duration (see EngineRun.Cost), while
// real wall-clock goes to the Telemetry stream.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/hir"
)

// Budget models the paper's testbed limits (24 h timeout, 16 GB memory).
// An engine that exceeds a budget "did not finish", like the paper's
// timeout/OOM entries. The defaults are sized so the expected shape emerges
// in seconds per benchmark: the hybrid finishes everywhere, the top-down
// baseline fails on the largest programs, and the unpruned bottom-up
// baseline fails on all but the smallest.
type Budget struct {
	PathEdges int
	Relations int
	Timeout   time.Duration

	// NoSparse and NoStructIndex forward the sparse-scheduler ablation
	// knobs: dense FIFO fact draining, or sparse draining without
	// loop-depth priority (plain RPO batching). Result tables are
	// identical either way; the knobs exist so the experiment harness can
	// time the ablations.
	NoSparse      bool
	NoStructIndex bool

	// FaultEvery, when positive, arms a seeded fault-injection plan on
	// every engine run (roughly one injected fault per FaultEvery client
	// operations, drawn from FaultSeed): a chaos-smoke mode proving the
	// harness renders tables even when runs crash-degrade or abort. Each
	// run gets its own plan — core.FaultPlan carries a per-run operation
	// counter and must not be shared across concurrent runs.
	FaultEvery int64
	FaultSeed  uint64
}

// DefaultBudget returns the budget used for the headline tables. The
// solvers are fully deterministic, so the exact thresholds reproduce the
// same completion pattern on every run: the top-down baseline's path-edge
// count exceeds the budget on exactly the three largest benchmarks, and
// the unpruned bottom-up baseline's relation count exceeds it on all but
// the two smallest.
func DefaultBudget() Budget {
	return Budget{
		PathEdges: 8_000_000,
		Relations: 100_000,
		Timeout:   300 * time.Second,
	}
}

// QuickBudget is a scaled-down budget for smoke runs and unit tests.
func QuickBudget() Budget {
	return Budget{
		PathEdges: 300_000,
		Relations: 60_000,
		Timeout:   30 * time.Second,
	}
}

// config builds an engine configuration from a budget and thresholds.
func (b Budget) config(k, theta int) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = k
	cfg.Theta = theta
	cfg.MaxPathEdges = b.PathEdges
	cfg.MaxRelations = b.Relations
	cfg.Timeout = b.Timeout
	cfg.NoSparse = b.NoSparse
	cfg.NoStructIndex = b.NoStructIndex
	if b.FaultEvery > 0 {
		cfg.Fault = core.SeededFaultPlan(b.FaultSeed, b.FaultEvery)
	}
	return cfg
}

// Suite caches generated benchmark programs (and one inspection pipeline
// per benchmark) so several experiments can share them. The cache is safe
// for concurrent use: lookups are single-flight per benchmark, so parallel
// runs of the same benchmark generate it once.
type Suite struct {
	Profiles []benchprog.Profile

	// Parallel bounds how many engine runs execute concurrently in the
	// experiment sweeps; zero or negative means GOMAXPROCS.
	Parallel int

	// Telemetry, when non-nil, receives one line of real wall-clock timing
	// per engine run. It is kept separate from the table writers so table
	// output stays byte-identical across Parallel settings.
	Telemetry io.Writer

	mu      sync.Mutex
	entries map[string]*suiteEntry
	telMu   sync.Mutex
}

// suiteEntry single-flights one benchmark's program generation and
// inspection build.
type suiteEntry struct {
	profile benchprog.Profile

	progOnce sync.Once
	prog     *hir.Program
	progErr  error

	buildOnce sync.Once
	build     *driver.Build
	buildErr  error
}

// NewSuite returns a suite over the full 12-benchmark set.
func NewSuite() *Suite {
	return &Suite{
		Profiles: benchprog.Profiles(),
		entries:  map[string]*suiteEntry{},
	}
}

// entry returns the benchmark's cache slot, creating it if needed.
func (s *Suite) entry(name string) (*suiteEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[name]; ok {
		return e, nil
	}
	p, ok := benchprog.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	e := &suiteEntry{profile: p}
	s.entries[name] = e
	return e, nil
}

// Program returns the benchmark's generated HIR, generating and caching it
// on first use. The returned program is read-only shared state: pipeline
// construction never mutates it, so concurrent builds may share it.
func (s *Suite) Program(name string) (*hir.Program, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	e.progOnce.Do(func() {
		e.prog, e.progErr = benchprog.Generate(e.profile)
	})
	return e.prog, e.progErr
}

// Build returns the benchmark's cached inspection pipeline (used by the
// static-characteristics table and by experiments that only read lowered
// code), generating it on first use. Engine runs do NOT use this pipeline —
// see RunConfig.
func (s *Suite) Build(name string) (*driver.Build, error) {
	prog, err := s.Program(name)
	if err != nil {
		return nil, err
	}
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	e.buildOnce.Do(func() {
		e.build, e.buildErr = driver.FromHIR(prog)
	})
	return e.build, e.buildErr
}

// Release drops a benchmark's cached program and inspection pipeline.
// Experiments that are done with a benchmark release it to keep the
// whole-suite memory footprint flat. Safe to call concurrently; runs that
// already hold the program keep it alive until they finish.
func (s *Suite) Release(name string) {
	s.mu.Lock()
	delete(s.entries, name)
	s.mu.Unlock()
}

// telemetry writes one formatted line to the Telemetry stream, if any.
func (s *Suite) telemetry(format string, args ...any) {
	if s.Telemetry == nil {
		return
	}
	s.telMu.Lock()
	defer s.telMu.Unlock()
	fmt.Fprintf(s.Telemetry, format, args...)
}

// costPerWorkUnit scales the engines' deterministic work counters to the
// nominal durations shown in tables: 1 µs per step or materialized object.
const costPerWorkUnit = time.Microsecond

// EngineRun is the outcome of one engine on one benchmark.
type EngineRun struct {
	Benchmark string
	Engine    string
	// Elapsed is the run's real wall-clock time. It varies with load,
	// hardware and parallelism, so it is reported through Suite.Telemetry
	// and never rendered into tables.
	Elapsed time.Duration
	// Work is the run's deterministic machine-independent cost
	// (Result.WorkUnits): identical across repeated runs and across
	// parallelism settings.
	Work int
	// Cost is Work scaled by costPerWorkUnit — the "time" tables print.
	Cost        time.Duration
	Completed   bool
	TDSummaries int
	BUSummaries int
	Result      *driver.Result
}

// RunConfig executes one engine on one benchmark with an explicit
// configuration. Every run gets a freshly built pipeline: analysis runs
// grow a pipeline's interning tables, and interning history influences how
// the pruning operator breaks ranking ties, so sharing a pipeline across
// runs would make results depend on run order. Fresh pipelines make every
// run self-contained, which is also what lets independent runs execute
// concurrently and still produce output identical to a serial sweep.
func (s *Suite) RunConfig(name, engine string, cfg core.Config) (*EngineRun, error) {
	prog, err := s.Program(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := driver.FromHIR(prog)
	if err != nil {
		return nil, err
	}
	// Label the run for CPU profiles, so swiftbench -cpuprofile attributes
	// samples per benchmark and engine (sliced runs additionally label each
	// slice; see core.RunSliced).
	var res *driver.Result
	pprof.Do(context.Background(),
		pprof.Labels("suite", name, "engine", engine),
		func(context.Context) { res, err = b.Run(engine, cfg) })
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	run := &EngineRun{
		Benchmark:   name,
		Engine:      engine,
		Elapsed:     res.Elapsed,
		Work:        res.WorkUnits(),
		Cost:        time.Duration(res.WorkUnits()) * costPerWorkUnit,
		Completed:   res.Completed(),
		TDSummaries: res.TDSummaryTotal(),
		BUSummaries: res.BUSummaryTotal(),
		Result:      res,
	}
	s.telemetry("run %-10s %-6s k=%-3d θ=%-3d wall=%-8s (build+run) cost=%s\n",
		name, engine, cfg.K, cfg.Theta, fmtDur(wall), fmtDur(run.Cost))
	if res.TD != nil && res.TD.Sparse.Enabled {
		// Structure telemetry of the sparse scheduler. pops compares the
		// priority worklist's node activations against the dense solver's
		// per-fact pops (== Steps at completion).
		sp := res.TD.Sparse
		s.telemetry("  struct %-10s %-6s regions=%d depth=%d pops=%d/%d stale=%d\n",
			name, engine, sp.Regions, sp.MaxDepth, sp.Pops, res.TD.Steps, sp.StalePops)
	}
	return run, nil
}

// Run executes one engine on one benchmark under a budget with the given
// thresholds.
func (s *Suite) Run(name, engine string, budget Budget, k, theta int) (*EngineRun, error) {
	return s.RunConfig(name, engine, budget.config(k, theta))
}

// ---- shared rendering helpers ----

// fmtDur renders a duration in the paper's style (1m53s, 41s, 0.9s).
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		m := int(d.Minutes())
		s := int(d.Seconds()) - 60*m
		return fmt.Sprintf("%dm%02ds", m, s)
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

// fmtK renders a count in thousands like the paper's tables ("6.5k").
func fmtK(n int) string {
	switch {
	case n >= 100_000:
		return fmt.Sprintf("%dk", n/1000)
	case n >= 1000:
		return fmt.Sprintf("%.1fk", float64(n)/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// fmtSpeedup renders a speedup factor ("24X", "0.5X", "-").
func fmtSpeedup(base, other time.Duration, baseOK, otherOK bool) string {
	if !baseOK || !otherOK || other <= 0 {
		return "-"
	}
	f := float64(base) / float64(other)
	if f >= 10 {
		return fmt.Sprintf("%.0fX", f)
	}
	return fmt.Sprintf("%.1fX", f)
}

// table writes an aligned text table.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	total := len(header) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range rows {
		line(r)
	}
}

// sortedNames returns the suite's benchmark names in Table 1 order.
func (s *Suite) sortedNames() []string {
	names := make([]string, len(s.Profiles))
	for i, p := range s.Profiles {
		names[i] = p.Name
	}
	return names
}

// descByCount sorts counts descending (Figure 5's x-axis ordering).
func descByCount(counts []int) []int {
	out := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
