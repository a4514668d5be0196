// Command swiftbench regenerates the paper's evaluation tables and figure
// on the synthetic benchmark suite:
//
//	swiftbench -table 1      benchmark characteristics (paper Table 1)
//	swiftbench -table 2      TD vs BU vs SWIFT costs and summaries (Table 2)
//	swiftbench -table 3      k sweep on the avrora stand-in (Table 3)
//	swiftbench -table 4      θ=1 vs θ=2 (Table 4)
//	swiftbench -figure 5     per-method summary distributions (Figure 5)
//	swiftbench -slices       site-sliced vs monolithic costs (sliced table)
//	swiftbench -all          everything
//
// -quick uses reduced budgets for a fast smoke run. -parallel bounds how
// many engine runs execute concurrently (default GOMAXPROCS); tables are
// byte-identical at any setting — only wall-clock changes, reported per run
// and in total on stderr. -sliceworkers bounds how many slices a single
// -slices run analyzes concurrently (default GOMAXPROCS); the sliced table
// too is byte-identical at any setting.
// -cpuprofile/-memprofile write pprof profiles; every engine run is labeled
// with its suite, engine and (when sliced) slice, so `go tool pprof -tags`
// attributes samples. -faultevery N (with -faultseed) arms the chaos mode,
// injecting roughly one seeded client fault per N operations into every
// run; aborted runs render as DNF cells.
//
//	swiftbench -warmbench -storedir DIR   cold-vs-warm tables-store benchmark
//
// -warmbench runs the hybrid engine twice over the suite against the
// persistent tables store in -storedir (memory-only when empty) and
// verifies the warm pass restores every stored tables snapshot and
// reproduces the cold pass's result tables byte for byte. Rerunning
// against the same directory starts warm from disk — the CI smoke does
// exactly that.
//
//	swiftbench -querybench [-querybenchmark NAME] [-queries N] [-queryseed S] [-querykinds K,K]
//
// -querybench runs the demand-vs-exhaustive experiment: one exhaustive run
// per benchmark and engine, then a seeded stream of randomized point
// queries answered through the demand-driven query engine with a fresh
// slice memo, reporting the stream's aggregate demand cost, slice-memo hit
// rate and the break-even query count against the exhaustive cost. Every
// isError answer is checked against the exhaustive error report on the
// fly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"swift/internal/bench"
	"swift/internal/query"
)

// splitNonEmpty splits a comma-separated list, dropping empty items, so an
// empty flag value means "default" rather than one empty kind.
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the whole CLI behind an exit code instead of os.Exit, so
// every error path unwinds through the deferred cleanups (profile flush,
// file close). Calling os.Exit from main's depths used to truncate
// -cpuprofile output whenever a later step failed.
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swiftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tableN      = fs.Int("table", 0, "render table 1–4")
		figureN     = fs.Int("figure", 0, "render figure 5")
		all         = fs.Bool("all", false, "render every table and figure")
		quick       = fs.Bool("quick", false, "use reduced budgets (smoke run)")
		taint       = fs.Bool("taint", false, "run the kill/gen taint client generality experiment")
		verify      = fs.Bool("verify", false, "assert the paper's completion pattern holds")
		parallel    = fs.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent engine runs (1 = serial)")
		slices      = fs.Bool("slices", false, "render the site-sliced vs monolithic cost table")
		sliceWkrs   = fs.Int("sliceworkers", runtime.GOMAXPROCS(0), "max concurrent slices per -slices run (1 = serial)")
		warmbench   = fs.Bool("warmbench", false, "run the cold-vs-warm tables-store benchmark")
		querybench  = fs.Bool("querybench", false, "run the demand-vs-exhaustive point-query benchmark")
		queryN      = fs.Int("queries", 2000, "number of seeded queries per -querybench stream")
		querySeed   = fs.Int64("queryseed", 1, "seed of the -querybench query stream")
		queryKinds  = fs.String("querykinds", "", "comma-separated query kinds for -querybench (default: all of canReach,statesAt,isError)")
		queryBench  = fs.String("querybenchmark", "", "restrict -querybench to one benchmark (default: full suite)")
		soak        = fs.Bool("soak", false, "run the swiftd concurrent-load soak smoke (coalescing, shedding, cancellation, drain)")
		soakClients = fs.Int("soakclients", 0, "concurrent clients in the -soak coalesce wave (0 = default)")
		storedir    = fs.String("storedir", "", "persistent store directory for -warmbench (empty = memory-only)")
		faultevery  = fs.Int64("faultevery", 0, "chaos mode: inject roughly one seeded client fault per N operations into every run (0 = off)")
		faultseed   = fs.Uint64("faultseed", 1, "seed for -faultevery's fault schedule")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Flag validation happens before any work: a request for a table or
	// figure that does not exist is an error (exit 2 with usage), not a
	// silent no-op run that exits 0 having rendered nothing.
	if *tableN < 0 || *tableN > 4 {
		fmt.Fprintf(stderr, "swiftbench: -table %d does not exist (tables are 1–4)\n", *tableN)
		fs.Usage()
		return 2
	}
	if *figureN != 0 && *figureN != 5 {
		fmt.Fprintf(stderr, "swiftbench: -figure %d does not exist (the only figure is 5)\n", *figureN)
		fs.Usage()
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "swiftbench: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *storedir != "" && !*warmbench {
		fmt.Fprintf(stderr, "swiftbench: -storedir is only meaningful with -warmbench\n")
		fs.Usage()
		return 2
	}
	if *soakClients != 0 && !*soak {
		fmt.Fprintf(stderr, "swiftbench: -soakclients is only meaningful with -soak\n")
		fs.Usage()
		return 2
	}
	if *soakClients != 0 && *soakClients < 2 {
		fmt.Fprintf(stderr, "swiftbench: -soakclients %d must be at least 2\n", *soakClients)
		fs.Usage()
		return 2
	}
	// The query flags only mean something under -querybench: silently
	// ignoring them would run a different experiment than the user asked
	// for. Explicitly-set flags are detected via Visit, so passing the
	// default value by hand is still an error.
	querySet := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { querySet[f.Name] = true })
	for _, name := range []string{"queries", "queryseed", "querykinds", "querybenchmark"} {
		if querySet[name] && !*querybench {
			fmt.Fprintf(stderr, "swiftbench: -%s is only meaningful with -querybench\n", name)
			fs.Usage()
			return 2
		}
	}
	if *queryN < 1 {
		fmt.Fprintf(stderr, "swiftbench: -queries %d must be at least 1\n", *queryN)
		fs.Usage()
		return 2
	}
	kinds, err := query.ParseKinds(splitNonEmpty(*queryKinds))
	if err != nil {
		fmt.Fprintf(stderr, "swiftbench: -querykinds: %v\n", err)
		fs.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "swiftbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "swiftbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	budget := bench.DefaultBudget()
	if *quick {
		budget = bench.QuickBudget()
	}
	budget.FaultEvery = *faultevery
	budget.FaultSeed = *faultseed
	s := bench.NewSuite()
	s.Parallel = *parallel
	s.Telemetry = stderr

	type step struct {
		name    string
		enabled bool
		fn      func() error
	}
	steps := []step{
		{"table 1", *all || *tableN == 1, func() error { return s.Table1(stdout) }},
		{"table 2", *all || *tableN == 2, func() error { return s.Table2(stdout, budget) }},
		{"table 3", *all || *tableN == 3, func() error { return s.Table3(stdout, budget) }},
		{"table 4", *all || *tableN == 4, func() error { return s.Table4(stdout, budget) }},
		{"figure 5", *all || *figureN == 5, func() error { return s.Figure5(stdout, budget) }},
		{"slices", *all || *slices, func() error { return s.SlicedTable(stdout, budget, *sliceWkrs) }},
		{"taint", *all || *taint, func() error { return s.TaintTable(stdout, budget) }},
		{"verify", *verify, func() error { return s.Verify(stdout, budget) }},
		{"warmbench", *warmbench, func() error { return s.WarmTable(stdout, budget, *storedir) }},
		{"querybench", *querybench, func() error {
			return s.QueryBenchTable(stdout, budget, *queryBench, *queryN, *querySeed, kinds, *sliceWkrs)
		}},
		{"soak", *soak, func() error {
			soakCfg := bench.DefaultSoakConfig()
			if *quick {
				soakCfg = bench.QuickSoakConfig()
			}
			if *soakClients != 0 {
				soakCfg.Clients = *soakClients
			}
			return bench.Soak(stdout, soakCfg)
		}},
	}
	selected := false
	for _, st := range steps {
		selected = selected || st.enabled
	}
	if !selected {
		fs.Usage()
		return 2
	}

	start := time.Now()
	for _, st := range steps {
		if !st.enabled {
			continue
		}
		stepStart := time.Now()
		if err := st.fn(); err != nil {
			fmt.Fprintf(stderr, "swiftbench: %s: %v\n", st.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "swiftbench: %s wall-clock %s (parallel=%d)\n",
			st.name, time.Since(stepStart).Round(time.Millisecond), *parallel)
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stderr, "swiftbench: total wall-clock %s (parallel=%d)\n",
		time.Since(start).Round(time.Millisecond), *parallel)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "swiftbench: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "swiftbench: %v\n", err)
			return 1
		}
	}
	return 0
}
