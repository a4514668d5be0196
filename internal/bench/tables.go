package bench

import (
	"fmt"
	"io"
	"strings"

	"swift/internal/hir"
)

// Table1 renders the benchmark characteristics table (paper Table 1):
// classes, methods, code size and lines of code, split into application
// code ("app": the Main and App layers) and the total including the
// utility library that stands in for the JDK. All numbers are computed over
// the 0-CFA-reachable part of each program, as in the paper.
func (s *Suite) Table1(w io.Writer) error {
	header := []string{"benchmark", "description",
		"classes app", "total", "methods app", "total",
		"code(KB) app", "total", "KLOC app", "total"}
	var rows [][]string
	for _, p := range s.Profiles {
		b, err := s.Build(p.Name)
		if err != nil {
			return err
		}
		prog, err := s.Program(p.Name)
		if err != nil {
			return err
		}
		appClasses, totClasses := map[string]bool{}, map[string]bool{}
		appMethods, totMethods := 0, 0
		appLines, totLines := 0, 0
		appBytes, totBytes := 0, 0
		for _, m := range b.Pointer.ReachableMethods() {
			app := isAppClass(m.Class.Name)
			totClasses[m.Class.Name] = true
			totMethods++
			lines, bytes := methodSize(prog, m.Class.Name, m.Name)
			totLines += lines
			totBytes += bytes
			if app {
				appClasses[m.Class.Name] = true
				appMethods++
				appLines += lines
				appBytes += bytes
			}
		}
		rows = append(rows, []string{
			p.Name, p.Desc,
			fmt.Sprintf("%d", len(appClasses)), fmt.Sprintf("%d", len(totClasses)),
			fmt.Sprintf("%d", appMethods), fmt.Sprintf("%d", totMethods),
			fmt.Sprintf("%.1f", float64(appBytes)/1024), fmt.Sprintf("%.1f", float64(totBytes)/1024),
			fmt.Sprintf("%.2f", float64(appLines)/1000), fmt.Sprintf("%.2f", float64(totLines)/1000),
		})
	}
	fmt.Fprintln(w, "Table 1: Benchmark characteristics (0-CFA-reachable code).")
	table(w, header, rows)
	return nil
}

// isAppClass splits the generated programs into application and library
// layers: Main and App* are the application; Util*, Dispatch are the
// library standing in for the JDK.
func isAppClass(name string) bool {
	return name == "Main" || strings.HasPrefix(name, "App")
}

// methodSize measures one method's printed source: lines and bytes (the
// "bytecode KB" stand-in).
func methodSize(prog *hir.Program, class, method string) (lines, bytes int) {
	c := prog.Class(class)
	if c == nil {
		return 0, 0
	}
	m := c.Method(method)
	if m == nil {
		return 0, 0
	}
	one := hir.NewProgram()
	oc := hir.NewClass(class, "")
	oc.AddMethod(&hir.Method{Name: m.Name, Params: m.Params, Body: m.Body})
	one.AddClass(oc)
	src := hir.Print(one)
	return strings.Count(src, "\n"), len(src)
}

// Table2Row is one benchmark's outcome under the three engines.
type Table2Row struct {
	Name          string
	TD, BU, Swift *EngineRun
}

// table2Engines is the engine column order of Table 2.
var table2Engines = []string{"td", "bu", "swift"}

// RunTable2 executes the three engines on every benchmark with the paper's
// headline thresholds (k=5, θ=1). The 36 runs are independent, so they run
// on the suite's worker pool; results land in slots indexed by (benchmark,
// engine), which makes the assembled rows — and everything rendered from
// them — identical to a serial sweep. Only scalar outcomes are retained;
// the heavyweight per-run state (path-edge maps, intern tables) is dropped as
// each run finishes so the sweep's memory stays flat.
func (s *Suite) RunTable2(budget Budget) ([]Table2Row, error) {
	names := s.sortedNames()
	runs := make([]*EngineRun, len(names)*len(table2Engines))
	var jobs []func() error
	for i, name := range names {
		for j, engine := range table2Engines {
			slot := i*len(table2Engines) + j
			name, engine := name, engine
			jobs = append(jobs, func() error {
				run, err := s.Run(name, engine, budget, 5, 1)
				if err != nil {
					return err
				}
				run.Result = nil
				runs[slot] = run
				return nil
			})
		}
	}
	if err := s.forEach(jobs); err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(names))
	for i, name := range names {
		rows[i] = Table2Row{
			Name:  name,
			TD:    runs[i*len(table2Engines)+0],
			BU:    runs[i*len(table2Engines)+1],
			Swift: runs[i*len(table2Engines)+2],
		}
		s.Release(name)
	}
	return rows, nil
}

// Table2 renders the cost and summary-count comparison (paper Table 2).
// The time columns show deterministic work-unit cost (see EngineRun.Cost),
// so the table is identical at any parallelism; DNF marks runs that
// exhausted a work budget, the analogue of the paper's timeout/OOM
// entries. A run the wall-clock deadline cut short fails the table
// instead (deadlineErr).
func (s *Suite) Table2(w io.Writer, budget Budget) error {
	rows, err := s.RunTable2(budget)
	if err != nil {
		return err
	}
	header := []string{"benchmark",
		"TD cost", "BU cost", "SWIFT cost", "vs TD", "vs BU",
		"TD summ (td)", "(swift)", "drop",
		"BU summ (bu)", "(swift)", "drop"}
	var out [][]string
	for _, r := range rows {
		tdTime, buTime, swTime := "DNF", "DNF", "DNF"
		if r.TD.Completed {
			tdTime = fmtDur(r.TD.Cost)
		}
		if r.BU.Completed {
			buTime = fmtDur(r.BU.Cost)
		}
		if r.Swift.Completed {
			swTime = fmtDur(r.Swift.Cost)
		}
		tdDrop, buDrop := "-", "-"
		tdCount, buCount := "-", "-"
		if r.TD.Completed {
			tdCount = fmtK(r.TD.TDSummaries)
			if r.TD.TDSummaries > 0 {
				tdDrop = fmt.Sprintf("%d%%", 100-100*r.Swift.TDSummaries/r.TD.TDSummaries)
			}
		}
		if r.BU.Completed {
			buCount = fmtK(r.BU.BUSummaries)
			if r.BU.BUSummaries > 0 {
				buDrop = fmt.Sprintf("%d%%", 100-100*r.Swift.BUSummaries/r.BU.BUSummaries)
			}
		}
		out = append(out, []string{
			r.Name, tdTime, buTime, swTime,
			fmtSpeedup(r.TD.Cost, r.Swift.Cost, r.TD.Completed, r.Swift.Completed),
			fmtSpeedup(r.BU.Cost, r.Swift.Cost, r.BU.Completed, r.Swift.Completed),
			tdCount, fmtK(r.Swift.TDSummaries), tdDrop,
			buCount, fmtK(r.Swift.BUSummaries), buDrop,
		})
	}
	fmt.Fprintln(w, "Table 2: Work cost and number of summaries, SWIFT (k=5, θ=1) vs the")
	fmt.Fprintln(w, "TD and BU baselines. DNF = work budget or deadline exhausted.")
	table(w, header, out)
	return nil
}

// Table3 renders the k-sweep on the avrora stand-in (paper Table 3):
// cost and top-down summary count for k ∈ {2,5,10,50,100,200,500}, θ=1.
// The per-k runs execute concurrently (each on its own pipeline) and are
// assembled in k order.
func (s *Suite) Table3(w io.Writer, budget Budget) error {
	ks := []int{2, 5, 10, 50, 100, 200, 500}
	runs := make([]*EngineRun, len(ks))
	jobs := make([]func() error, len(ks))
	for i, k := range ks {
		i, k := i, k
		jobs[i] = func() error {
			run, err := s.Run("avrora", "swift", budget, k, 1)
			if err != nil {
				return err
			}
			run.Result = nil
			runs[i] = run
			return nil
		}
	}
	if err := s.forEach(jobs); err != nil {
		return err
	}
	s.Release("avrora")
	header := []string{"k", "cost", "TD summaries"}
	var rows [][]string
	for i, k := range ks {
		t := "DNF"
		if runs[i].Completed {
			t = fmtDur(runs[i].Cost)
		}
		rows = append(rows, []string{fmt.Sprintf("%d", k), t, fmtK(runs[i].TDSummaries)})
	}
	fmt.Fprintln(w, "Table 3: Effect of varying k on the avrora stand-in (θ=1).")
	table(w, header, rows)
	return nil
}

// Table4 renders the θ comparison (paper Table 4): θ=1 vs θ=2 with k=5 on
// the ten benchmarks from toba-s up (the paper's selection). Runs execute
// concurrently, slotted by (benchmark, θ).
func (s *Suite) Table4(w io.Writer, budget Budget) error {
	var names []string
	for _, name := range s.sortedNames() {
		if name == "jpat-p" || name == "elevator" {
			continue
		}
		names = append(names, name)
	}
	thetas := []int{1, 2}
	runs := make([]*EngineRun, len(names)*len(thetas))
	var jobs []func() error
	for i, name := range names {
		for j, theta := range thetas {
			slot := i*len(thetas) + j
			name, theta := name, theta
			jobs = append(jobs, func() error {
				run, err := s.Run(name, "swift", budget, 5, theta)
				if err != nil {
					return err
				}
				run.Result = nil
				runs[slot] = run
				return nil
			})
		}
	}
	if err := s.forEach(jobs); err != nil {
		return err
	}
	header := []string{"benchmark", "cost θ=1", "cost θ=2", "TD summ θ=1", "θ=2"}
	var rows [][]string
	for i, name := range names {
		r1, r2 := runs[i*len(thetas)], runs[i*len(thetas)+1]
		s.Release(name)
		t1, t2 := "DNF", "DNF"
		if r1.Completed {
			t1 = fmtDur(r1.Cost)
		}
		if r2.Completed {
			t2 = fmtDur(r2.Cost)
		}
		rows = append(rows, []string{name, t1, t2, fmtK(r1.TDSummaries), fmtK(r2.TDSummaries)})
	}
	fmt.Fprintln(w, "Table 4: Effect of varying θ with k=5.")
	table(w, header, rows)
	return nil
}

// Figure5 renders the per-method top-down summary counts of TD and SWIFT
// for the three benchmarks the paper plots (toba-s, javasrc-p, antlr):
// methods sorted by descending count, one series per engine, printed both
// as a data listing and an ASCII log-scale sketch. The six runs execute
// concurrently; series are extracted during ordered assembly.
func (s *Suite) Figure5(w io.Writer, budget Budget) error {
	names := []string{"toba-s", "javasrc-p", "antlr"}
	engines := []string{"td", "swift"}
	runs := make([]*EngineRun, len(names)*len(engines))
	var jobs []func() error
	for i, name := range names {
		for j, engine := range engines {
			slot := i*len(engines) + j
			name, engine := name, engine
			jobs = append(jobs, func() error {
				run, err := s.Run(name, engine, budget, 5, 1)
				if err != nil {
					return err
				}
				runs[slot] = run
				return nil
			})
		}
	}
	if err := s.forEach(jobs); err != nil {
		return err
	}
	for i, name := range names {
		td, sw := runs[i*len(engines)], runs[i*len(engines)+1]
		fmt.Fprintf(w, "Figure 5 (%s): per-method top-down summaries, methods sorted by count.\n", name)
		if !td.Completed || !sw.Completed {
			fmt.Fprintln(w, "  (a run did not finish; series omitted)")
			continue
		}
		tdSeries := perMethodCounts(td)
		swSeries := perMethodCounts(sw)
		td.Result, sw.Result = nil, nil
		s.Release(name)
		writeSeries(w, "TD   ", tdSeries)
		writeSeries(w, "SWIFT", swSeries)
		sketchLog(w, tdSeries, swSeries)
	}
	return nil
}

// perMethodCounts extracts the per-procedure summary counts of a run,
// sorted descending (Figure 5's x-axis).
func perMethodCounts(run *EngineRun) []int {
	var counts []int
	for proc := range run.Result.TD.Summaries {
		counts = append(counts, run.Result.TD.SummaryCount(proc))
	}
	return descByCount(counts)
}

// writeSeries prints a compact series listing (first methods, then every
// tenth).
func writeSeries(w io.Writer, label string, series []int) {
	fmt.Fprintf(w, "  %s:", label)
	for i, v := range series {
		if i < 8 || i%10 == 0 {
			fmt.Fprintf(w, " %d:%d", i, v)
		}
	}
	fmt.Fprintln(w)
}

// sketchLog draws a small ASCII chart with a log-scale y-axis, mirroring
// the figure's visual comparison of the two curves.
func sketchLog(w io.Writer, td, sw []int) {
	const width = 64
	n := len(td)
	if len(sw) > n {
		n = len(sw)
	}
	if n == 0 {
		return
	}
	maxV := 1
	for _, v := range td {
		if v > maxV {
			maxV = v
		}
	}
	levels := 0
	for m := maxV; m > 0; m /= 10 {
		levels++
	}
	at := func(series []int, x int) int {
		idx := x * n / width
		if idx >= len(series) {
			return 0
		}
		return series[idx]
	}
	for lvl := levels; lvl >= 1; lvl-- {
		lo := ipow10(lvl - 1)
		fmt.Fprintf(w, "  %7d |", lo)
		for x := 0; x < width; x++ {
			t := at(td, x) >= lo
			s := at(sw, x) >= lo
			switch {
			case t && s:
				fmt.Fprint(w, "*")
			case t:
				fmt.Fprint(w, "t")
			case s:
				fmt.Fprint(w, "s")
			default:
				fmt.Fprint(w, " ")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "          +%s  (t=TD only, s=SWIFT only, *=both)\n", strings.Repeat("-", width))
}

func ipow10(n int) int {
	out := 1
	for i := 0; i < n; i++ {
		out *= 10
	}
	return out
}
