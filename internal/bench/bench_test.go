package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"swift/internal/core"
)

func TestTable1Renders(t *testing.T) {
	s := NewSuite()
	var b strings.Builder
	if err := s.Table1(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"jpat-p", "sablecc-j", "classes app", "KLOC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
	// 12 benchmark rows plus header material.
	if rows := strings.Count(out, "\n"); rows < 14 {
		t.Errorf("Table 1 has %d lines", rows)
	}
}

func TestSuiteRunAndCaching(t *testing.T) {
	s := NewSuite()
	b1, err := s.Build("jpat-p")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := s.Build("jpat-p")
	if b1 != b2 {
		t.Error("Build not cached")
	}
	if _, err := s.Build("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	run, err := s.Run("jpat-p", "swift", QuickBudget(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Completed || run.TDSummaries <= 0 {
		t.Errorf("run = %+v", run)
	}
}

// TestDeadlineAbortIsAnError pins that a run cut short by the wall-clock
// Timeout fails with an error wrapping core.ErrDeadline, monolithic and
// sliced, instead of coming back as a DNF a table would render like a
// work-budget abort.
func TestDeadlineAbortIsAnError(t *testing.T) {
	s := NewSuite()
	budget := QuickBudget()
	budget.Timeout = time.Nanosecond
	for _, engine := range []string{"td", "swift"} {
		if run, err := s.Run("toba-s", engine, budget, 5, 1); !errors.Is(err, core.ErrDeadline) {
			t.Errorf("%s: Run = %+v, %v; want an ErrDeadline error", engine, run, err)
		}
		if run, err := s.RunSlicedConfig("toba-s", engine, budget.config(5, 1)); !errors.Is(err, core.ErrDeadline) {
			t.Errorf("%s: RunSlicedConfig = %+v, %v; want an ErrDeadline error", engine, run, err)
		}
	}
}

func TestSmallBenchmarksShapeQuick(t *testing.T) {
	// On the two smallest benchmarks every engine completes under the
	// quick budget — the top of Table 2's completion pattern.
	s := NewSuite()
	for _, name := range []string{"jpat-p", "elevator"} {
		for _, engine := range []string{"td", "bu", "swift"} {
			run, err := s.Run(name, engine, QuickBudget(), 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !run.Completed {
				t.Errorf("%s/%s did not complete under quick budget", name, engine)
			}
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := fmtDur(90 * time.Second); got != "1m30s" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(1500 * time.Millisecond); got != "1.5s" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(12 * time.Millisecond); got != "12ms" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtK(6500); got != "6.5k" {
		t.Errorf("fmtK = %q", got)
	}
	if got := fmtK(2260000); got != "2260k" {
		t.Errorf("fmtK = %q", got)
	}
	if got := fmtK(82); got != "82" {
		t.Errorf("fmtK = %q", got)
	}
	if got := fmtSpeedup(10*time.Second, time.Second, true, true); got != "10X" {
		t.Errorf("fmtSpeedup = %q", got)
	}
	if got := fmtSpeedup(time.Second, 2*time.Second, true, true); got != "0.5X" {
		t.Errorf("fmtSpeedup = %q", got)
	}
	if got := fmtSpeedup(time.Second, time.Second, false, true); got != "-" {
		t.Errorf("fmtSpeedup DNF = %q", got)
	}
	if got := descByCount([]int{1, 5, 3}); got[0] != 5 || got[2] != 1 {
		t.Errorf("descByCount = %v", got)
	}
}

func TestTableRenderer(t *testing.T) {
	var b strings.Builder
	table(&b, []string{"a", "bb"}, [][]string{{"xxx", "y"}, {"z", "wwww"}})
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing rule: %q", lines[1])
	}
}

// TestFaultBudgetChaosTable smokes the chaos mode: with a seeded fault
// plan armed on every run, Table 2 must still render — runs that abort
// become DNF cells instead of failing the experiment.
func TestFaultBudgetChaosTable(t *testing.T) {
	s := smallSuite(2)
	budget := QuickBudget()
	budget.FaultEvery = 5000
	budget.FaultSeed = 7
	var b strings.Builder
	if err := s.Table2(&b, budget); err != nil {
		t.Fatalf("chaos table: %v", err)
	}
	if !strings.Contains(b.String(), "jpat-p") {
		t.Errorf("unexpected chaos table:\n%s", b.String())
	}
}
