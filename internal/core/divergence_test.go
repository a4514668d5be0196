package core_test

// Regression tests pinning RunSwift's trigger contract: errors inside
// run_bu surface as Result.Err, bottom-up budgets are per trigger, and
// Result.Triggered is sorted.

import (
	"errors"
	"testing"
	"time"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/killgen"
)

// slowClient delays every bottom-up transfer so a run_bu invocation blows
// the wall-clock deadline while the top-down analysis (which never calls
// RTrans) stays fast: the error the engine must surface is the deadline
// the bottom-up side hits.
type slowClient struct {
	core.Client[string, string, string]
	delay time.Duration
}

func (s *slowClient) RTrans(c *ir.Prim, r string) []string {
	time.Sleep(s.delay)
	return s.Client.RTrans(c, r)
}

// slowFixture builds a program whose single callee is triggered early and
// takes ≥256 bottom-up evaluation steps, so run_bu's deadline check
// (which only consults the clock every 256th step) fires mid-run_bu.
func slowFixture() (*ir.Program, *killgen.Taint) {
	prog := ir.NewProgram("main")
	nops := make([]ir.Cmd, 350)
	for i := range nops {
		nops[i] = &ir.Prim{Kind: ir.Nop}
	}
	prog.Add(&ir.Proc{Name: "slow", Body: &ir.Seq{Cmds: nops}})
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "t", Site: "src"},
		&ir.Prim{Kind: ir.New, Dst: "c", Site: "ok"},
		&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.Copy, Dst: "slow$x", Src: "t"},
			&ir.Prim{Kind: ir.Copy, Dst: "slow$x", Src: "c"},
		}}},
		&ir.Call{Callee: "slow"},
		&ir.Prim{Kind: ir.TSCall, Dst: "slow$x", Method: "emit"},
	}}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{
		Sources: []string{"src"},
		Sinks:   []string{"emit"},
	})
	return prog, taint
}

// TestWorkerErrorSurfaces checks that a non-budget error inside run_bu —
// here the wall-clock deadline — reaches Result.Err instead of being
// downgraded to a silent top-down fallback.
func TestWorkerErrorSurfaces(t *testing.T) {
	prog, taint := slowFixture()
	slow := &slowClient{Client: taint, delay: time.Millisecond}
	an, err := core.NewAnalysis[string, string, string](slow, prog)
	if err != nil {
		t.Fatal(err)
	}
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.Timeout = 50 * time.Millisecond

	res := an.RunSwift(init, cfg)
	if res.Err == nil {
		t.Fatalf("deadline inside run_bu was swallowed (Triggered=%v BUFailed=%v)",
			res.Triggered, res.BUFailed)
	}
	if !errors.Is(res.Err, core.ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", res.Err)
	}
}

// budgetFixture builds two structurally identical, call-disjoint callees
// ("zz" is reached first, "aa" second), each triggered under k=1. Because
// the procedures are identical and independent, each trigger charges
// exactly half the total relation count of an unlimited run.
func budgetFixture() (*ir.Program, *killgen.Taint) {
	prog := ir.NewProgram("main")
	body := func(p string) ir.Cmd {
		return &ir.Seq{Cmds: []ir.Cmd{
			&ir.Choice{Alts: []ir.Cmd{
				&ir.Prim{Kind: ir.Copy, Dst: p + "$y", Src: p + "$x"},
				&ir.Prim{Kind: ir.Nop},
			}},
			&ir.Prim{Kind: ir.Copy, Dst: p + "$z", Src: p + "$y"},
		}}
	}
	prog.Add(&ir.Proc{Name: "aa", Body: body("aa")})
	prog.Add(&ir.Proc{Name: "zz", Body: body("zz")})
	call := func(p string) []ir.Cmd {
		return []ir.Cmd{
			&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
				&ir.Prim{Kind: ir.Copy, Dst: p + "$x", Src: "t"},
				&ir.Prim{Kind: ir.Copy, Dst: p + "$x", Src: "c"},
			}}},
			&ir.Call{Callee: p},
		}
	}
	cmds := []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "t", Site: "src"},
		&ir.Prim{Kind: ir.New, Dst: "c", Site: "ok"},
	}
	cmds = append(cmds, call("zz")...)
	cmds = append(cmds, call("aa")...)
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: cmds}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{Sources: []string{"src"}})
	return prog, taint
}

// TestPerTriggerBudget pins the budget model: MaxRelations bounds each
// run_bu invocation, so a budget that fits one trigger fits every
// trigger. Under cumulative accounting the second trigger would fail.
func TestPerTriggerBudget(t *testing.T) {
	prog, taint := budgetFixture()
	an, err := core.NewAnalysis[string, string, string](taint, prog)
	if err != nil {
		t.Fatal(err)
	}
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	// Disable pruning so each trigger's relation count is independent of
	// ranking data and identical across runs.
	cfg.Theta = core.Unlimited

	// Calibrate: an unlimited run triggers both procedures; the two are
	// identical and call-disjoint, so each charged exactly half the total.
	full := an.RunSwift(init, cfg)
	if !full.Completed() {
		t.Fatal(full.Err)
	}
	want := []string{"aa", "zz"}
	if len(full.Triggered) != 2 || full.Triggered[0] != want[0] || full.Triggered[1] != want[1] {
		t.Fatalf("calibration run triggered %v, want %v", full.Triggered, want)
	}
	perTrigger := full.BUStats.Relations / 2

	cfg.MaxRelations = perTrigger
	res := an.RunSwift(init, cfg)
	if !res.Completed() {
		t.Fatal(res.Err)
	}
	if len(res.BUFailed) != 0 {
		t.Errorf("triggers failed under a per-trigger budget that fits each: %v", res.BUFailed)
	}
	if len(res.Triggered) != 2 || res.Triggered[0] != want[0] || res.Triggered[1] != want[1] {
		t.Errorf("Triggered = %v, want %v", res.Triggered, want)
	}
	if res.BUStats.Relations != full.BUStats.Relations {
		t.Errorf("aggregated relations = %d, want %d", res.BUStats.Relations, full.BUStats.Relations)
	}
}

// TestTriggeredSorted pins the Result.Triggered contract: sorted,
// regardless of trigger order ("zz" triggers first here).
func TestTriggeredSorted(t *testing.T) {
	prog, taint := budgetFixture()
	an, err := core.NewAnalysis[string, string, string](taint, prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 1
	res := an.RunSwift(taint.Initial(), cfg)
	if !res.Completed() {
		t.Fatal(res.Err)
	}
	if len(res.Triggered) != 2 {
		t.Fatalf("Triggered = %v, want both callees", res.Triggered)
	}
	for i := 1; i < len(res.Triggered); i++ {
		if res.Triggered[i-1] >= res.Triggered[i] {
			t.Errorf("Triggered not sorted: %v", res.Triggered)
		}
	}
}
