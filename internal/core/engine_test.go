package core_test

// Black-box tests of the framework solvers using the kill/gen client (the
// simplest exact Client implementation).

import (
	"errors"
	"testing"
	"time"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/killgen"
)

// fixture builds a program with recursion, loops and branching plus its
// taint client.
func fixture() (*ir.Program, *killgen.Taint) {
	prog := ir.NewProgram("main")
	// rec: recursive with a terminating path; propagates x through y.
	prog.Add(&ir.Proc{Name: "rec", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.Copy, Dst: "rec$y", Src: "rec$x"},
		&ir.Choice{Alts: []ir.Cmd{
			&ir.Seq{Cmds: []ir.Cmd{
				&ir.Prim{Kind: ir.Copy, Dst: "rec$x", Src: "rec$y"},
				&ir.Call{Callee: "rec"},
			}},
			&ir.Prim{Kind: ir.Nop},
		}},
	}}})
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "t", Site: "src"},
		&ir.Prim{Kind: ir.New, Dst: "c", Site: "ok"},
		&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.Copy, Dst: "rec$x", Src: "t"},
			&ir.Prim{Kind: ir.Copy, Dst: "rec$x", Src: "c"},
		}}},
		&ir.Call{Callee: "rec"},
		&ir.Prim{Kind: ir.TSCall, Dst: "rec$y", Method: "emit"},
	}}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{
		Sources: []string{"src"},
		Sinks:   []string{"emit"},
	})
	return prog, taint
}

func newAnalysis(t *testing.T) (*core.Analysis[string, string, string], *killgen.Taint) {
	t.Helper()
	prog, taint := fixture()
	an, err := core.NewAnalysis[string, string, string](taint, prog)
	if err != nil {
		t.Fatal(err)
	}
	return an, taint
}

func TestEnginesAgreeOnRecursiveProgram(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	td := an.RunTD(init, core.TDConfig())
	if !td.Completed() {
		t.Fatalf("td: %v", td.Err)
	}
	bu := an.RunBU(init, core.BUConfig())
	if !bu.Completed() {
		t.Fatalf("bu: %v", bu.Err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 1
	sw := an.RunSwift(init, cfg)
	if !sw.Completed() {
		t.Fatalf("swift: %v", sw.Err)
	}
	want := td.ExitStates("main", init)
	if len(want) == 0 {
		t.Fatal("td produced no exit states")
	}
	for name, res := range map[string]*core.Result[string, string, string]{"bu": bu, "swift": sw} {
		got := res.ExitStates("main", init)
		if len(got) != len(want) {
			t.Fatalf("%s: %d exit states, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: exit[%d] = %s, want %s", name, i,
					taint.StateString(got[i]), taint.StateString(want[i]))
			}
		}
	}
	// The alert must be reachable (t flows into rec$x on some loop path).
	alerted := false
	for _, s := range want {
		if taint.Alerted(s) {
			alerted = true
		}
	}
	if !alerted {
		t.Error("expected an alerting exit state")
	}
}

func TestSwiftEngineLabels(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	if got := an.RunTD(init, core.TDConfig()).Engine; got != "td" {
		t.Errorf("engine = %q", got)
	}
	if got := an.RunBU(init, core.BUConfig()).Engine; got != "bu" {
		t.Errorf("engine = %q", got)
	}
	if got := an.RunSwift(init, core.DefaultConfig()).Engine; got != "swift" {
		t.Errorf("engine = %q", got)
	}
}

func TestBudgetsAbort(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()

	cfg := core.TDConfig()
	cfg.MaxPathEdges = 3
	if res := an.RunTD(init, cfg); !errors.Is(res.Err, core.ErrBudget) {
		t.Errorf("path-edge budget: err = %v", res.Err)
	}
	cfg = core.TDConfig()
	cfg.MaxTDSummaries = 1
	if res := an.RunTD(init, cfg); !errors.Is(res.Err, core.ErrBudget) {
		t.Errorf("summary budget: err = %v", res.Err)
	}
	cfg = core.BUConfig()
	cfg.MaxRelations = 2
	if res := an.RunBU(init, cfg); !errors.Is(res.Err, core.ErrBudget) {
		t.Errorf("relation budget: err = %v", res.Err)
	}
	cfg = core.BUConfig()
	cfg.MaxBUSteps = 2
	if res := an.RunBU(init, cfg); !errors.Is(res.Err, core.ErrBudget) {
		t.Errorf("step budget: err = %v", res.Err)
	}
	cfg = core.TDConfig()
	cfg.Timeout = time.Nanosecond
	res := an.RunTD(init, cfg)
	if res.Err != nil && !errors.Is(res.Err, core.ErrDeadline) {
		t.Errorf("deadline: err = %v", res.Err)
	}
}

// TestBudgetErrorsAreWrapped pins the error contract: the bottom-up solver
// returns budget failures wrapped with context, so drivers and callers must
// match them with errors.Is rather than direct comparison.
func TestBudgetErrorsAreWrapped(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	cfg := core.BUConfig()
	cfg.MaxRelations = 2
	res := an.RunBU(init, cfg)
	if res.Err == nil {
		t.Fatal("expected a budget error")
	}
	if res.Err == core.ErrBudget {
		t.Fatal("bottom-up budget error should carry context, not the bare sentinel")
	}
	if !errors.Is(res.Err, core.ErrBudget) {
		t.Fatalf("wrapped error does not match sentinel: %v", res.Err)
	}
}

// TestSwiftBUFallback checks that a bottom-up budget failure in hybrid mode
// degrades to pure top-down rather than aborting.
func TestSwiftBUFallback(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.MaxRelations = 1 // any trigger will fail
	res := an.RunSwift(init, cfg)
	if !res.Completed() {
		t.Fatalf("swift should complete by falling back: %v", res.Err)
	}
	if len(res.BUFailed) == 0 {
		t.Error("expected at least one failed bottom-up trigger")
	}
	td := an.RunTD(init, core.TDConfig())
	if got, want := res.TDSummaryTotal(), td.TDSummaryTotal(); got != want {
		t.Errorf("degraded swift computed %d summaries, td computes %d", got, want)
	}
}

// TestTriggerRespectsK checks that no procedure with ≤ k distinct incoming
// states is summarized.
func TestTriggerRespectsK(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = core.Unlimited
	res := an.RunSwift(init, cfg)
	if len(res.BU) != 0 || len(res.Triggered) != 0 {
		t.Errorf("k=∞ must never trigger; got %v", res.Triggered)
	}
	cfg.K = 1
	res = an.RunSwift(init, cfg)
	for _, f := range res.Triggered {
		if n := len(res.TD.EntryStates(f)); n <= 1 {
			t.Errorf("%s triggered with %d entry states at k=1", f, n)
		}
	}
}

// TestResultAccessors covers the small reporting helpers.
func TestResultAccessors(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	res := an.RunSwift(init, cfg)
	if res.TDSummaryTotal() <= 0 || res.TD.Steps <= 0 {
		t.Error("empty counters")
	}
	if len(res.BU) == 0 {
		t.Error("no procedures were summarized despite triggers")
	}
	// At θ=1 both guard cases of this program are common, so the pruned
	// summary may legitimately keep zero relations with Σ covering both;
	// either way the counters must be consistent.
	if res.BUSummaryTotal() < 0 || res.BUStats.Relations <= 0 {
		t.Error("inconsistent bottom-up counters")
	}
	states := res.TD.AllStates()
	if len(states) == 0 {
		t.Error("AllStates empty")
	}
	if got := res.TD.NodeStatesIn(0, init); len(got) != 1 || got[0] != init {
		t.Errorf("entry node states = %v", got)
	}
}

// TestApplySummaryAndIgnores covers the exported summary helpers.
func TestApplySummaryAndIgnores(t *testing.T) {
	prog, taint := fixture()
	an, err := core.NewAnalysis[string, string, string](taint, prog)
	if err != nil {
		t.Fatal(err)
	}
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.Theta = core.Unlimited // keep every case: summaries are total
	res := an.RunSwift(init, cfg)
	if !res.Completed() {
		t.Fatal(res.Err)
	}
	if len(res.BU) == 0 {
		t.Skip("no procedure summarized")
	}
	for name, rs := range res.BU {
		if rs.Size() != len(rs.Rels) {
			t.Errorf("%s: Size mismatch", name)
		}
		// With θ=∞, Σ is empty, so no state is ignored and every entry
		// state has results.
		if core.Ignores[string, string, string](taint, rs, init) {
			t.Errorf("%s: θ=∞ summary ignores a state", name)
		}
	}
}

// TestSynthOnKillgen checks FromBottomUp over the kill/gen client: a full
// engine run with the synthesized Trans matches the native one.
func TestSynthOnKillgen(t *testing.T) {
	prog, taint := fixture()
	synth := core.FromBottomUp[string, string, string](taint)
	an1, _ := core.NewAnalysis[string, string, string](taint, prog)
	an2, _ := core.NewAnalysis[string, string, string](synth, prog)
	init := taint.Initial()
	a := an1.RunTD(init, core.TDConfig())
	b := an2.RunTD(init, core.TDConfig())
	if a.TDSummaryTotal() != b.TDSummaryTotal() {
		t.Errorf("summary totals differ: %d vs %d", a.TDSummaryTotal(), b.TDSummaryTotal())
	}
	wa := a.ExitStates("main", init)
	wb := b.ExitStates("main", init)
	if len(wa) != len(wb) {
		t.Fatalf("exit states differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Errorf("exit[%d] differs", i)
		}
	}
}

// TestNopPrimEverywhere checks the solvers tolerate programs that are all
// structure and no effect.
func TestNopPrimEverywhere(t *testing.T) {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
		&ir.Prim{Kind: ir.Nop},
		&ir.Seq{},
	}}}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{})
	an, err := core.NewAnalysis[string, string, string](taint, prog)
	if err != nil {
		t.Fatal(err)
	}
	init := taint.Initial()
	for _, res := range []*core.Result[string, string, string]{
		an.RunTD(init, core.TDConfig()),
		an.RunBU(init, core.BUConfig()),
		an.RunSwift(init, core.DefaultConfig()),
	} {
		if !res.Completed() {
			t.Fatalf("%s: %v", res.Engine, res.Err)
		}
		exits := res.ExitStates("main", init)
		if len(exits) != 1 || exits[0] != init {
			t.Errorf("%s: exits = %v", res.Engine, exits)
		}
	}
}
