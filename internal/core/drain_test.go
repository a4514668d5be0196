package core_test

// Regression tests for the pending-trigger drain: a trigger postponed while
// some frontier procedure has no top-down incoming state used to be retried
// only every 64th call event, so programs whose last call events arrive
// inside a retry window gap silently dropped the trigger and the run
// under-summarized. The fixtures here produce well under 64 call events, so
// without the final drain pass the trigger is lost.

import (
	"slices"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/killgen"
)

// drainClient builds a kill/gen client over facts {p, q, r} whose primitive
// commands are selected by the Dst tag of a Nop:
//
//	genp, genq  — generate the fact
//	norm        — kill p and q, generate r (collapses all states to {r})
//	block       — no cases: nothing flows past it (assume-false)
//
// Any other tag is the identity.
func drainClient() *killgen.Analysis {
	kg := killgen.NewAnalysis([]string{"p", "q", "r"})
	norm := kg.KillCase("p", "q")
	norm.Gen = kg.MakeBits("r")
	kg.SetSpec(func(c *ir.Prim) []killgen.Case {
		switch c.Dst {
		case "genp":
			return []killgen.Case{kg.GenCase("p")}
		case "genq":
			return []killgen.Case{kg.GenCase("q")}
		case "norm":
			return []killgen.Case{norm}
		case "block":
			return nil
		}
		return []killgen.Case{kg.IdentityCase()}
	})
	return kg
}

func tag(name string) *ir.Prim { return &ir.Prim{Kind: ir.Nop, Dst: name} }

// drainProgram delivers two distinct states to f (triggering it at k=1)
// before f's body — which collapses both to one state and then calls g —
// has run: at trigger time g has no incoming states, so the trigger is
// postponed. Only a handful of call events follow, far fewer than the 64
// needed for a periodic retry.
func drainProgram() *ir.Program {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Choice{Alts: []ir.Cmd{
		&ir.Seq{Cmds: []ir.Cmd{tag("genp"), &ir.Call{Callee: "f"}}},
		&ir.Seq{Cmds: []ir.Cmd{tag("genq"), &ir.Call{Callee: "f"}}},
	}}})
	prog.Add(&ir.Proc{Name: "f", Body: &ir.Seq{Cmds: []ir.Cmd{
		tag("norm"), &ir.Call{Callee: "g"},
	}}})
	prog.Add(&ir.Proc{Name: "g", Body: tag("noop")})
	return prog
}

// blockedProgram is drainProgram with an extra callee h of f that is
// unreachable top-down (guarded by "block"), so EntrySeen[h] stays empty
// forever and the trigger for f can only run forced.
func blockedProgram() *ir.Program {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Choice{Alts: []ir.Cmd{
		&ir.Seq{Cmds: []ir.Cmd{tag("genp"), &ir.Call{Callee: "f"}}},
		&ir.Seq{Cmds: []ir.Cmd{tag("genq"), &ir.Call{Callee: "f"}}},
	}}})
	prog.Add(&ir.Proc{Name: "f", Body: &ir.Choice{Alts: []ir.Cmd{
		&ir.Seq{Cmds: []ir.Cmd{tag("norm"), &ir.Call{Callee: "g"}}},
		&ir.Seq{Cmds: []ir.Cmd{tag("block"), &ir.Call{Callee: "h"}}},
	}}})
	prog.Add(&ir.Proc{Name: "g", Body: tag("noop")})
	prog.Add(&ir.Proc{Name: "h", Body: tag("noop")})
	return prog
}

func runDrainFixture(t *testing.T, prog *ir.Program) *core.Result[string, string, string] {
	t.Helper()
	kg := drainClient()
	an, err := core.NewAnalysis[string, string, string](kg, prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 1
	return an.RunSwift(kg.State(kg.MakeBits()), cfg)
}

func checkDrained(t *testing.T, res *core.Result[string, string, string], wantBU []string) {
	t.Helper()
	if !res.Completed() {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !slices.Equal(res.Triggered, []string{"f"}) {
		t.Errorf("Triggered = %v, want [f] (pending trigger dropped?)", res.Triggered)
	}
	for _, name := range wantBU {
		if _, ok := res.BU[name]; !ok {
			t.Errorf("no bottom-up summary for %s; BU has %d entries", name, len(res.BU))
		}
	}
}

// TestPendingTriggerDrained also pins the Result.Triggered contract:
// trigger procedures only, not every summarized frontier procedure.
func TestPendingTriggerDrained(t *testing.T) {
	res := runDrainFixture(t, drainProgram())
	checkDrained(t, res, []string{"f", "g"})
}

// TestPendingTriggerForcedDrain covers the frontier-never-ready case: h is
// unreachable top-down, so the drain must force the trigger (pruning falls
// back to canonical order for procedures without ranking data).
func TestPendingTriggerForcedDrain(t *testing.T) {
	res := runDrainFixture(t, blockedProgram())
	checkDrained(t, res, []string{"f", "g", "h"})
}

// TestSwiftDrainCoincidence checks Theorem 3.1 still holds on the drain
// fixtures: exit states match the pure top-down analysis.
func TestSwiftDrainCoincidence(t *testing.T) {
	for _, prog := range []*ir.Program{drainProgram(), blockedProgram()} {
		kg := drainClient()
		an, err := core.NewAnalysis[string, string, string](kg, prog)
		if err != nil {
			t.Fatal(err)
		}
		init := kg.State(kg.MakeBits())
		td := an.RunTD(init, core.TDConfig())
		cfg := core.DefaultConfig()
		cfg.K = 1
		sw := an.RunSwift(init, cfg)
		if !td.Completed() || !sw.Completed() {
			t.Fatalf("td err=%v swift err=%v", td.Err, sw.Err)
		}
		want := td.ExitStates("main", init)
		got := sw.ExitStates("main", init)
		if !slices.Equal(want, got) {
			t.Errorf("exit states: swift %v, td %v", got, want)
		}
	}
}
