package core_test

// Cooperative-cancellation tests: closing Config.Cancel must abort every
// engine with a wrapped core.ErrCanceled at its next periodic check and
// leak no goroutines.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/killgen"
)

// cancelFixture builds a call chain of n procedures, each with heavy
// straight-line prims plus a loop and branching — enough work that every
// engine takes far more than one check interval (256 periodic checks) to
// finish, so a closed cancel channel reliably aborts mid-run. heavy also
// bounds run_bu from below: one bottom-up evaluation round of a single
// procedure costs at least heavy steps.
func cancelFixture(n, heavy int) (*ir.Program, *killgen.Taint) {
	prog := ir.NewProgram("main")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		body := []ir.Cmd{}
		for j := 0; j < heavy; j++ {
			src, dst := name+"$x", name+"$y"
			if j%2 == 1 {
				src, dst = dst, src
			}
			body = append(body, &ir.Prim{Kind: ir.Copy, Dst: dst, Src: src})
		}
		body = append(body, &ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.Copy, Dst: name + "$x", Src: name + "$y"},
			&ir.Prim{Kind: ir.Nop},
		}}})
		if i+1 < n {
			next := fmt.Sprintf("p%d", i+1)
			body = append(body,
				&ir.Prim{Kind: ir.Copy, Dst: next + "$x", Src: name + "$y"},
				&ir.Call{Callee: next},
			)
		}
		prog.Add(&ir.Proc{Name: name, Body: &ir.Seq{Cmds: body}})
	}
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "t", Site: "src"},
		&ir.Prim{Kind: ir.New, Dst: "c", Site: "ok"},
		&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.Copy, Dst: "p0$x", Src: "t"},
			&ir.Prim{Kind: ir.Copy, Dst: "p0$x", Src: "c"},
		}}},
		&ir.Call{Callee: "p0"},
		&ir.Prim{Kind: ir.TSCall, Dst: "p0$y", Method: "emit"},
	}}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{
		Sources: []string{"src"},
		Sinks:   []string{"emit"},
	})
	return prog, taint
}

func cancelAnalysis(t *testing.T, n, heavy int) (*core.Analysis[string, string, string], *killgen.Taint) {
	t.Helper()
	prog, taint := cancelFixture(n, heavy)
	an, err := core.NewAnalysis[string, string, string](taint, prog)
	if err != nil {
		t.Fatal(err)
	}
	return an, taint
}

// closedChan returns an already-closed cancel channel.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestCancelPreClosedAbortsAllEngines runs every engine with the cancel
// channel closed before the run starts: each must abort with ErrCanceled
// — never ErrDeadline or a silent completion — having done only a
// fraction of the full run's work, and leak nothing.
func TestCancelPreClosedAbortsAllEngines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, engine := range []string{"td", "bu", "swift"} {
		t.Run(engine, func(t *testing.T) {
			an, taint := cancelAnalysis(t, 40, 8)
			cfg := core.DefaultConfig()
			cfg.K = 1

			full, err := an.RunEngine(engine, taint.Initial(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if full.Err != nil {
				t.Fatalf("uncanceled %s run failed: %v", engine, full.Err)
			}

			an2, taint2 := cancelAnalysis(t, 40, 8)
			ccfg := cfg
			ccfg.Cancel = closedChan()
			res, err := an2.RunEngine(engine, taint2.Initial(), ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(res.Err, core.ErrCanceled) {
				t.Fatalf("canceled %s run: Err = %v, want ErrCanceled", engine, res.Err)
			}
			if errors.Is(res.Err, core.ErrDeadline) {
				t.Fatalf("canceled %s run also reports ErrDeadline: %v", engine, res.Err)
			}
			// One check interval is 256 periodic checks; aborting there
			// must leave the bulk of the run undone.
			if full.WorkUnits() > 0 && res.WorkUnits() >= full.WorkUnits() {
				t.Fatalf("canceled %s run did full work: %d >= %d",
					engine, res.WorkUnits(), full.WorkUnits())
			}
		})
	}
	checkNoLeakedGoroutines(t, before)
}

// TestCancelMidRun closes the cancel channel while a swift run is in
// flight on another goroutine: the run must return promptly with
// ErrCanceled.
func TestCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	an, taint := cancelAnalysis(t, 60, 8)
	cfg := core.DefaultConfig()
	cfg.K = 1
	cancel := make(chan struct{})
	cfg.Cancel = cancel

	done := make(chan *core.Result[string, string, string], 1)
	go func() {
		res, err := an.RunEngine("swift", taint.Initial(), cfg)
		if err != nil {
			panic(err)
		}
		done <- res
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	select {
	case res := <-done:
		// A fast machine may finish the whole run before the close lands;
		// both outcomes are legal, but an error must be ErrCanceled.
		if res.Err != nil && !errors.Is(res.Err, core.ErrCanceled) {
			t.Fatalf("Err = %v, want nil or ErrCanceled", res.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled swift run did not return")
	}
	checkNoLeakedGoroutines(t, before)
}
