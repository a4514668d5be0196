package core_test

// Crashworthiness tests of the fault-injection layer: a fault at any
// client operation must never crash, deadlock or leak a goroutine — it
// either degrades to a per-trigger top-down fallback or surfaces as a
// properly wrapped Result.Err. The sweep walks every operation index of a
// small fixture across all three engines.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"swift/internal/core"
	"swift/internal/ir"
)

// fingerprintResult renders every deterministic field of a result (maps
// print in sorted key order), so byte-equal fingerprints mean byte-equal
// result tables. Elapsed is excluded on purpose.
func fingerprintResult(res *core.Result[string, string, string], entry, init string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s err=%v\n", res.Engine, res.Err)
	if res.TD != nil {
		fmt.Fprintf(&b, "td steps=%d pathedges=%d summaries=%d\n",
			res.TD.Steps, res.TD.NumPathEdges, res.TD.NumSummaries)
		fmt.Fprintf(&b, "exit=%v\n", res.ExitStates(entry, init))
	}
	fmt.Fprintf(&b, "bustats=%+v\n", res.BUStats)
	fmt.Fprintf(&b, "calls bu=%d td=%d sigma=%d panics=%d\n",
		res.CallsViaBU, res.CallsViaTD, res.CallsInSigma, res.ClientPanics)
	fmt.Fprintf(&b, "triggered=%v failed=%v\n", res.Triggered, res.BUFailed)
	names := make([]string, 0, len(res.BU))
	for name := range res.BU {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := res.BU[name]
		fmt.Fprintf(&b, "bu %s rels=%v sigma=%v\n", name, rs.Rels, rs.Sigma)
	}
	return b.String()
}

// checkNoLeakedGoroutines waits for the goroutine count to settle back to
// the baseline: every engine guarantees no worker outlives the run.
func checkNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d at start, %d after runs\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sweepEngine describes one engine entry point over the drain fixture.
type sweepEngine struct {
	name string
	run  func(t *testing.T, prog *ir.Program, cfg core.Config) *core.Result[string, string, string]
}

func sweepEngines() []sweepEngine {
	build := func(t *testing.T, prog *ir.Program) (*core.Analysis[string, string, string], string) {
		t.Helper()
		kg := drainClient()
		an, err := core.NewAnalysis[string, string, string](kg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return an, kg.State(kg.MakeBits())
	}
	return []sweepEngine{
		{"td", func(t *testing.T, prog *ir.Program, cfg core.Config) *core.Result[string, string, string] {
			an, init := build(t, prog)
			cfg.K = core.Unlimited
			return an.RunTD(init, cfg)
		}},
		{"bu", func(t *testing.T, prog *ir.Program, cfg core.Config) *core.Result[string, string, string] {
			an, init := build(t, prog)
			cfg.Theta = core.Unlimited
			return an.RunBU(init, cfg)
		}},
		{"swift", func(t *testing.T, prog *ir.Program, cfg core.Config) *core.Result[string, string, string] {
			an, init := build(t, prog)
			return an.RunSwift(init, cfg)
		}},
	}
}

func sweepConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 1
	return cfg
}

// TestFaultSweepAllEngines injects one fault at every operation index of
// every engine's operation stream, for each fault kind, and asserts the
// run always terminates with either a clean degradation or a properly
// wrapped error. The blocked program exercises the forced-drain path too.
func TestFaultSweepAllEngines(t *testing.T) {
	before := runtime.NumGoroutine()
	kinds := []core.FaultKind{core.FaultErr, core.FaultPanic, core.FaultBudget}
	for _, prog := range []func() *ir.Program{drainProgram, blockedProgram} {
		for _, eng := range sweepEngines() {
			// Size the stream with a counting-only plan.
			plan := &core.FaultPlan{}
			cfg := sweepConfig()
			cfg.Fault = plan
			res := eng.run(t, prog(), cfg)
			if res.Err != nil {
				t.Fatalf("%s: counting run failed: %v", eng.name, res.Err)
			}
			n := plan.OpCount()
			if n == 0 {
				t.Fatalf("%s: no client operations counted", eng.name)
			}
			stride := int64(1)
			if testing.Short() {
				stride = n/64 + 1
			}
			for _, kind := range kinds {
				for i := int64(0); i < n; i += stride {
					cfg := sweepConfig()
					cfg.Fault = &core.FaultPlan{Ops: map[int64]core.Fault{i: {Kind: kind}}}
					res := eng.run(t, prog(), cfg)
					if res.Err == nil {
						continue // degraded cleanly (or the index was never reached)
					}
					if !errors.Is(res.Err, core.ErrClientFault) &&
						!errors.Is(res.Err, core.ErrClientPanic) &&
						!errors.Is(res.Err, core.ErrBudget) &&
						!errors.Is(res.Err, core.ErrDeadline) {
						t.Fatalf("%s: %s at op %d: unclassified error %v",
							eng.name, kind, i, res.Err)
					}
					switch res.Err {
					case core.ErrClientFault, core.ErrClientPanic, core.ErrBudget, core.ErrDeadline:
						t.Fatalf("%s: %s at op %d: bare sentinel without context", eng.name, kind, i)
					}
				}
			}
		}
	}
	checkNoLeakedGoroutines(t, before)
}

// TestFaultEmptyPlanByteIdentical pins the zero-overhead contract: arming
// an empty plan changes nothing about a deterministic engine's result.
func TestFaultEmptyPlanByteIdentical(t *testing.T) {
	kg := drainClient()
	init := kg.State(kg.MakeBits()) // state encodings are instance-independent
	for _, eng := range sweepEngines() {
		plain := eng.run(t, drainProgram(), sweepConfig())
		cfg := sweepConfig()
		cfg.Fault = &core.FaultPlan{}
		armed := eng.run(t, drainProgram(), cfg)
		got := fingerprintResult(armed, "main", init)
		want := fingerprintResult(plain, "main", init)
		if got != want {
			t.Errorf("%s: empty plan changed the result\n--- armed ---\n%s--- plain ---\n%s",
				eng.name, got, want)
		}
	}
}

// TestFaultPanicSurfacesWrapped pins the acceptance contract for
// engine-level panics: a client panic on the top-down path becomes a
// wrapped Result.Err instead of crashing the process.
func TestFaultPanicSurfacesWrapped(t *testing.T) {
	for _, eng := range sweepEngines() {
		cfg := sweepConfig()
		cfg.Fault = &core.FaultPlan{Ops: map[int64]core.Fault{0: {Kind: core.FaultPanic}}}
		res := eng.run(t, drainProgram(), cfg)
		if !errors.Is(res.Err, core.ErrClientPanic) {
			t.Errorf("%s: op-0 panic: err = %v, want wrapped ErrClientPanic", eng.name, res.Err)
		}
	}
}

// TestFaultErrSurfacesWrapped is the analogue for injected operation
// failures.
func TestFaultErrSurfacesWrapped(t *testing.T) {
	for _, eng := range sweepEngines() {
		cfg := sweepConfig()
		cfg.Fault = &core.FaultPlan{Ops: map[int64]core.Fault{0: {Kind: core.FaultErr}}}
		res := eng.run(t, drainProgram(), cfg)
		if !errors.Is(res.Err, core.ErrClientFault) {
			t.Errorf("%s: op-0 fault: err = %v, want wrapped ErrClientFault", eng.name, res.Err)
		}
	}
}

// TestFaultTriggerBudgetFallsBack forces budget exhaustion for one
// trigger: the hybrid engine must degrade it to BUFailed and complete
// with the top-down fallback (Theorem 3.1), not abort.
func TestFaultTriggerBudgetFallsBack(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, eng := range sweepEngines() {
		if eng.name == "td" || eng.name == "bu" {
			continue
		}
		cfg := sweepConfig()
		cfg.Fault = &core.FaultPlan{TriggerBudget: map[string]bool{"f": true}}
		res := eng.run(t, drainProgram(), cfg)
		if res.Err != nil {
			t.Fatalf("%s: should complete by falling back: %v", eng.name, res.Err)
		}
		if !res.BUFailed["f"] {
			t.Errorf("%s: BUFailed = %v, want f marked", eng.name, res.BUFailed)
		}
		if len(res.Triggered) != 0 {
			t.Errorf("%s: Triggered = %v, want none", eng.name, res.Triggered)
		}
	}
	checkNoLeakedGoroutines(t, before)
}

// rtransPanicClient panics on every RTrans call. RTrans is only reached
// from inside run_bu, so every bottom-up trigger panics on every attempt —
// the worst case for the containment layer's retry logic.
type rtransPanicClient struct {
	core.Client[string, string, string]
}

func (c *rtransPanicClient) RTrans(*ir.Prim, string) []string {
	panic("rtransPanicClient: injected client bug")
}

// TestClientPanicInTriggerDegrades pins the acceptance contract for
// per-trigger panics: a client that panics inside every bottom-up
// invocation degrades each trigger to BUFailed after a bounded retry, the
// run completes, and the exit states match the pure top-down analysis.
func TestClientPanicInTriggerDegrades(t *testing.T) {
	before := runtime.NumGoroutine()
	prog := drainProgram()
	kg := drainClient()
	init := kg.State(kg.MakeBits())
	tdAn, err := core.NewAnalysis[string, string, string](kg, prog)
	if err != nil {
		t.Fatal(err)
	}
	td := tdAn.RunTD(init, core.TDConfig())
	if !td.Completed() {
		t.Fatalf("td: %v", td.Err)
	}
	want := td.ExitStates("main", init)

	an, err := core.NewAnalysis[string, string, string](&rtransPanicClient{Client: drainClient()}, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := an.RunSwift(init, sweepConfig())
	if res.Err != nil {
		t.Fatalf("should complete by falling back: %v", res.Err)
	}
	if res.ClientPanics < 2 {
		t.Errorf("ClientPanics = %d, want >= 2 (attempt + bounded retry)", res.ClientPanics)
	}
	if !res.BUFailed["f"] {
		t.Errorf("BUFailed = %v, want f marked", res.BUFailed)
	}
	got := res.ExitStates("main", init)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("exit states %v, td %v", got, want)
	}
	checkNoLeakedGoroutines(t, before)
}

// TestFaultSeededPlanTerminates smokes the periodic schedule on the larger
// recursive fixture: a seeded storm of mixed faults must still terminate
// every engine with a classified outcome.
func TestFaultSeededPlanTerminates(t *testing.T) {
	before := runtime.NumGoroutine()
	an, taint := newAnalysis(t)
	init := taint.Initial()
	for seed := uint64(1); seed <= 8; seed++ {
		plan := core.SeededFaultPlan(seed, 200,
			core.FaultErr, core.FaultPanic, core.FaultBudget, core.FaultSleep)
		cfg := core.DefaultConfig()
		cfg.K = 1
		cfg.Fault = plan
		for _, res := range []*core.Result[string, string, string]{
			an.RunTD(init, cfg),
			an.RunSwift(init, cfg),
		} {
			if res.Err == nil {
				continue
			}
			if !errors.Is(res.Err, core.ErrClientFault) &&
				!errors.Is(res.Err, core.ErrClientPanic) &&
				!errors.Is(res.Err, core.ErrBudget) &&
				!errors.Is(res.Err, core.ErrDeadline) {
				t.Fatalf("seed %d: unclassified error %v", seed, res.Err)
			}
		}
	}
	checkNoLeakedGoroutines(t, before)
}
