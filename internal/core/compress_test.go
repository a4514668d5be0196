package core_test

// Equivalence tests for the superblock-compressed solver view and the
// transfer memo: on every program we can get our hands on — the killgen
// fixture, randomized killgen programs, testdata/, and generated
// paper-mirror benchmarks — the compressed and raw solvers must produce
// identical TDResult tables and identical counters, and the memo must be
// observably transparent in every engine including the order-sensitive
// hybrid.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/ir"
	"swift/internal/killgen"
	"swift/internal/wire"
)

// sameTD asserts two tabulation results are identical: the full path-edge
// table, summaries, entry multisets and every counter. Entry contexts are
// numbered in arrival order, which differs between schedulers and views,
// so the path-edge tables are compared through their canonical encoding.
func sameTD[S cmp.Ordered](t *testing.T, label string, a, b *core.TDResult[S]) {
	t.Helper()
	if a.NumPathEdges != b.NumPathEdges || a.NumSummaries != b.NumSummaries || a.Steps != b.Steps {
		t.Errorf("%s: counters differ: (%d,%d,%d) vs (%d,%d,%d)", label,
			a.NumPathEdges, a.NumSummaries, a.Steps,
			b.NumPathEdges, b.NumSummaries, b.Steps)
	}
	if enc := canonicalTD(a, b); !bytes.Equal(enc[0], enc[1]) {
		t.Errorf("%s: path-edge tables differ", label)
	}
	if !reflect.DeepEqual(a.Summaries, b.Summaries) {
		t.Errorf("%s: summary tables differ", label)
	}
	if !reflect.DeepEqual(a.EntrySeen, b.EntrySeen) {
		t.Errorf("%s: entry multisets differ", label)
	}
}

// canonicalTD encodes tabulation results with every state numbered by its
// rank among the states any of them mentions, so two results encode
// equally exactly when their tables are equal.
func canonicalTD[S cmp.Ordered](rs ...*core.TDResult[S]) [][]byte {
	seen := map[S]bool{}
	var states []S
	collect := func(s S) int64 {
		if !seen[s] {
			seen[s] = true
			states = append(states, s)
		}
		return 0
	}
	for _, r := range rs {
		core.EncodeTDResult(&wire.Writer{}, r, collect)
	}
	slices.Sort(states)
	rank := func(s S) int64 {
		i, _ := slices.BinarySearch(states, s)
		return int64(i)
	}
	out := make([][]byte, len(rs))
	for i, r := range rs {
		var w wire.Writer
		core.EncodeTDResult(&w, r, rank)
		out[i] = w.Bytes()
	}
	return out
}

// tdVariants runs RunTD under all four view/memo combinations and asserts
// they are indistinguishable. The default (compressed+memo) is returned.
func tdVariants[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	t *testing.T, label string, an *core.Analysis[S, R, P], init S, cfg core.Config,
) *core.Result[S, R, P] {
	t.Helper()
	base := an.RunTD(init, cfg)
	for _, v := range []struct {
		name      string
		raw, nomo bool
	}{
		{"raw+nomemo", true, true}, {"raw", true, false}, {"nomemo", false, true},
	} {
		c := cfg
		c.RawCFG = v.raw
		c.NoTransferMemo = v.nomo
		got := an.RunTD(init, c)
		if !errors.Is(got.Err, base.Err) && !errors.Is(base.Err, got.Err) {
			t.Errorf("%s/%s: err = %v, want %v", label, v.name, got.Err, base.Err)
			continue
		}
		sameTD(t, label+"/"+v.name, base.TD, got.TD)
	}
	return base
}

func TestCompressedMatchesRawOnFixture(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	res := tdVariants(t, "fixture", an, init, core.TDConfig())
	if !res.Completed() {
		t.Fatalf("td: %v", res.Err)
	}

	// The bottom-up baseline's instantiation pass uses the same solver.
	buBase := an.RunBU(init, core.BUConfig())
	buCfg := core.BUConfig()
	buCfg.RawCFG = true
	buCfg.NoTransferMemo = true
	buRaw := an.RunBU(init, buCfg)
	if !buBase.Completed() || !buRaw.Completed() {
		t.Fatalf("bu: %v / %v", buBase.Err, buRaw.Err)
	}
	sameTD(t, "fixture/bu", buBase.TD, buRaw.TD)
	if buBase.BUStats != buRaw.BUStats {
		t.Errorf("bu stats differ: %+v vs %+v", buBase.BUStats, buRaw.BUStats)
	}
}

// TestBudgetAbortAgreesAcrossViews pins the original-graph-units contract
// at the abort point: a path-edge budget must fire on the same insert
// count on either view (Steps at abort legitimately differs — the raw
// solver still owes pops for queued facts the compressed walk already
// charged).
func TestBudgetAbortAgreesAcrossViews(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	cfg := core.TDConfig()
	cfg.MaxPathEdges = 7
	comp := an.RunTD(init, cfg)
	cfg.RawCFG = true
	cfg.NoTransferMemo = true
	raw := an.RunTD(init, cfg)
	if !errors.Is(comp.Err, core.ErrBudget) || !errors.Is(raw.Err, core.ErrBudget) {
		t.Fatalf("budget did not fire: %v / %v", comp.Err, raw.Err)
	}
	if comp.TD.NumPathEdges != raw.TD.NumPathEdges {
		t.Errorf("path edges at abort: %d vs %d", comp.TD.NumPathEdges, raw.TD.NumPathEdges)
	}
}

// TestMemoTransparentInHybrid asserts the transfer memo changes nothing
// observable in the order-sensitive hybrid engine: every counter, the
// trigger set and the full tabulation tables must be bit-identical with
// the memo on and off.
func TestMemoTransparentInHybrid(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	base := an.RunSwift(init, cfg)
	cfg.NoTransferMemo = true
	plain := an.RunSwift(init, cfg)
	if !base.Completed() || !plain.Completed() {
		t.Fatalf("swift: %v / %v", base.Err, plain.Err)
	}
	sameTD(t, "swift", base.TD, plain.TD)
	if !reflect.DeepEqual(base.Triggered, plain.Triggered) {
		t.Errorf("Triggered differs: %v vs %v", base.Triggered, plain.Triggered)
	}
	if base.BUStats != plain.BUStats {
		t.Errorf("BUStats differs: %+v vs %+v", base.BUStats, plain.BUStats)
	}
	got := [4]int{base.CallsViaBU, base.CallsViaTD, base.CallsInSigma, base.Resummarized}
	want := [4]int{plain.CallsViaBU, plain.CallsViaTD, plain.CallsInSigma, plain.Resummarized}
	if got != want {
		t.Errorf("call counters differ: %v vs %v", got, want)
	}
}

// randomKillgenProgram builds a small random program over the taint
// client's primitive forms, structurally similar to the typestate
// coincidence generator.
func randomKillgenProgram(rng *rand.Rand) (*ir.Program, *killgen.Taint) {
	vars := []string{"a", "b", "c"}
	numProcs := 2 + rng.Intn(3)
	procName := func(i int) string { return fmt.Sprintf("p%d", i) }
	randVar := func() string { return vars[rng.Intn(len(vars))] }
	randPrim := func() ir.Cmd {
		switch rng.Intn(7) {
		case 0:
			return &ir.Prim{Kind: ir.New, Dst: randVar(), Site: "src"}
		case 1:
			return &ir.Prim{Kind: ir.New, Dst: randVar(), Site: "ok"}
		case 2, 3:
			return &ir.Prim{Kind: ir.Copy, Dst: randVar(), Src: randVar()}
		case 4:
			return &ir.Prim{Kind: ir.Kill, Dst: randVar()}
		case 5:
			return &ir.Prim{Kind: ir.TSCall, Dst: randVar(), Method: "emit"}
		default:
			return &ir.Prim{Kind: ir.Nop}
		}
	}
	var randCmd func(depth, self int) ir.Cmd
	randCmd = func(depth, self int) ir.Cmd {
		if depth > 0 {
			switch rng.Intn(6) {
			case 0:
				return &ir.Choice{Alts: []ir.Cmd{randCmd(depth-1, self), randCmd(depth-1, self)}}
			case 1:
				return &ir.Loop{Body: randCmd(depth-1, self)}
			case 2:
				if self+1 < numProcs {
					callee := self + 1 + rng.Intn(numProcs-self-1)
					if rng.Intn(4) == 0 {
						callee = self
					}
					return &ir.Call{Callee: procName(callee)}
				}
			}
		}
		n := 1 + rng.Intn(4)
		seq := make([]ir.Cmd, n)
		for i := range seq {
			seq[i] = randPrim()
		}
		return &ir.Seq{Cmds: seq}
	}
	prog := ir.NewProgram(procName(0))
	for i := 0; i < numProcs; i++ {
		body := make([]ir.Cmd, 2+rng.Intn(3))
		for j := range body {
			body[j] = randCmd(2, i)
		}
		prog.Add(&ir.Proc{Name: procName(i), Body: &ir.Seq{Cmds: body}})
	}
	taint := killgen.NewTaint(prog, killgen.TaintConfig{
		Sources: []string{"src"},
		Sinks:   []string{"emit"},
	})
	return prog, taint
}

func TestCompressedMatchesRawRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		prog, taint := randomKillgenProgram(rng)
		an, err := core.NewAnalysis[string, string, string](taint, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		init := taint.Initial()
		label := fmt.Sprintf("trial%d", trial)
		tdVariants(t, label, an, init, core.TDConfig())

		cfg := core.DefaultConfig()
		cfg.K = 1
		base := an.RunSwift(init, cfg)
		cfg.NoTransferMemo = true
		plain := an.RunSwift(init, cfg)
		if base.Err != nil || plain.Err != nil {
			t.Fatalf("%s: swift: %v / %v", label, base.Err, plain.Err)
		}
		sameTD(t, label+"/swift", base.TD, plain.TD)
		if base.BUStats != plain.BUStats || !reflect.DeepEqual(base.Triggered, plain.Triggered) {
			t.Errorf("%s: swift diverged with memo disabled", label)
		}
	}
}

func TestCompressedMatchesRawOnTestdata(t *testing.T) {
	src, err := os.ReadFile("../../testdata/mirror.mj")
	if err != nil {
		t.Fatal(err)
	}
	// Both runs share one build — and hence one typestate interner — so the
	// AbsID numbering is identical and the tables are directly comparable.
	// (The interner assigns IDs in first-encounter order, which differs
	// between traversal orders; separate builds would produce semantically
	// equal tables under different numberings.)
	b, err := driver.FromSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.TDConfig()
	comp, err := b.Run("td", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RawCFG = true
	cfg.NoTransferMemo = true
	raw, err := b.Run("td", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Err != nil || raw.Err != nil {
		t.Fatalf("td: %v / %v", comp.Err, raw.Err)
	}
	sameTD(t, "mirror.mj", comp.TD, raw.TD)
}

// TestCompressedMatchesRawOnBenchSuite drives the full pipeline on the
// smaller paper-mirror benchmarks: identical tables, counters and
// therefore identical WorkUnits (the quantity the results/ tables print).
func TestCompressedMatchesRawOnBenchSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-suite equivalence is not a -short test")
	}
	for _, tc := range []struct {
		name   string
		engine string
	}{
		{"jpat-p", "td"}, {"jpat-p", "bu"},
		{"elevator", "td"}, {"elevator", "bu"},
		{"toba-s", "td"},
	} {
		t.Run(tc.name+"/"+tc.engine, func(t *testing.T) {
			p, ok := benchprog.ProfileByName(tc.name)
			if !ok {
				t.Fatalf("unknown profile %s", tc.name)
			}
			prog, err := benchprog.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			// One build for both runs: shared interner, comparable AbsIDs
			// (see TestCompressedMatchesRawOnTestdata).
			b, err := driver.FromHIR(prog)
			if err != nil {
				t.Fatal(err)
			}
			run := func(raw bool) *driver.Result {
				cfg := core.DefaultConfig()
				cfg.RawCFG = raw
				cfg.NoTransferMemo = raw
				res, err := b.Run(tc.engine, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Err != nil {
					t.Fatalf("%s raw=%v: %v", tc.engine, raw, res.Err)
				}
				return res
			}
			comp, raw := run(false), run(true)
			sameTD(t, tc.name, comp.TD, raw.TD)
			if comp.WorkUnits() != raw.WorkUnits() {
				t.Errorf("work units: %d vs %d", comp.WorkUnits(), raw.WorkUnits())
			}
			if comp.BUStats != raw.BUStats {
				t.Errorf("bu stats: %+v vs %+v", comp.BUStats, raw.BUStats)
			}
		})
	}
}
