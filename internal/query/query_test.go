package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"swift/internal/core"
	"swift/internal/driver"
)

var allEngines = []string{"td", "bu", "swift"}

// badProgram misuses two of its three tracked Files (h1 read-before-open,
// h2 double-open) through a helper, leaving h3 clean.
const badProgram = `
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}
class Worker {
  method use(f) { f.read(); }
  method openTwice(f) { f.open(); f.open(); }
}
class Main {
  method main() {
    w = new Worker @w1
    a = new File @h1
    b = new File @h2
    c = new File @h3
    w.use(a)
    w.openTwice(b)
    c.open()
    c.read()
    c.close()
  }
}
`

// randomSource mirrors the driver package's seeded program generator:
// several tracked sites, helper methods with protocol-violating operation
// sequences, loops, branches and aliasing.
func randomSource(rng *rand.Rand) string {
	ops := []string{"open", "close", "read"}
	nSites := 1 + rng.Intn(4)
	nMethods := 1 + rng.Intn(3)

	var body func(depth int) string
	body = func(depth int) string {
		n := 1 + rng.Intn(3)
		out := ""
		for i := 0; i < n; i++ {
			switch k := rng.Intn(6); {
			case k == 0 && depth > 0:
				out += "while (*) { " + body(depth-1) + "} "
			case k == 1 && depth > 0:
				out += "if (*) { " + body(depth-1) + "} "
			case k == 2:
				out += "g = f; g." + ops[rng.Intn(len(ops))] + "(); "
			default:
				out += "f." + ops[rng.Intn(len(ops))] + "(); "
			}
		}
		return out
	}

	src := `
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}
class Worker {
`
	for m := 0; m < nMethods; m++ {
		src += fmt.Sprintf("  method m%d(f) { %s}\n", m, body(2))
	}
	src += "}\nclass Main {\n  method main() {\n    w = new Worker @w\n"
	for s := 0; s < nSites; s++ {
		src += fmt.Sprintf("    f%d = new File @h%d\n", s, s)
	}
	src += "    u = new Worker @u0\n"
	for c := 0; c < 2+rng.Intn(4); c++ {
		src += fmt.Sprintf("    w.m%d(f%d)\n", rng.Intn(nMethods), rng.Intn(nSites))
	}
	src += "  }\n}\n"
	return src
}

// sweepQueries enumerates the full query space of a program: isError per
// site, statesAt per (site, proc, node), canReach per (site, proc, node,
// state).
func sweepQueries(e *Engine, b *driver.Build) []Query {
	var qs []Query
	procs := append([]string(nil), b.Core.CFG.Program.ProcNames()...)
	sort.Strings(procs)
	for _, site := range e.TrackedSites() {
		qs = append(qs, Query{Kind: KindIsError, Site: site})
		states, _ := b.TS.SiteStates(site)
		for _, proc := range procs {
			for n := range b.Core.CFG.ByProc[proc].Nodes {
				qs = append(qs, Query{Kind: KindStatesAt, Site: site, Proc: proc, Node: n})
				for _, st := range states {
					qs = append(qs, Query{Kind: KindCanReach, Site: site, Proc: proc, Node: n, State: st})
				}
			}
		}
	}
	return qs
}

// exhaustiveSiteStates renders one site's sorted distinct state names at a
// global node from a completed monolithic run.
func exhaustiveSiteStates(b *driver.Build, res *driver.Result, site string, node int) []string {
	var names []string
	for _, s := range res.TD.NodeStates(node) {
		if b.TS.Site(s) == site {
			names = append(names, b.TS.StateName(s))
		}
	}
	sort.Strings(names)
	j := 0
	for i, n := range names {
		if i == 0 || n != names[j-1] {
			names[j] = n
			j++
		}
	}
	return names[:j]
}

// checkAgainstExhaustive runs the full query sweep under every engine and
// asserts the acceptance contract: isError answers reconstruct the
// exhaustive error report exactly; a canReach sweep over error states
// reconstructs it too; and under the exhaustive engines (td, bu) statesAt
// and canReach equal the exhaustive run's per-node NodeStates.
func checkAgainstExhaustive(t *testing.T, label, src string) {
	t.Helper()
	for _, engine := range allEngines {
		b, err := driver.FromSource(src)
		if err != nil {
			t.Fatalf("%s: FromSource: %v", label, err)
		}
		cfg := core.DefaultConfig()
		cfg.K = 1 // exercise the bottom-up side in the hybrid
		mono, err := b.Run(engine, cfg)
		if err != nil {
			t.Fatalf("%s/%s: Run: %v", label, engine, err)
		}
		wantReport, err := b.ErrorReport(mono)
		if err != nil {
			t.Fatalf("%s/%s: ErrorReport: %v", label, engine, err)
		}
		e, err := New(b, engine, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs := sweepQueries(e, b)
		answers, stats, err := e.AnswerBatch(qs)
		if err != nil {
			t.Fatalf("%s/%s: AnswerBatch: %v", label, engine, err)
		}
		if stats.Slices != len(e.TrackedSites()) {
			t.Errorf("%s/%s: sweep coalesced to %d slices, want %d",
				label, engine, stats.Slices, len(e.TrackedSites()))
		}

		var gotReport []string
		reachError := map[string]bool{}
		for i, a := range answers {
			q := qs[i]
			switch q.Kind {
			case KindIsError:
				if a.Reachable {
					gotReport = append(gotReport, q.Site)
				}
			case KindCanReach:
				errState, err := b.TS.SiteErrorState(q.Site)
				if err != nil {
					t.Fatal(err)
				}
				if q.State == errState && a.Reachable {
					reachError[q.Site] = true
				}
			}
		}
		sort.Strings(gotReport)
		if len(gotReport) == 0 {
			gotReport = nil
		}
		var want []string = wantReport
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(gotReport, want) {
			t.Errorf("%s/%s: isError sweep = %v, exhaustive report %v",
				label, engine, gotReport, wantReport)
		}
		var reachReport []string
		for s := range reachError {
			reachReport = append(reachReport, s)
		}
		sort.Strings(reachReport)
		if len(reachReport) == 0 {
			reachReport = nil
		}
		if !reflect.DeepEqual(reachReport, want) {
			t.Errorf("%s/%s: canReach(error) sweep = %v, exhaustive report %v",
				label, engine, reachReport, wantReport)
		}

		if engine != "td" && engine != "bu" {
			continue
		}
		for i, a := range answers {
			q := qs[i]
			if q.Kind == KindIsError {
				continue
			}
			node := b.Core.CFG.ByProc[q.Proc].Nodes[q.Node].ID
			want := exhaustiveSiteStates(b, mono, q.Site, node)
			switch q.Kind {
			case KindStatesAt:
				got := a.States
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: %s = %v, exhaustive %v", label, engine, q, got, want)
				}
			case KindCanReach:
				wantReach := false
				for _, s := range want {
					if s == q.State {
						wantReach = true
					}
				}
				if a.Reachable != wantReach {
					t.Errorf("%s/%s: %s = %v, exhaustive %v", label, engine, q, a.Reachable, wantReach)
				}
			}
		}
	}
}

// TestQueriesMatchExhaustiveFixture pins the acceptance contract on the
// fixture program.
func TestQueriesMatchExhaustiveFixture(t *testing.T) {
	checkAgainstExhaustive(t, "bad", badProgram)
}

// TestQueriesMatchExhaustiveRandomPrograms is the seeded random-program
// property test: for every generated program and engine, query answers
// agree with the exhaustive run.
func TestQueriesMatchExhaustiveRandomPrograms(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		src := randomSource(rng)
		checkAgainstExhaustive(t, fmt.Sprintf("rand%d", trial), src)
	}
}

// answerFingerprint renders a batch's answers for byte-level comparison.
func answerFingerprint(answers []Answer) string {
	out := ""
	for _, a := range answers {
		out += fmt.Sprintf("%s -> reach=%v states=%v\n", a.Query, a.Reachable, a.States)
	}
	return out
}

// TestBatchDeterminism is the -race determinism test: the same batch,
// shuffled, against fresh engines at several worker counts — and again
// against a warm memo — produces identical answers per query.
func TestBatchDeterminism(t *testing.T) {
	b, err := driver.FromSource(badProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 1
	base, err := New(b, "swift", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := sweepQueries(base, b)
	answers, _, err := base.AnswerBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	byQuery := map[string]string{}
	for i, a := range answers {
		byQuery[qs[i].String()] = fmt.Sprintf("reach=%v states=%v", a.Reachable, a.States)
	}

	rng := rand.New(rand.NewSource(99))
	for _, workers := range []int{1, 2, 8} {
		shuffled := append([]Query(nil), qs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		wcfg := cfg
		wcfg.SliceWorkers = workers
		e, err := New(b, "swift", wcfg, nil) // fresh engine and memo
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // cold, then warm
			got, stats, err := e.AnswerBatch(shuffled)
			if err != nil {
				t.Fatalf("workers=%d pass=%d: %v", workers, pass, err)
			}
			if pass == 1 && stats.Misses != 0 {
				t.Errorf("workers=%d: warm pass recomputed %d slices", workers, stats.Misses)
			}
			for i, a := range got {
				key := shuffled[i].String()
				if s := fmt.Sprintf("reach=%v states=%v", a.Reachable, a.States); s != byQuery[key] {
					t.Errorf("workers=%d pass=%d: %s = %s, want %s", workers, pass, key, s, byQuery[key])
				}
			}
		}
	}
}

// TestConcurrentAnswering hammers one engine (shared memo) from many
// goroutines under -race: answers stay consistent and the memo never
// serves a wrong table.
func TestConcurrentAnswering(t *testing.T) {
	b, err := driver.FromSource(badProgram)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(b, "td", core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := sweepQueries(e, b)
	want, _, err := e.AnswerBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := answerFingerprint(want)

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			shuffled := append([]Query(nil), qs...)
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got, _, err := e.AnswerBatch(shuffled)
			if err != nil {
				errs <- err
				return
			}
			byQ := map[string]Answer{}
			for i, a := range got {
				byQ[shuffled[i].String()] = a
			}
			ordered := make([]Answer, len(qs))
			for i, q := range qs {
				ordered[i] = byQ[q.String()]
				ordered[i].Query = q
			}
			if fp := answerFingerprint(ordered); fp != wantFP {
				errs <- fmt.Errorf("concurrent answers diverged:\n%s\nwant:\n%s", fp, wantFP)
				return
			}
			errs <- nil
		}(int64(w))
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidate covers every rejection path, none of which may run any
// analysis.
func TestValidate(t *testing.T) {
	b, err := driver.FromSource(badProgram)
	if err != nil {
		t.Fatal(err)
	}
	memo := driver.NewSliceMemo(0)
	e, err := New(b, "td", core.DefaultConfig(), memo)
	if err != nil {
		t.Fatal(err)
	}
	proc := b.Core.CFG.Program.ProcNames()[0]
	bad := []Query{
		{Kind: "reaches", Site: "h1"},                                        // unknown kind
		{Kind: KindIsError, Site: "h9"},                                      // unknown site
		{Kind: KindIsError, Site: "w1"},                                      // untracked site
		{Kind: KindStatesAt, Site: "h1", Proc: "Nope.m", Node: 0},            // unknown proc
		{Kind: KindStatesAt, Site: "h1", Proc: proc, Node: -1},               // node underflow
		{Kind: KindStatesAt, Site: "h1", Proc: proc, Node: 1 << 20},          // node overflow
		{Kind: KindCanReach, Site: "h1", Proc: proc, Node: 0, State: "ajar"}, // unknown state
	}
	for _, q := range bad {
		if err := e.Validate(q); err == nil {
			t.Errorf("Validate(%v) accepted an invalid query", q)
		}
	}
	// An invalid query fails the whole batch before any slice runs.
	if _, _, err := e.AnswerBatch([]Query{{Kind: KindIsError, Site: "h1"}, bad[0]}); err == nil {
		t.Error("batch with an invalid query should fail")
	}
	if s := memo.Stats(); s.Entries != 0 || s.Misses != 0 {
		t.Errorf("validation ran analysis work: %+v", s)
	}
	good := []Query{
		{Kind: KindIsError, Site: "h1"},
		{Kind: KindStatesAt, Site: "h1", Proc: proc, Node: 0},
		{Kind: KindCanReach, Site: "h1", Proc: proc, Node: 0, State: "opened"},
	}
	for _, q := range good {
		if err := e.Validate(q); err != nil {
			t.Errorf("Validate(%v): %v", q, err)
		}
	}
}

// TestParseKind pins the kind namespace.
func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(string(k))
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k, got, err)
		}
	}
	for _, s := range []string{"", "IsError", "canreach", "states"} {
		if _, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) should fail", s)
		}
	}
}
