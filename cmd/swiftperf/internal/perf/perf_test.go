package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"swift/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden reports (each must agree under td and swift)")

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {55, 6},
	} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{42}, 99); got != 42 {
		t.Errorf("Percentile of one sample = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {9999, 99, true}, {1000, 99, true}, {999, 95, true},
		{200, 95, true}, {100, 90, true}, {99, 75, true}, {40, 75, true}, {39, 0, false}, {0, 0, false},
	} {
		p, ok := TailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, p) < 10 {
			t.Errorf("TailPercentile(%d) = p%v leaves %d samples beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestGeomean(t *testing.T) {
	g, err := Geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Errorf("Geomean(1, 4, 16) = %v, %v; want 4", g, err)
	}
	if _, err := Geomean([]float64{3, 0}); err == nil {
		t.Error("Geomean accepted a zero")
	}
	if _, err := Geomean(nil); err == nil {
		t.Error("Geomean accepted no values")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Layer: "op", Name: "run", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 60]; the third sticks out of
		// its parent and only [80, 100] counts.
		{ID: 2, Parent: 1, Layer: "core", Name: "engine", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Layer: "core", Name: "engine", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Layer: "driver", Name: "report", Start: ms(80), End: ms(120)},
		// A grandchild shortens only its own parent.
		{ID: 5, Parent: 2, Layer: "pointer", Name: "analyze", Start: ms(15), End: ms(25)},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"op.run":          ms(30),
		"core.engine":     ms(30 - 10 + 30),
		"driver.report":   ms(40),
		"pointer.analyze": ms(10),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}

	tr := NewTracer()
	root := tr.Begin(0, 1, "op", "run")
	child := tr.Begin(root, 1, "hir", "validate")
	tr.End(child)
	total := tr.End(root)
	self := SelfTimes(tr.Spans())
	if self["op.run"]+self["hir.validate"] != total {
		t.Errorf("self times %v do not add up to the root's %v", self, total)
	}
}

func TestCompareVerdicts(t *testing.T) {
	series := func(base float64, step float64) []float64 {
		var out []float64
		for i := 0; i < 10; i++ {
			out = append(out, base+step*float64(i%5))
		}
		return out
	}
	latency := MetricDef{"latency_p50_ms", "ms", Lower, 0.10}
	rate := MetricDef{"ops_per_s", "1/s", Higher, 0.10}
	for _, c := range []struct {
		name         string
		def          MetricDef
		base, change []float64
		want         string
	}{
		{"faster", latency, series(100, 1), series(80, 1), Improved},
		{"slower beyond the bound", latency, series(100, 1), series(120, 1), Worse},
		{"slower within the bound", latency, series(100, 1), series(104, 1), Unchanged},
		{"faster but within the noise", latency, series(100, 4), series(97, 4), Unchanged},
		{"noise wider than the bound", latency, series(100, 15), series(100, 15), Unresolved},
		{"noisy but every change run better", latency, series(100, 15), series(20, 1), Improved},
		{"higher throughput", rate, series(50, 0.5), series(60, 0.5), Improved},
		{"lower throughput", rate, series(50, 0.5), series(40, 0.5), Worse},
	} {
		got, err := CompareSamples(c.def, c.base, c.change)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d), want %s", c.name, got.Verdict, got.Wins, got.Pairs, c.want)
		}
	}
	if _, err := CompareSamples(latency, series(100, 1)[:9], series(100, 1)); err == nil {
		t.Error("CompareSamples accepted 9 base runs")
	}
}

func TestCompareFiles(t *testing.T) {
	file := func(lat float64) *File {
		f := &File{Schema: schema}
		for i := 0; i < 10; i++ {
			m := map[string]Value{}
			for _, d := range EndToEnd {
				m[d.Name] = Value{Value: 1 + float64(i%3)/100, Unit: d.Unit}
			}
			m["latency_p50_ms"] = Value{Value: lat + float64(i%3), Unit: "ms"}
			f.Runs = append(f.Runs, RunRecord{Workload: "batch-td", Metrics: m},
				RunRecord{Workload: "batch-td", Trace: true})
		}
		return f
	}
	var out bytes.Buffer
	if err := Compare(&out, file(100), file(150)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "workload=batch-td metric=latency_p50_ms") ||
		!strings.Contains(out.String(), "workload=batch-td verdict=worse\n") {
		t.Errorf("Compare output:\n%s", out.String())
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.json")
	for _, r := range file(100).Runs[:2] {
		if err := AppendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	f, err := ReadFile(path)
	if err != nil || len(f.Runs) != 2 {
		t.Fatalf("ReadFile after two appends: %v runs, %v", f, err)
	}
}

func TestGrowthExponent(t *testing.T) {
	xs := []float64{2, 4, 6, 8, 10}
	var ys []float64
	for _, x := range xs {
		ys = append(ys, 3*x*x)
	}
	if k, err := GrowthExponent(xs, ys); err != nil || math.Abs(k-2) > 1e-9 {
		t.Errorf("GrowthExponent of 3x² = %v, %v", k, err)
	}
	if _, err := GrowthExponent(xs, []float64{1, 2, 0, 4, 5}); err == nil {
		t.Error("GrowthExponent accepted a zero count")
	}
}

// goldenPrograms are the profiles the golden reports cover: every program
// a workload uses, and the small ones of the smoke test.
func goldenPrograms() []string {
	var out []string
	for _, w := range Workloads() {
		for _, p := range w.Programs {
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return append(out, "jpat-p", "elevator")
}

// TestGoldenReports checks the golden reports against fresh td and swift
// runs (Theorem 3.1: both engines report the same sites), on the small
// programs under -short. With -update it rewrites them, refusing a program
// whose completed td and swift reports differ.
func TestGoldenReports(t *testing.T) {
	for _, name := range goldenPrograms() {
		small := name == "jpat-p" || name == "elevator"
		if !*update && (testing.Short() && !small || name == "antlr" || name == "hedc" || name == "deep-nest") {
			continue
		}
		prog, err := generateProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		var reports [][]string
		for _, engine := range []string{"swift", "td"} {
			_, _, sites, err := coldRun(prog, engine, batchConfig())
			if errors.Is(err, core.ErrBudget) {
				continue // td does not finish antlr within the paper budget
			}
			if err != nil {
				t.Fatalf("%s under %s: %v", name, engine, err)
			}
			reports = append(reports, sites)
		}
		if len(reports) == 2 && !slices.Equal(reports[0], reports[1]) {
			t.Fatalf("%s: swift reports %v, td %v", name, reports[0], reports[1])
		}
		if *update {
			data := strings.Join(reports[0], "\n")
			if data != "" {
				data += "\n"
			}
			if err := os.WriteFile(filepath.Join("testdata", "golden", name+".txt"), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if want, _ := Golden(name); !slices.Equal(reports[0], want) {
			t.Errorf("%s: report %v, golden %v", name, reports[0], want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range Workloads() {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, Workloads() %v", names, want)
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, EndToEnd %d", len(b.EndToEnd), len(EndToEnd))
	}
	for i, m := range b.EndToEnd {
		d := EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != string(d.Better) || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, EndToEnd %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, PerLayer %d", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range b.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != string(d.Better) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, PerLayer %+v", i, m, d)
		}
	}
}

// tiny shrinks a workload to the small profiles, for the smoke test.
func tiny(w Workload) Workload {
	switch w.kind {
	case batchKind:
		w.Programs, w.InterpSeeds = []string{"jpat-p", "elevator"}, 3
	case cachedKind:
		w.Programs = []string{"jpat-p", "elevator"}
	case editsKind:
		// Enough versions that the untraced half cannot use them all up.
		w.Programs, w.Singles, w.Versions = []string{"elevator"}, 10, 60
	}
	return w
}

// TestSmokeAllWorkloads runs every workload at tiny sizes through the real
// code, untraced and traced, and checks each prints every metric
// BENCHMARK.json names, with its unit, and answers correctly.
func TestSmokeAllWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range Workloads() {
		for _, trace := range []bool{false, true} {
			o := Options{Seed: 3, Duration: 300 * time.Millisecond, Trace: trace, Dir: t.TempDir()}
			rep, spans, err := Run(tiny(w), o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !rep.Correct() || rep.Failed != 0 || rep.Attempted == 0 || rep.Checks == 0 {
				t.Errorf("%s (trace %v): correct %v, %d/%d failed, %d/%d checks wrong",
					w.Name, trace, rep.Correct(), rep.Failed, rep.Attempted, rep.Wrong, rep.Checks)
			}
			type metric struct{ name, unit string }
			var want []metric
			defs := EndToEnd
			if trace {
				defs = PerLayer
				for _, m := range b.PerLayer {
					want = append(want, metric{m.Name, m.Unit})
				}
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			} else {
				for _, m := range b.EndToEnd {
					want = append(want, metric{m.Name, m.Unit})
				}
			}
			var out bytes.Buffer
			rep.Print(&out, defs)
			printed := map[metric]bool{}
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				f := map[string]string{}
				for _, kv := range strings.Fields(sc.Text()) {
					k, v, _ := strings.Cut(kv, "=")
					f[k] = v
				}
				printed[metric{f["metric"], f["unit"]}] = true
				if f["metric"] == "wrong_answers" && f["value"] != "0" {
					t.Errorf("%s: %s", w.Name, sc.Text())
				}
			}
			for _, m := range want {
				if !printed[m] {
					t.Errorf("%s (trace %v): metric %s with unit %s not printed:\n%s", w.Name, trace, m.name, m.unit, out.String())
				}
			}
			line, err := rep.ResultJSON()
			if err != nil {
				t.Fatal(err)
			}
			var res resultLine
			if err := json.Unmarshal(line, &res); err != nil || len(res.Metrics) != len(want) {
				t.Errorf("%s: result line %s has %d metrics, want %d", w.Name, line, len(res.Metrics), len(want))
			}
			if !trace {
				for name, v := range res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, v.Value)
					}
				}
			}
		}
	}
}
