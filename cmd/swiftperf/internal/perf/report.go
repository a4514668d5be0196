package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Better says which direction of a metric is an improvement.
type Better string

const (
	Lower  Better = "lower"
	Higher Better = "higher"
)

// MetricDef names one reported metric. Bound is the share of the base
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type MetricDef struct {
	Name   string
	Unit   string
	Better Better
	Bound  float64
}

// EndToEnd lists the metrics every untraced run reports, on every
// workload. BENCHMARK.json at the repository root carries the same table.
var EndToEnd = []MetricDef{
	{"setup_s", "s", Lower, 0.25},
	{"latency_p50_ms", "ms", Lower, 0.25},
	{"ops_per_s", "1/s", Higher, 0.25},
	{"cpu_ms_per_op", "ms", Lower, 0.25},
	{"peak_rss_mb", "MB", Lower, 0.2},
}

// PerLayer lists the metrics every traced run reports, on every workload.
// Times are self times per traced operation; counts of engine work are
// means per engine run. A layer a workload does not exercise reports 0,
// which is why only the front-end layers, which every workload runs,
// report times here; the other layers' times are printed as detail rows.
var PerLayer = []MetricDef{
	{"hir.validate_ms", "ms", Lower, 0},
	{"pointer.analyze_ms", "ms", Lower, 0},
	{"lower.lower_ms", "ms", Lower, 0},
	{"typestate.new_ms", "ms", Lower, 0},
	{"core.new_ms", "ms", Lower, 0},
	{"core.work_units", "count", Lower, 0},
	{"core.path_edges", "count", Lower, 0},
	{"core.steps", "count", Lower, 0},
	{"core.td_summaries", "count", Lower, 0},
	{"core.engine_alloc_mb", "MB", Lower, 0},
	{"core.engine_mallocs", "count", Lower, 0},
	{"core.sparse_pops", "count", Lower, 0},
	{"core.pops_per_step", "ratio", Lower, 0},
	{"core.stale_pops", "count", Lower, 0},
	{"core.region_hit_ratio", "ratio", Higher, 0},
	{"core.triggers", "count", Lower, 0},
	{"core.bu_relations", "count", Lower, 0},
	{"core.bu_steps", "count", Lower, 0},
	{"core.bu_failed", "count", Lower, 0},
	{"core.calls_via_bu", "count", Higher, 0},
	{"core.calls_in_sigma", "count", Lower, 0},
	{"core.bu_coverage", "ratio", Higher, 0},
	{"driver.warm_summary_hit_ratio", "ratio", Higher, 0},
	{"driver.warm_restored_ratio", "ratio", Higher, 0},
	{"driver.encode_kb", "KB", Lower, 0},
	{"store.puts", "count", Lower, 0},
	{"store.disk_kb", "KB", Lower, 0},
	{"store.hit_ratio", "ratio", Higher, 0},
	{"query.slice_memo_hit_ratio", "ratio", Higher, 0},
	{"query.slices_per_batch", "count", Lower, 0},
	{"query.slice_work", "count", Lower, 0},
	{"swiftd.result_hit_ratio", "ratio", Higher, 0},
	{"swiftd.engine_runs", "count", Lower, 0},
	{"swiftd.coalesced", "count", Higher, 0},
	{"swiftd.shed", "count", Lower, 0},
	{"swiftd.in_flight_peak", "count", Lower, 0},
	{"runtime.gc_cycles", "count", Lower, 0},
	{"runtime.gc_pause_ms", "ms", Lower, 0},
}

// Value is one measured metric value with its sample count.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Row is a detail line printed beside the metric table: a per-program or
// per-request-class breakdown, a layer time, the correctness counters.
type Row struct {
	Label  string `json:"label,omitempty"` // e.g. "program=antlr"
	Metric string `json:"metric"`
	Value
}

// Report is the outcome of one workload run.
type Report struct {
	Workload string
	// Metrics holds the EndToEnd metrics of an untraced run, or the
	// PerLayer metrics of a traced one.
	Metrics map[string]Value
	Detail  []Row
	// Attempted counts the operations of the measured phase (engine runs
	// or HTTP requests); Failed those that did not complete (a non-200
	// response or an aborted run); Wrong the oracle checks that failed,
	// out of Checks.
	Attempted, Failed int
	Wrong, Checks     int
}

func (r *Report) add(label, metric string, v float64, unit string, n int) {
	r.Detail = append(r.Detail, Row{Label: label, Metric: metric, Value: Value{v, unit, n}})
}

// check records one oracle check.
func (r *Report) check(ok bool) {
	r.Checks++
	if !ok {
		r.Wrong++
	}
}

// Correct reports whether every oracle check passed.
func (r *Report) Correct() bool { return r.Wrong == 0 }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Print writes one "workload=… metric=… value=… unit=… n=…" line per
// metric (in table order), then the detail rows.
func (r *Report) Print(w io.Writer, defs []MetricDef) {
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "workload=%s metric=%s value=%s unit=%s n=%d\n", r.Workload, d.Name, fmtFloat(v.Value), v.Unit, v.N)
	}
	for _, row := range r.Detail {
		label := ""
		if row.Label != "" {
			label = row.Label + " "
		}
		fmt.Fprintf(w, "workload=%s %smetric=%s value=%s unit=%s n=%d\n", r.Workload, label, row.Metric, fmtFloat(row.Value.Value), row.Unit, row.N)
	}
}

// resultLine is the machine-readable last line of a run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ResultJSON renders the report's last output line.
func (r *Report) ResultJSON() ([]byte, error) {
	out := resultLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = metricValue{v.Value, v.Unit}
	}
	return json.Marshal(out)
}
