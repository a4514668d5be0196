package perf

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"
)

type kind int

const (
	batchKind kind = iota
	cachedKind
	editsKind
)

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	// Why records what the workload stresses and what it bypasses.
	Why  string
	kind kind
	// Engine is the engine of a batch workload.
	Engine string
	// Programs are the benchprog profiles the workload draws on; a
	// serve-edits workload edits the first one.
	Programs []string
	// Clients is the number of closed-loop clients of a serve workload,
	// each with its own connection.
	Clients int
	// QueryBatch is the number of queries in each /query request.
	QueryBatch int
	// Singles and Versions size the serve-edits stream: the first Singles
	// edits of benchprog.EditStream, topped up with seeded two-edit
	// combinations to Versions distinct programs.
	Singles, Versions int
	// InterpSeeds is the number of concrete executions per program behind
	// the batch soundness check.
	InterpSeeds int
}

// Workloads returns the benchmark's workloads. The batch ones measure the
// engines alone; the serve ones measure swiftd under closed-loop load, the
// way CI jobs and IDE plugins call it: each waits for its reply.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "batch-swift", kind: batchKind, Engine: "swift",
			Programs:    []string{"toba-s", "javasrc-p", "hedc", "antlr"},
			InterpSeeds: 20,
			Why:         "the paper's engine: hybrid triggers, pruned bottom-up summaries and dense FIFO tabulation; the sparse scheduler is bypassed",
		},
		{
			Name: "batch-td", kind: batchKind, Engine: "td",
			Programs:    []string{"toba-s", "javasrc-p", "hedc", "deep-nest"},
			InterpSeeds: 20,
			Why:         "the order-insensitive solver: compressed view, compiled transfers, sparse scheduler, region memo; no bottom-up work",
		},
		{
			Name: "serve-cached", kind: cachedKind,
			Programs: []string{"toba-s", "javasrc-p", "hedc"},
			Clients:  2, QueryBatch: 8,
			Why: "read-heavy swiftd load answered from the result cache and slice memo: front end, digests, store and JSON dominate",
		},
		{
			Name: "serve-edits", kind: editsKind,
			Programs: []string{"javasrc-p"},
			Clients:  2, QueryBatch: 5, Singles: 90, Versions: 200,
			Why: "write-heavy swiftd load of unseen program versions: engine runs on a warm summary store, store writes, demand slices",
		},
	}
}

// WorkloadByName finds a workload of Workloads.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Options are the settings of one run.
type Options struct {
	// Seed makes the run's inputs: round order, request mix, edit draw
	// and query batches.
	Seed int64
	// Duration is the length of the measured phase; a traced run splits
	// it between an untraced and a traced half.
	Duration time.Duration
	// Trace selects the traced run, which reports per-layer metrics.
	Trace bool
	// Dir holds the run's stores; the run removes what it creates there.
	Dir string
	// Log receives progress lines.
	Log io.Writer
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// Run measures one workload.
func Run(w Workload, o Options) (*Report, []Span, error) {
	switch w.kind {
	case batchKind:
		return runBatch(w, o)
	case cachedKind, editsKind:
		return runServe(w, o)
	}
	return nil, nil, fmt.Errorf("perf: workload %q has no runner", w.Name)
}

// recorder collects the per-class latency samples and outcomes of one
// measured phase. Safe for concurrent use.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]float64
	ops     int
	failed  int
	wrong   int
	checks  int
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

// add records one operation; a failed one contributes no latency.
func (r *recorder) add(class string, lat time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if !ok {
		r.failed++
		return
	}
	r.samples[class] = append(r.samples[class], ms(lat))
}

// check records one oracle check.
func (r *recorder) check(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks++
	if !ok {
		r.wrong++
	}
}

// classes returns the recorded classes in sorted order.
func (r *recorder) classes() []string {
	var out []string
	for c := range r.samples {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// latencyP50 is the geomean over classes of each class's median latency
// (ms): every program, or request kind, weighs the same however many
// samples it got.
func (r *recorder) latencyP50() (float64, int, error) {
	var meds []float64
	n := 0
	for _, c := range r.classes() {
		meds = append(meds, Median(r.samples[c]))
		n += len(r.samples[c])
	}
	g, err := Geomean(meds)
	return g, n, err
}

// mergeInto folds the phase's outcomes into the report.
func (r *recorder) mergeInto(rep *Report) {
	rep.Attempted += r.ops
	rep.Failed += r.failed
	rep.Wrong += r.wrong
	rep.Checks += r.checks
}

// measureSetup runs setup setupRepeats times, tearing down every instance
// but the last, and returns the last instance and the set-up times (s).
// Each set-up, and the measured phase after the last, starts from a
// collected heap.
func measureSetup[T any](setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var inst T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(inst)
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return inst, times, nil
}

// endToEnd fills the report's EndToEnd metrics from a measured phase.
// busy is the time the phase's operations ran for (ops_per_s) and cpu the
// process CPU time they used.
func endToEnd(rep *Report, setups []float64, ph *recorder, busy, cpu time.Duration) error {
	if ph.ops == 0 || ph.ops == ph.failed {
		return fmt.Errorf("perf: %s completed no operation", rep.Workload)
	}
	p50, n, err := ph.latencyP50()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	done := ph.ops - ph.failed
	rep.Metrics = map[string]Value{
		"setup_s":        {Median(setups), "s", len(setups)},
		"latency_p50_ms": {p50, "ms", n},
		"ops_per_s":      {float64(done) / busy.Seconds(), "1/s", done},
		"cpu_ms_per_op":  {ms(cpu) / float64(done), "ms", done},
		"peak_rss_mb":    {rss, "MB", 1},
	}
	rep.add("", "cpu_s", cpu.Seconds(), "s", done)
	return nil
}

// correctness appends the failure and oracle counters as detail rows.
func correctness(rep *Report) {
	rate := 0.0
	if rep.Attempted > 0 {
		rate = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.add("", "error_rate", rate, "ratio", rep.Attempted)
	rep.add("", "wrong_answers", float64(rep.Wrong), "count", rep.Checks)
}

func logf(o Options, format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}
