package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// RunRecord is one run as the -json file keeps it.
type RunRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Time     string  `json:"time"`
	Env
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Wrong     int              `json:"wrong_answers"`
	Metrics   map[string]Value `json:"metrics"`
	Detail    []Row            `json:"detail"`
}

// NewRecord wraps a report with the settings and host it was measured on.
func NewRecord(rep *Report, o Options) RunRecord {
	return RunRecord{
		Workload: rep.Workload, Seed: o.Seed, Seconds: o.Duration.Seconds(), Trace: o.Trace,
		Time: time.Now().UTC().Format(time.RFC3339), Env: HostEnv(),
		Correct: rep.Correct(), Attempted: rep.Attempted, Failed: rep.Failed, Wrong: rep.Wrong,
		Metrics: rep.Metrics, Detail: rep.Detail,
	}
}

// File is a -json file: every run appended to it so far, in run order.
type File struct {
	Schema string      `json:"schema"`
	Runs   []RunRecord `json:"runs"`
}

const schema = "swiftperf/1"

// ReadFile reads a -json file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("perf: %s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// AppendRecord adds a run to the -json file at path, creating it if
// needed. The file is replaced atomically.
func AppendRecord(path string, r RunRecord) error {
	f, err := ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &File{Schema: schema}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".swiftperf-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// minPairs is the fewest runs per side Compare accepts.
const minPairs = 10

// Verdicts, worst first.
const (
	Worse      = "worse"
	Unresolved = "unresolved"
	Improved   = "improved"
	Unchanged  = "unchanged"
)

var verdictRank = map[string]int{Worse: 0, Unresolved: 1, Improved: 2, Unchanged: 3}

// Comparison is the verdict on one end-to-end metric of one workload.
type Comparison struct {
	Base, Change [3]float64 // quartiles: q1, median, q3
	Wins, Pairs  int        // pairs the change won; ties count for neither
	Verdict      string
}

// CompareSamples judges a change against its base from runs made in
// alternating order (base[i] and change[i] form pair i). It reports
// "improved" only when the change wins at least nine tenths of the pairs
// and the medians differ by more than the base's interquartile range;
// "unresolved" when the base's spread is wider than the metric's bound and
// not every change run beats every base run; "worse" when the change's
// median is worse than the base's by more than the bound; "unchanged"
// otherwise.
func CompareSamples(def MetricDef, base, change []float64) (Comparison, error) {
	if len(base) < minPairs || len(change) < minPairs {
		return Comparison{}, fmt.Errorf("perf: %s: %d base and %d change runs, need at least %d of each",
			def.Name, len(base), len(change), minPairs)
	}
	var c Comparison
	c.Base[0], c.Base[1], c.Base[2] = Quartiles(base)
	c.Change[0], c.Change[1], c.Change[2] = Quartiles(change)
	better := func(a, b float64) bool {
		if def.Better == Higher {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(base), len(change))
	for i := 0; i < c.Pairs; i++ {
		if better(change[i], base[i]) {
			c.Wins++
		}
	}
	bMed, cMed := c.Base[1], c.Change[1]
	iqr := c.Base[2] - c.Base[0]
	gap := cMed - bMed
	if gap < 0 {
		gap = -gap
	}
	allBetter := true
	for _, x := range change {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case c.Wins*10 >= 9*c.Pairs && gap > iqr && better(cMed, bMed):
		c.Verdict = Improved
	case iqr > def.Bound*bMed && !allBetter:
		c.Verdict = Unresolved
	case better(bMed, cMed) && gap > def.Bound*bMed:
		c.Verdict = Worse
	default:
		c.Verdict = Unchanged
	}
	return c, nil
}

// Compare judges every end-to-end metric of every workload the two -json
// files share, from their untraced runs: one row per metric, then one row
// per workload carrying its worst verdict.
func Compare(w io.Writer, base, change *File) error {
	samples := func(f *File, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace {
				out = append(out, r.Metrics[metric].Value)
			}
		}
		return out
	}
	compared := 0
	for _, wl := range Workloads() {
		if len(samples(base, wl.Name, "setup_s")) == 0 || len(samples(change, wl.Name, "setup_s")) == 0 {
			continue
		}
		worst := Unchanged
		for _, def := range EndToEnd {
			c, err := CompareSamples(def, samples(base, wl.Name, def.Name), samples(change, wl.Name, def.Name))
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			fmt.Fprintf(w, "workload=%s metric=%s base_q1=%s base_median=%s base_q3=%s change_q1=%s change_median=%s change_q3=%s wins=%d/%d verdict=%s\n",
				wl.Name, def.Name, fmtFloat(c.Base[0]), fmtFloat(c.Base[1]), fmtFloat(c.Base[2]),
				fmtFloat(c.Change[0]), fmtFloat(c.Change[1]), fmtFloat(c.Change[2]), c.Wins, c.Pairs, c.Verdict)
			if verdictRank[c.Verdict] < verdictRank[worst] {
				worst = c.Verdict
			}
		}
		fmt.Fprintf(w, "workload=%s verdict=%s\n", wl.Name, worst)
		compared++
	}
	if compared == 0 {
		return fmt.Errorf("perf: the two files share no workload with untraced runs")
	}
	return nil
}
