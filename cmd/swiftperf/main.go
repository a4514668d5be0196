package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"swift/cmd/swiftperf/internal/perf"
)

func main() {
	os.Exit(perfMain(os.Args[1:], os.Stdout, os.Stderr))
}

func perfMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swiftperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all (each in a fresh process)")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as JSON to this file")
	jsonOut := fs.String("json", "", "append the run's record to this JSON file")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments: BASE CHANGE")
	scale := fs.Bool("scale", false, "run the scale-test instead of a workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "swiftperf: -compare takes two -json files: BASE CHANGE")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "swiftperf: unexpected arguments %q\n", fs.Args())
		return 2
	case *scale:
		if err := perf.Scale(stdout); err != nil {
			fmt.Fprintln(stderr, "swiftperf:", err)
			return 1
		}
		return 0
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "swiftperf: -seconds must be positive and -trace 0 or 1")
		return 2
	case *workload == "all":
		return runAll(*seed, *seconds, *trace, *traceOut, *jsonOut, stdout, stderr)
	}
	w, ok := perf.WorkloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "swiftperf: unknown workload %q\n", *workload)
		return 2
	}
	dir, err := os.MkdirTemp("", "swiftperf-")
	if err != nil {
		fmt.Fprintln(stderr, "swiftperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := perf.Options{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Dir:      dir,
		Log:      stderr,
	}
	if err := runOne(w, o, *traceOut, *jsonOut, stdout); err != nil {
		fmt.Fprintln(stderr, "swiftperf:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process and prints its lines, the
// last being the JSON result.
func runOne(w perf.Workload, o perf.Options, traceOut, jsonOut string, stdout io.Writer) error {
	rep, spans, err := perf.Run(w, o)
	if err != nil {
		return err
	}
	defs := perf.EndToEnd
	if o.Trace {
		defs = perf.PerLayer
	}
	rep.Print(stdout, defs)
	if o.Trace && traceOut != "" {
		data, err := json.Marshal(struct {
			Workload string      `json:"workload"`
			Spans    []perf.Span `json:"spans"`
		}{w.Name, spans})
		if err == nil {
			err = os.WriteFile(traceOut, data, 0o644)
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", traceOut, err)
		}
	}
	if jsonOut != "" {
		if err := perf.AppendRecord(jsonOut, perf.NewRecord(rep, o)); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
	}
	line, err := rep.ResultJSON()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runAll re-executes this binary once per workload, so that peak RSS and
// the collector's state never carry over from one workload to the next.
// With -trace-out, each workload's spans go to FILE-<workload>.json.
func runAll(seed int64, seconds float64, trace int, traceOut, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "swiftperf:", err)
		return 1
	}
	status := 0
	for _, w := range perf.Workloads() {
		child := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-json", jsonOut}
		if traceOut != "" {
			child = append(child, "-trace-out", strings.TrimSuffix(traceOut, ".json")+"-"+w.Name+".json")
		}
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "swiftperf: %s: %v\n", w.Name, err)
			status = 1
		}
	}
	return status
}

func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := perf.ReadFile(basePath)
	if err == nil {
		var change *perf.File
		if change, err = perf.ReadFile(changePath); err == nil {
			err = perf.Compare(stdout, base, change)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "swiftperf:", err)
		return 1
	}
	return 0
}
