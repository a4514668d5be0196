package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := cliMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFlagValidation pins the bugfix for silent no-op runs: a -table or
// -figure that does not exist must exit 2 with a diagnostic and usage,
// not exit 0 having rendered nothing.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"table too high", []string{"-table", "5"}, "-table 5 does not exist"},
		{"table negative", []string{"-table", "-1"}, "-table -1 does not exist"},
		{"figure wrong", []string{"-figure", "4"}, "-figure 4 does not exist"},
		{"no selection", []string{"-quick"}, "Usage"},
		{"stray args", []string{"-table", "1", "stray"}, "unexpected arguments"},
		{"storedir without warmbench", []string{"-table", "1", "-storedir", "/tmp/x"}, "-storedir is only meaningful"},
		{"edits below one", []string{"-editbench", "-edits", "0"}, "-edits 0 must be at least 1"},
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"record removed", []string{"-record", "/tmp/x"}, "flag provided but not defined: -record"},
		{"replay removed", []string{"-replay", "/tmp/x"}, "flag provided but not defined: -replay"},
		{"queries without querybench", []string{"-table", "1", "-queries", "10"}, "-queries is only meaningful"},
		{"queryseed without querybench", []string{"-table", "1", "-queryseed", "3"}, "-queryseed is only meaningful"},
		{"querykinds without querybench", []string{"-table", "1", "-querykinds", "isError"}, "-querykinds is only meaningful"},
		{"querybenchmark without querybench", []string{"-table", "1", "-querybenchmark", "elevator"}, "-querybenchmark is only meaningful"},
		{"queries zero", []string{"-querybench", "-queries", "0"}, "-queries 0 must be at least 1"},
		{"queries negative", []string{"-querybench", "-queries", "-5"}, "-queries -5 must be at least 1"},
		{"unknown query kind", []string{"-querybench", "-querykinds", "canReach,reaches"}, `unknown query kind "reaches"`},
		{"soakclients without soak", []string{"-table", "1", "-soakclients", "4"}, "-soakclients is only meaningful"},
		{"soakclients below two", []string{"-soak", "-soakclients", "1"}, "-soakclients 1 must be at least 2"},
		{"nosparse removed", []string{"-table", "2", "-nosparse"}, "flag provided but not defined: -nosparse"},
		{"nostruct removed", []string{"-table", "2", "-nostruct"}, "flag provided but not defined: -nostruct"},
		{"ablation removed", []string{"-ablation"}, "flag provided but not defined: -ablation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Errorf("exit = %d, want 2", code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
			if !strings.Contains(stderr, "Usage of swiftbench") {
				t.Errorf("stderr lacks usage text:\n%s", stderr)
			}
		})
	}
}

func TestTable1Renders(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-table", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Table 1") {
		t.Errorf("stdout lacks the table:\n%s", stdout)
	}
}

// readGzipProfile fully decompresses a pprof file; a profile truncated
// by a skipped pprof.StopCPUProfile fails here with unexpected EOF.
func readGzipProfile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("profile missing: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream (flush skipped?): %v", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile truncated: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("profile checksum: %v", err)
	}
	return data
}

// TestCPUProfileFlushedOnStepFailure pins the exit-path bugfix: when a
// step fails after profiling started, the deferred StopCPUProfile and
// Close must still run, leaving a complete, parseable profile. The old
// os.Exit(1) path truncated it.
func TestCPUProfileFlushedOnStepFailure(t *testing.T) {
	profile := filepath.Join(t.TempDir(), "cpu.pprof")
	code, _, stderr := runCLI(t,
		"-quick", "-cpuprofile", profile,
		"-editbench", "-editbenchmark", "no-such-benchmark")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "editbench") {
		t.Errorf("stderr does not name the failing step:\n%s", stderr)
	}
	if len(readGzipProfile(t, profile)) == 0 {
		t.Error("profile decompressed to zero bytes")
	}
}

// TestCPUProfileFlushedOnMemprofileFailure covers the other broken exit
// path: a failing -memprofile write must exit 1 and still leave the CPU
// profile complete.
func TestCPUProfileFlushedOnMemprofileFailure(t *testing.T) {
	profile := filepath.Join(t.TempDir(), "cpu.pprof")
	code, _, stderr := runCLI(t,
		"-table", "1", "-cpuprofile", profile,
		"-memprofile", filepath.Join(t.TempDir(), "no-such-dir", "heap.pprof"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	readGzipProfile(t, profile)
}

// TestWarmbenchFlag smokes the -warmbench step end to end on a real
// store directory (full suite, quick budget, two passes inside the step).
func TestWarmbenchFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("two full suite passes")
	}
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "-quick", "-warmbench", "-storedir", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "second pass restored 12/12") {
		t.Errorf("warmbench summary missing:\n%s", stdout)
	}
}

// TestSoakFlag smokes the -soak step end to end: the in-process server
// must pass all four robustness phases.
func TestSoakFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and runs concurrent engine runs")
	}
	code, stdout, stderr := runCLI(t, "-quick", "-soak", "-soakclients", "3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, phase := range []string{"soak: coalesce", "soak: cancel", "soak: shed", "soak: drain", "soak: ok"} {
		if !strings.Contains(stdout, phase) {
			t.Errorf("soak output missing %q:\n%s", phase, stdout)
		}
	}
	if !strings.Contains(stdout, "engineRuns=1") {
		t.Errorf("coalesce phase did not report exactly one engine run:\n%s", stdout)
	}
}

// TestQuerybenchFlag smokes the -querybench step end to end on a small
// benchmark: all three engines, the table renders, and the break-even
// column is populated (the exhaustive runs complete under -quick on
// elevator, so a uniformly random stream must cross the exhaustive cost).
func TestQuerybenchFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("three exhaustive runs plus query streams")
	}
	code, stdout, stderr := runCLI(t, "-quick", "-querybench",
		"-querybenchmark", "elevator", "-queries", "100", "-queryseed", "2")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"Querybench:", "break-even", "elevator", "swift"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("querybench output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestEditbenchFlag smokes the -editbench step end to end: a short edit
// stream on a small benchmark, store in a real directory, with the
// harness's hard checks (revert byte-identity, hybrid summary reuse)
// enforced inside the step.
func TestEditbenchFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine edit stream")
	}
	code, stdout, stderr := runCLI(t, "-quick", "-editbench",
		"-editbenchmark", "elevator", "-edits", "2", "-storedir", t.TempDir())
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "revert byte-identical under td/bu/swift,") {
		t.Errorf("editbench summary missing:\n%s", stdout)
	}
}
