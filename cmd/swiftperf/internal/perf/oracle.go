package perf

import (
	"embed"
	"fmt"
	"strings"

	"swift/internal/driver"
	"swift/internal/interp"
)

// The golden reports are the error sites every engine must report for
// each benchprog profile the workloads use. They were written by
// TestGoldenReports with -update, which requires the td and swift reports
// to agree (Theorem 3.1) before it writes one.
//
//go:embed testdata/golden/*.txt
var goldenFS embed.FS

// Golden returns the checked-in error-site report of a profile, sorted.
func Golden(program string) ([]string, error) {
	data, err := goldenFS.ReadFile("testdata/golden/" + program + ".txt")
	if err != nil {
		return nil, fmt.Errorf("perf: no golden report for %s: %w", program, err)
	}
	return strings.Fields(string(data)), nil
}

// soundness runs n seeded concrete executions of a built program and
// checks that every error site the interpreter observes is in the reported
// set: the abstract analysis must cover the concrete one.
func soundness(b *driver.Build, reported []string, seed int64, n int, check func(bool)) error {
	want := map[string]bool{}
	for _, s := range reported {
		want[s] = true
	}
	for i := 0; i < n; i++ {
		res, err := interp.New(b.Lowered.Prog, b.Lowered.Track, interp.DefaultConfig(seed*1000+int64(i))).Run()
		if err != nil {
			return fmt.Errorf("perf: interpreting: %w", err)
		}
		ok := true
		for _, s := range res.ErrorSites {
			ok = ok && want[s]
		}
		check(ok)
	}
	return nil
}
