package driver

import (
	"slices"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/typestate"
)

// TestErrorReportScanMatchesAllStates checks the bitset error scan against
// its map oracle on every benchprog profile under td, bu and swift, run
// monolithic and sliced under a small path-edge budget: wherever a run has
// a path-edge table, completed or cut short by the budget,
// core.ReachedStates must equal AllStates, and the reports built on it —
// ErrorReport, SlicedErrorReport and each slice table's ErrorSite — must
// equal the ones the oracle's states give. At least one run must abort
// with a partial table, so the scan also sees a table the budget cut.
func TestErrorReportScanMatchesAllStates(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxPathEdges = 20_000
	cfg.MaxRelations = 5_000
	scan := func(what string, ts *typestate.Analysis, res *Result) []string {
		t.Helper()
		want := res.TD.AllStates()
		if got := core.ReachedStates(res.TD, ts.StateCount()); !slices.Equal(got, want) {
			t.Fatalf("%s: ReachedStates has %d states, AllStates %d", what, len(got), len(want))
		}
		return ts.ErrorSites(want)
	}
	var partial, complete int
	for _, p := range append(benchprog.Profiles(), benchprog.ExtraProfiles()...) {
		prog, err := benchprog.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromHIR(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"td", "bu", "swift"} {
			what := p.Name + "/" + engine
			res, err := b.Run(engine, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if res.TD != nil {
				want := scan(what, b.TS, res)
				got, err := b.ErrorReport(res)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: ErrorReport = %v, %v; oracle %v", what, got, err, want)
				}
				if res.Err != nil {
					partial++
				} else {
					complete++
				}
			}

			sliced, err := b.RunSliced(engine, cfg)
			if err != nil {
				t.Fatalf("%s sliced: %v", what, err)
			}
			union, allTD := map[string]bool{}, true
			for i := range sliced.Slices {
				sl := &sliced.Slices[i]
				if sl.Result.TD == nil {
					allTD = false
					continue
				}
				ts := sl.Client.(*typestate.Analysis)
				sites := scan(what+"/"+string(sl.ID), ts, sl.Result)
				for _, s := range sites {
					union[s] = true
				}
				if sl.Result.Err != nil {
					partial++
					continue
				}
				complete++
				tab, err := buildSliceTable(sl)
				if err != nil {
					t.Fatalf("%s/%s: %v", what, sl.ID, err)
				}
				if want := slices.Contains(sites, string(sl.ID)); tab.ErrorSite != want {
					t.Fatalf("%s/%s: slice table ErrorSite %v, oracle %v", what, sl.ID, tab.ErrorSite, want)
				}
			}
			if !allTD {
				continue
			}
			want := make([]string, 0, len(union))
			for s := range union {
				want = append(want, s)
			}
			slices.Sort(want)
			if got, err := b.SlicedErrorReport(sliced); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: SlicedErrorReport = %v, %v; oracle %v", what, got, err, want)
			}
		}
	}
	if partial == 0 || complete == 0 {
		t.Fatalf("%d budget-aborted and %d completed tables, want some of each", partial, complete)
	}
	t.Logf("%d completed and %d budget-aborted path-edge tables scanned", complete, partial)
}
