package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"swift/internal/core"
	"swift/internal/killgen"
)

// TaintTable runs the three engines with the kill/gen taint client over the
// smaller suite members — the framework-generality experiment: the same
// hybrid machinery, triggered and pruned the same way, drives a completely
// different abstract domain (bit-vector facts with guarded kill/gen
// relations synthesized per Section 5.2). Each (benchmark, engine) run
// builds its own client and analysis (the kill/gen client is stateless
// strings, so there is no interning history to share), so the runs execute
// concurrently and assemble deterministically.
func (s *Suite) TaintTable(w io.Writer, budget Budget) error {
	names := []string{"jpat-p", "elevator", "toba-s", "javasrc-p", "hedc", "antlr"}
	engines := []string{"td", "bu", "swift"}
	type taintRun struct {
		completed bool
		cost      time.Duration
		tdSumm    int
		alerts    int
	}
	runs := make([]*taintRun, len(names)*len(engines))
	var jobs []func() error
	for i, name := range names {
		for j, engine := range engines {
			slot := i*len(engines) + j
			name, engine := name, engine
			jobs = append(jobs, func() error {
				b, err := s.Build(name)
				if err != nil {
					return err
				}
				prog := b.Lowered.Prog
				// Every third tracked allocation site is a taint source;
				// reads are sinks and close() sanitizes.
				var sites []string
				for site := range b.Lowered.Track {
					sites = append(sites, site)
				}
				sort.Strings(sites)
				var sources []string
				for k, site := range sites {
					if k%3 == 0 {
						sources = append(sources, site)
					}
				}
				taint := killgen.NewTaint(prog, killgen.TaintConfig{
					Sources:    sources,
					Sanitizers: []string{"close"},
					Sinks:      []string{"read"},
				})
				an, err := core.NewAnalysis[string, string, string](taint, prog)
				if err != nil {
					return err
				}
				init := taint.Initial()
				cfg := budget.config(5, 1)
				start := time.Now()
				var res *core.Result[string, string, string]
				switch engine {
				case "td":
					cfg.K = core.Unlimited
					res = an.RunTD(init, cfg)
				case "bu":
					cfg.Theta = core.Unlimited
					res = an.RunBU(init, cfg)
				default:
					res = an.RunSwift(init, cfg)
				}
				if err := deadlineErr(name, "taint/"+engine, res.Err); err != nil {
					return err
				}
				r := &taintRun{
					completed: res.Completed(),
					cost:      time.Duration(res.WorkUnits()) * costPerWorkUnit,
					tdSumm:    res.TDSummaryTotal(),
				}
				if engine == "swift" && res.Completed() {
					for _, st := range res.TD.AllStates() {
						if taint.Alerted(st) {
							r.alerts = 1
							break
						}
					}
				}
				s.telemetry("run %-10s taint/%-6s wall=%-8s cost=%s\n",
					name, engine, fmtDur(time.Since(start)), fmtDur(r.cost))
				runs[slot] = r
				return nil
			})
		}
	}
	if err := s.forEach(jobs); err != nil {
		return err
	}
	header := []string{"benchmark", "TD cost", "BU cost", "SWIFT cost", "TD summ (td)", "(swift)", "alerts"}
	var rows [][]string
	for i, name := range names {
		td := runs[i*len(engines)]
		bu := runs[i*len(engines)+1]
		sw := runs[i*len(engines)+2]
		s.Release(name)
		cell := func(r *taintRun) string {
			if !r.completed {
				return "DNF"
			}
			return fmtDur(r.cost)
		}
		tdSumm := "-"
		if td.completed {
			tdSumm = fmtK(td.tdSumm)
		}
		rows = append(rows, []string{
			name, cell(td), cell(bu), cell(sw),
			tdSumm, fmtK(sw.tdSumm),
			fmt.Sprintf("%d", sw.alerts),
		})
	}
	fmt.Fprintln(w, "Generality: the taint client (kill/gen family, Section 5.2) under the")
	fmt.Fprintln(w, "same three engines (k=5, θ=1).")
	table(w, header, rows)
	return nil
}

// KSweep runs the Table 3 experiment on an arbitrary benchmark (the paper
// uses avrora; smaller members make handy smoke runs). The per-k runs
// execute concurrently and are assembled in k order.
func (s *Suite) KSweep(w io.Writer, name string, ks []int, budget Budget) error {
	runs := make([]*EngineRun, len(ks))
	triggered := make([]int, len(ks))
	jobs := make([]func() error, len(ks))
	for i, k := range ks {
		i, k := i, k
		jobs[i] = func() error {
			run, err := s.Run(name, "swift", budget, k, 1)
			if err != nil {
				return err
			}
			triggered[i] = len(run.Result.Triggered)
			run.Result = nil
			runs[i] = run
			return nil
		}
	}
	if err := s.forEach(jobs); err != nil {
		return err
	}
	s.Release(name)
	header := []string{"k", "cost", "TD summaries", "triggered"}
	var rows [][]string
	for i, k := range ks {
		t := "DNF"
		if runs[i].Completed {
			t = fmtDur(runs[i].Cost)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", k), t, fmtK(runs[i].TDSummaries), fmt.Sprintf("%d", triggered[i]),
		})
	}
	fmt.Fprintf(w, "k sweep on %s (θ=1).\n", name)
	table(w, header, rows)
	return nil
}

// Verify re-runs the Table 2 experiment and asserts the paper's headline
// completion pattern and reduction floors hold, making the reproduction's
// central claim a checkable invariant:
//
//   - SWIFT completes on every benchmark;
//   - the top-down baseline fails on exactly the three largest;
//   - the unpruned bottom-up baseline completes on exactly the two
//     smallest;
//   - on every benchmark both engines complete, SWIFT computes at most
//     half the top-down summaries (the paper reports ≥66 % reductions
//     beyond the two smallest).
//
// It returns an error describing the first violated expectation.
func (s *Suite) Verify(w io.Writer, budget Budget) error {
	rows, err := s.RunTable2(budget)
	if err != nil {
		return err
	}
	tdFails := map[string]bool{"avrora": true, "rhino-a": true, "sablecc-j": true}
	buOK := map[string]bool{"jpat-p": true, "elevator": true}
	for _, r := range rows {
		if !r.Swift.Completed {
			return fmt.Errorf("verify: SWIFT did not finish on %s", r.Name)
		}
		if r.TD.Completed == tdFails[r.Name] {
			return fmt.Errorf("verify: TD completion on %s = %v, expected %v",
				r.Name, r.TD.Completed, !tdFails[r.Name])
		}
		if r.BU.Completed != buOK[r.Name] {
			return fmt.Errorf("verify: BU completion on %s = %v, expected %v",
				r.Name, r.BU.Completed, buOK[r.Name])
		}
		if r.TD.Completed && r.Name != "jpat-p" && r.Name != "elevator" {
			if 2*r.Swift.TDSummaries > r.TD.TDSummaries {
				return fmt.Errorf("verify: summary reduction on %s too small: swift %d vs td %d",
					r.Name, r.Swift.TDSummaries, r.TD.TDSummaries)
			}
		}
		fmt.Fprintf(w, "verify: %-10s ok (swift %s, td %s, bu %s)\n", r.Name,
			okOrDNF(r.Swift.Completed, r.Swift.Cost),
			okOrDNF(r.TD.Completed, r.TD.Cost),
			okOrDNF(r.BU.Completed, r.BU.Cost))
	}
	fmt.Fprintln(w, "verify: the paper's completion pattern holds")
	return nil
}

func okOrDNF(ok bool, d time.Duration) string {
	if !ok {
		return "DNF"
	}
	return fmtDur(d)
}
