package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/hir"
)

// batchConfig is the paper-table configuration: k=5, θ=1 and the budgets
// of bench.DefaultBudget.
func batchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxPathEdges = 8_000_000
	cfg.MaxRelations = 100_000
	cfg.Timeout = 300 * time.Second
	return cfg
}

// batchProgram is one input of a batch workload.
type batchProgram struct {
	name   string
	prog   *hir.Program
	build  *driver.Build
	golden []string
	// digest is the result-tables digest of the program's first run; every
	// later run, traced or not, must reproduce it.
	digest string
}

// generateProgram builds a profile's program.
func generateProgram(name string) (*hir.Program, error) {
	p, ok := benchprog.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("perf: unknown benchprog profile %q", name)
	}
	return benchprog.Generate(p)
}

// generate builds a profile's program and loads its golden report.
func generate(name string) (*hir.Program, []string, error) {
	prog, err := generateProgram(name)
	if err != nil {
		return nil, nil, err
	}
	golden, err := Golden(name)
	return prog, golden, err
}

// setupBatch generates the programs and checks that each builds; the
// soundness oracle interprets the lowered programs of these builds.
func setupBatch(w Workload) ([]*batchProgram, error) {
	var out []*batchProgram
	for _, name := range w.Programs {
		prog, golden, err := generate(name)
		if err != nil {
			return nil, err
		}
		b, err := driver.FromHIR(prog)
		if err != nil {
			return nil, err
		}
		out = append(out, &batchProgram{name: name, prog: prog, build: b, golden: golden})
	}
	return out, nil
}

// runBatch measures cold engine runs: each operation is driver.FromHIR →
// Run → ErrorReport on a fresh pipeline. Programs run round-robin in a
// seeded order per round, so no program's runs cluster in one stretch of
// machine noise.
func runBatch(w Workload, o Options) (*Report, []Span, error) {
	rep := &Report{Workload: w.Name}
	progs, setups, err := measureSetup(func() ([]*batchProgram, error) { return setupBatch(w) }, func([]*batchProgram) {})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	// An unmeasured warm-up round: a program's first run in a process is
	// 10-20% slower than its later ones. Its answers are still checked.
	warm, _, _ := batchPhase(w, progs, rng, 0, nil, nil)
	if warm.failed > 0 {
		return nil, nil, fmt.Errorf("perf: %s: %d warm-up runs failed", w.Name, warm.failed)
	}
	rep.Wrong, rep.Checks = warm.wrong, warm.checks
	var spans []Span
	if !o.Trace {
		ph, busy, cpu := batchPhase(w, progs, rng, o.Duration, nil, nil)
		ph.mergeInto(rep)
		if err := endToEnd(rep, setups, ph, busy, cpu); err != nil {
			return nil, nil, err
		}
		for _, c := range ph.classes() {
			rep.add("program="+c, "run_s", Median(ph.samples[c])/1000, "s", len(ph.samples[c]))
		}
	} else {
		plain, _, _ := batchPhase(w, progs, rng, o.Duration/2, nil, nil)
		tr := NewTracer()
		ly := &layers{}
		gc0, pause0 := gcSnapshot()
		traced, _, _ := batchPhase(w, progs, rng, o.Duration/2, tr, ly)
		gc1, pause1 := gcSnapshot()
		ly.gcCycles, ly.gcPause = gc1-gc0, pause1-pause0
		ly.ops = traced.ops
		plain.mergeInto(rep)
		traced.mergeInto(rep)
		spans = tr.Spans()
		ly.metrics(spans, rep)
		overhead(rep, plain, traced)
	}
	for _, bp := range progs {
		if err := soundness(bp.build, bp.golden, o.Seed, w.InterpSeeds, rep.check); err != nil {
			return nil, nil, fmt.Errorf("perf: %s soundness: %w", bp.name, err)
		}
	}
	correctness(rep)
	return rep, spans, nil
}

// batchPhase runs whole rounds until dur has passed (at least one round).
// busy sums the timed runs and cpu the process CPU time during them.
// With a tracer, each run goes through the layers one at a time under
// spans and its counters are folded into ly.
func batchPhase(w Workload, progs []*batchProgram, rng *rand.Rand, dur time.Duration, tr *Tracer, ly *layers) (ph *recorder, busy, cpu time.Duration) {
	ph = newRecorder()
	cfg := batchConfig()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		for _, i := range rng.Perm(len(progs)) {
			bp := progs[i]
			// Every run starts from a collected heap whose memory went back
			// to the OS, as a fresh swift process would.
			debug.FreeOSMemory()
			c0 := cpuTime()
			var lat time.Duration
			var sites []string
			var digest string
			var err error
			if tr == nil {
				t0 := time.Now()
				var b *driver.Build
				var res *driver.Result
				b, res, sites, err = coldRun(bp.prog, w.Engine, cfg)
				lat = time.Since(t0)
				cpu += cpuTime() - c0
				if err == nil {
					digest = driver.ResultTablesDigest(b, res)
				}
			} else {
				lat, sites, digest, err = tracedRun(tr, ph.ops+1, bp.prog, w.Engine, cfg, ly)
				cpu += cpuTime() - c0
			}
			busy += lat
			ph.add(bp.name, lat, err == nil)
			if err != nil {
				continue
			}
			ph.check(slices.Equal(sites, bp.golden))
			if bp.digest == "" {
				bp.digest = digest
			} else {
				ph.check(digest == bp.digest)
			}
		}
	}
	return ph, busy, cpu
}

// coldRun is the untraced operation. A run that ends early (budget,
// deadline) is an error.
func coldRun(prog *hir.Program, engine string, cfg core.Config) (*driver.Build, *driver.Result, []string, error) {
	b, err := driver.FromHIR(prog)
	if err != nil {
		return nil, nil, nil, err
	}
	return coldRunBuild(b, engine, cfg)
}

// coldRunBuild is coldRun on an already built pipeline.
func coldRunBuild(b *driver.Build, engine string, cfg core.Config) (*driver.Build, *driver.Result, []string, error) {
	res, err := b.Run(engine, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if res.Err != nil {
		return nil, nil, nil, res.Err
	}
	sites, err := b.ErrorReport(res)
	return b, res, sites, err
}

// tracedRun is coldRun one layer at a time. Its latency is the "op.run"
// root span (build, engine, report); encoding the tables for the digest
// check is a separate root span, as the untraced run does it untimed.
func tracedRun(tr *Tracer, req int, prog *hir.Program, engine string, cfg core.Config, ly *layers) (time.Duration, []string, string, error) {
	root := tr.Begin(0, req, "op", "run")
	b, err := tracedBuild(tr, root, req, prog)
	if err != nil {
		tr.End(root)
		return 0, nil, "", err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id := tr.Begin(root, req, "core", "engine")
	res, err := b.Run(engine, cfg)
	tr.End(id)
	runtime.ReadMemStats(&ms1)
	if err == nil && res.Err != nil {
		err = res.Err
	}
	if err != nil {
		tr.End(root)
		return 0, nil, "", err
	}
	ly.addRun(res, &ms0, &ms1)
	id = tr.Begin(root, req, "driver", "report")
	sites, err := b.ErrorReport(res)
	tr.End(id)
	lat := tr.End(root)
	if err != nil {
		return 0, nil, "", err
	}
	id = tr.Begin(0, req, "driver", "encode")
	enc := driver.EncodeResultTables(b, res)
	sum := sha256.Sum256(enc)
	tr.End(id)
	ly.encodes++
	ly.encodeBytes += len(enc)
	return lat, sites, hex.EncodeToString(sum[:]), nil
}
