package perf

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/hir"
	"swift/internal/lower"
	"swift/internal/pointer"
	"swift/internal/typestate"
)

// tracedBuild prepares prog one layer at a time, each under its own span,
// and assembles the same driver.Build that driver.FromHIR returns.
func tracedBuild(tr *Tracer, parent, req int, prog *hir.Program) (*driver.Build, error) {
	b := &driver.Build{HIR: prog}
	steps := []struct {
		layer, name string
		run         func() error
	}{
		{"hir", "validate", prog.Validate},
		{"pointer", "analyze", func() (err error) { b.Pointer, err = pointer.Analyze(prog); return }},
		{"lower", "lower", func() (err error) { b.Lowered, err = lower.Lower(prog, b.Pointer); return }},
		{"typestate", "new", func() (err error) {
			b.TS, err = typestate.NewAnalysis(b.Lowered.Prog, b.Lowered.Track, b.Pointer)
			return
		}},
		{"core", "new", func() (err error) {
			b.Core, err = core.NewAnalysis[typestate.AbsID, typestate.RelID, typestate.FormulaID](b.TS, b.Lowered.Prog)
			return
		}},
	}
	for _, s := range steps {
		id := tr.Begin(parent, req, s.layer, s.name)
		err := s.run()
		tr.End(id)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// layers accumulates the counters behind the per-layer metrics of one
// traced phase.
type layers struct {
	ops  int // traced operations: batch runs or replayed requests
	runs int // engine runs among them

	work, pathEdges, steps, tdSummaries       int
	sparsePops, sparseSteps, stalePops        int
	regionHits, regionLookups                 int
	triggers, buRelations, buSteps, buFailed  int
	viaBU, viaTD, inSigma                     int
	allocBytes, mallocs                       uint64
	warmRuns, warmRestored                    int
	warmHits, warmLookups                     int64
	encodes, encodeBytes, parseBytes          int
	queryBatches, querySlices, queryWork      int
	memoHits, memoLookups                     int64
	storePuts, storeHits, storeLookups        int64
	storeDiskKB                               float64
	resultHits, resultLookups                 int64
	engineRuns, coalesced, shed, inFlightPeak int64
	gcCycles                                  uint32
	gcPause                                   time.Duration
}

// addRun folds one engine result and its allocation deltas in.
func (l *layers) addRun(res *driver.Result, ms0, ms1 *runtime.MemStats) {
	l.runs++
	l.work += res.WorkUnits()
	l.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	l.mallocs += ms1.Mallocs - ms0.Mallocs
	if td := res.TD; td != nil {
		l.pathEdges += td.NumPathEdges
		l.steps += td.Steps
		l.tdSummaries += td.NumSummaries
		if td.Sparse.Enabled {
			l.sparsePops += td.Sparse.Pops
			l.sparseSteps += td.Steps
			l.stalePops += td.Sparse.StalePops
			l.regionHits += td.Sparse.RegionHits
			l.regionLookups += td.Sparse.RegionHits + td.Sparse.RegionMisses
		}
	}
	l.triggers += len(res.Triggered)
	l.buRelations += res.BUStats.Relations
	l.buSteps += res.BUStats.Steps
	for _, failed := range res.BUFailed {
		if failed {
			l.buFailed++
		}
	}
	l.viaBU += res.CallsViaBU
	l.viaTD += res.CallsViaTD
	l.inSigma += res.CallsInSigma
}

// gcSnapshot reads the collector's cumulative cycle count and pause time.
func gcSnapshot() (uint32, time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, time.Duration(m.PauseTotalNs)
}

func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics fills rep.Metrics with the PerLayer set and adds every layer's
// self time per operation as a detail row, so the layers that only some
// workloads exercise are printed too.
func (l *layers) metrics(spans []Span, rep *Report) {
	self := SelfTimes(spans)
	calls := map[string]int{}
	for _, s := range spans {
		calls[s.Key()]++
	}
	perOp := func(key string) Value { return Value{ratio(int64(self[key]), int64(l.ops)) / 1e6, "ms", calls[key]} }
	perRun := func(x int, unit string) Value { return Value{ratio(x, l.runs), unit, l.runs} }
	rep.Metrics = map[string]Value{
		"hir.validate_ms":               perOp("hir.validate"),
		"pointer.analyze_ms":            perOp("pointer.analyze"),
		"lower.lower_ms":                perOp("lower.lower"),
		"typestate.new_ms":              perOp("typestate.new"),
		"core.new_ms":                   perOp("core.new"),
		"core.work_units":               perRun(l.work, "count"),
		"core.path_edges":               perRun(l.pathEdges, "count"),
		"core.steps":                    perRun(l.steps, "count"),
		"core.td_summaries":             perRun(l.tdSummaries, "count"),
		"core.engine_alloc_mb":          {ratio(int64(l.allocBytes), int64(l.runs)) / (1 << 20), "MB", l.runs},
		"core.engine_mallocs":           {ratio(int64(l.mallocs), int64(l.runs)), "count", l.runs},
		"core.sparse_pops":              perRun(l.sparsePops, "count"),
		"core.pops_per_step":            {ratio(l.sparsePops, l.sparseSteps), "ratio", l.runs},
		"core.stale_pops":               perRun(l.stalePops, "count"),
		"core.region_hit_ratio":         {ratio(l.regionHits, l.regionLookups), "ratio", l.regionLookups},
		"core.triggers":                 perRun(l.triggers, "count"),
		"core.bu_relations":             perRun(l.buRelations, "count"),
		"core.bu_steps":                 perRun(l.buSteps, "count"),
		"core.bu_failed":                perRun(l.buFailed, "count"),
		"core.calls_via_bu":             perRun(l.viaBU, "count"),
		"core.calls_in_sigma":           perRun(l.inSigma, "count"),
		"core.bu_coverage":              {ratio(l.viaBU, l.viaBU+l.viaTD), "ratio", l.viaBU + l.viaTD},
		"driver.warm_summary_hit_ratio": {ratio(l.warmHits, l.warmLookups), "ratio", int(l.warmLookups)},
		"driver.warm_restored_ratio":    {ratio(l.warmRestored, l.warmRuns), "ratio", l.warmRuns},
		"driver.encode_kb":              {ratio(l.encodeBytes, l.encodes) / 1024, "KB", l.encodes},
		"store.puts":                    {ratio(l.storePuts, int64(l.ops)), "count", l.ops},
		"store.disk_kb":                 {l.storeDiskKB, "KB", 1},
		"store.hit_ratio":               {ratio(l.storeHits, l.storeLookups), "ratio", int(l.storeLookups)},
		"query.slice_memo_hit_ratio":    {ratio(l.memoHits, l.memoLookups), "ratio", int(l.memoLookups)},
		"query.slices_per_batch":        {ratio(l.querySlices, l.queryBatches), "count", l.queryBatches},
		"query.slice_work":              {ratio(l.queryWork, l.queryBatches), "count", l.queryBatches},
		"swiftd.result_hit_ratio":       {ratio(l.resultHits, l.resultLookups), "ratio", int(l.resultLookups)},
		"swiftd.engine_runs":            {float64(l.engineRuns), "count", 1},
		"swiftd.coalesced":              {float64(l.coalesced), "count", 1},
		"swiftd.shed":                   {float64(l.shed), "count", 1},
		"swiftd.in_flight_peak":         {float64(l.inFlightPeak), "count", 1},
		"runtime.gc_cycles":             {float64(l.gcCycles), "count", 1},
		"runtime.gc_pause_ms":           {ms(l.gcPause) / float64(max(l.ops, 1)), "ms", int(l.gcCycles)},
	}
	var keys []string
	for key := range self {
		// Operation roots and client spans are whole requests, not layers.
		_, listed := rep.Metrics[key+"_ms"]
		if !listed && !strings.HasPrefix(key, "op.") && !strings.HasPrefix(key, "client.") {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		rep.add("", key+"_ms", perOp(key).Value, "ms", calls[key])
	}
	if d := self["source.parse"]; d > 0 {
		rep.add("", "source.kb_per_s", float64(l.parseBytes)/1024/d.Seconds(), "KB/s", calls["source.parse"])
	}
}

// overhead prints the traced run's own cost: the traced phase's median
// latency minus the untraced phase's.
func overhead(rep *Report, plain, traced *recorder) {
	p, _, err1 := plain.latencyP50()
	t, n, err2 := traced.latencyP50()
	if err1 != nil || err2 != nil {
		return
	}
	rep.add("", "trace.overhead_ms", t-p, "ms", n)
	rep.add("", "trace.overhead_pct", 100*(t-p)/p, "%", n)
}
