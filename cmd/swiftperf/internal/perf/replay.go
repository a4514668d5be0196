package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/hir"
	"swift/internal/query"
	"swift/internal/source"
	"swift/internal/store"
)

// traceServe is the traced serve run. Half the duration runs untraced;
// the other half records a client span per request and the /stats deltas,
// and its request stream is then replayed, in start order, through the
// public functions swiftd's handlers call, each under its own span.
func traceServe(w Workload, o Options, env *serveEnv, rep *Report,
	run func(time.Duration, *Tracer) (*phase, time.Duration, time.Duration)) ([]Span, error) {
	plain, _, _ := run(o.Duration/2, nil)
	s0, err := env.srv.stats()
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	gc0, pause0 := gcSnapshot()
	traced, _, _ := run(o.Duration/2, tr)
	gc1, pause1 := gcSnapshot()
	s1, err := env.srv.stats()
	if err != nil {
		return nil, err
	}
	plain.rec.mergeInto(rep)
	traced.rec.mergeInto(rep)

	ly := &layers{
		gcCycles:      gc1 - gc0,
		gcPause:       pause1 - pause0,
		resultHits:    s1.ResultHits - s0.ResultHits,
		resultLookups: s1.ResultHits + s1.ResultMisses - s0.ResultHits - s0.ResultMisses,
		memoHits:      s1.Query.SliceMemo.Hits - s0.Query.SliceMemo.Hits,
		memoLookups: s1.Query.SliceMemo.Hits + s1.Query.SliceMemo.Misses -
			s0.Query.SliceMemo.Hits - s0.Query.SliceMemo.Misses,
		engineRuns:   s1.Robustness.EngineRuns - s0.Robustness.EngineRuns,
		coalesced:    s1.Robustness.Coalesced - s0.Robustness.Coalesced,
		shed:         s1.Robustness.Shed - s0.Robustness.Shed,
		inFlightPeak: s1.Robustness.InFlightPeak,
		storeHits:    s1.Store.MemHits + s1.Store.DiskHits - s0.Store.MemHits - s0.Store.DiskHits,
		storeLookups: s1.Store.MemHits + s1.Store.MemMisses - s0.Store.MemHits - s0.Store.MemMisses,
		storeDiskKB:  dirKB(env.srv.dir),
		querySlices:  traced.slices,
		queryWork:    traced.work,
		queryBatches: traced.qs,
	}

	rp, err := newReplayer(o.Dir)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	for _, r := range env.prewarm {
		if err := rp.replay(NewTracer(), 0, r, &layers{}); err != nil {
			return nil, err
		}
	}
	puts0 := rp.st.Stats().Puts
	logf(o, "%s: replaying %d requests", w.Name, len(traced.log))
	for i, r := range traced.log {
		if err := rp.replay(tr, i+1, r, ly); err != nil {
			return nil, err
		}
	}
	ly.storePuts = rp.st.Stats().Puts - puts0
	ly.ops = len(traced.log)
	spans := tr.Spans()
	ly.metrics(spans, rep)

	// What the replay does not cover — HTTP, admission, coalescing, the
	// loopback, contention between the clients — is swiftd's overhead.
	var client, replayed time.Duration
	for _, s := range spans {
		switch s.Layer {
		case "client":
			client += s.End - s.Start
		case "op":
			replayed += s.End - s.Start
		}
	}
	if n := len(traced.log); n > 0 {
		rep.add("", "swiftd.overhead_ms", ms(client-replayed)/float64(n), "ms", n)
	}
	overhead(rep, plain.rec, traced.rec)
	return spans, nil
}

// replayer re-runs requests against its own store and slice memo.
type replayer struct {
	dir  string
	st   *store.Store
	memo *driver.SliceMemo
}

func newReplayer(parent string) (*replayer, error) {
	dir, err := os.MkdirTemp(parent, "replay-")
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	st, err := store.Open(dir, 64<<20)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &replayer{dir: dir, st: st, memo: driver.NewSliceMemo(0)}, nil
}

func (rp *replayer) close() {
	rp.st.Close()
	os.RemoveAll(rp.dir)
}

// replay re-runs one request the way its handler does, under an "op" root
// span with one child span per call.
func (rp *replayer) replay(tr *Tracer, req int, r request, ly *layers) error {
	root := tr.Begin(0, req, "op", r.path[1:])
	defer tr.End(root)
	span := func(layer, name string, f func() error) error {
		id := tr.Begin(root, req, layer, name)
		defer tr.End(id)
		return f()
	}
	var prog *hir.Program
	if err := span("source", "parse", func() (err error) { prog, err = source.Parse(r.src); return }); err != nil {
		return err
	}
	ly.parseBytes += len(r.src)
	b, err := tracedBuild(tr, root, req, prog)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.K, cfg.Theta = serveK, serveTheta
	if r.path == "/query" {
		return rp.query(span, b, r, cfg)
	}
	return rp.analyze(span, b, r, cfg, ly)
}

type spanFunc func(layer, name string, f func() error) error

// cached looks the response up in the result cache as the handlers do.
func (rp *replayer) cached(span spanFunc, key store.Key, reply any) (bool, error) {
	var blob []byte
	var hit bool
	span("store", "get", func() error { blob, hit = rp.st.Get(key); return nil })
	if !hit {
		return false, nil
	}
	return true, span("json", "unmarshal", func() error { return json.Unmarshal(blob, reply) })
}

func (rp *replayer) put(span spanFunc, key store.Key, reply any) error {
	var blob []byte
	if err := span("json", "marshal", func() (err error) { blob, err = json.Marshal(reply); return }); err != nil {
		return err
	}
	return span("store", "put", func() error { rp.st.Put(key, blob); return nil })
}

func (rp *replayer) analyze(span spanFunc, b *driver.Build, r request, cfg core.Config, ly *layers) error {
	var key store.Key
	span("driver", "result_key", func() error { key = driver.ResultKey(b, r.engine, cfg); return nil })
	if hit, err := rp.cached(span, key, &analyzeReply{}); hit || err != nil {
		return err
	}
	var res *driver.Result
	var ws *driver.WarmStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err := span("driver", "warm_run", func() (err error) {
		res, ws, err = driver.Warm{Store: rp.st}.Run(b, r.engine, cfg)
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	ly.addRun(res, &ms0, &ms1)
	ly.warmRuns++
	if ws.RestoredTables {
		ly.warmRestored++
	}
	ly.warmHits += ws.SummaryHits
	ly.warmLookups += ws.SummaryHits + ws.SummaryMisses
	reply := analyzeReply{Engine: res.Engine, Completed: res.Completed(), RestoredTables: ws.RestoredTables,
		Relaxed: ws.Relaxed, SummaryHits: ws.SummaryHits, SummaryMisses: ws.SummaryMisses}
	span("driver", "encode", func() error {
		enc := driver.EncodeResultTables(b, res)
		sum := sha256.Sum256(enc)
		reply.TablesDigest = hex.EncodeToString(sum[:])
		ly.encodes++
		ly.encodeBytes += len(enc)
		return nil
	})
	if err := span("driver", "report", func() (err error) { reply.ErrorSites, err = b.ErrorReport(res); return }); err != nil {
		return err
	}
	return rp.put(span, key, reply)
}

func (rp *replayer) query(span spanFunc, b *driver.Build, r request, cfg core.Config) error {
	newEngine := func() (e *query.Engine, err error) {
		err = span("query", "new", func() error {
			if e, err = query.New(b, r.engine, cfg, rp.memo); err != nil {
				return err
			}
			for _, q := range r.queries {
				if err := e.Validate(q); err != nil {
					return err
				}
			}
			return nil
		})
		return e, err
	}
	if _, err := newEngine(); err != nil {
		return err
	}
	var key store.Key
	span("driver", "result_key", func() error {
		key = driver.SliceRunKey(b, r.engine, cfg, "")
		key.Kind, key.Proc = "queryresult", batchDigest(r.queries)
		return nil
	})
	if hit, err := rp.cached(span, key, &queryReply{}); hit || err != nil {
		return err
	}
	// The handler answers on a second engine bound to the request's
	// cancel channel.
	e, err := newEngine()
	if err != nil {
		return err
	}
	reply := queryReply{Engine: r.engine}
	var stats driver.EvalStats
	if err := span("query", "answer", func() (err error) { reply.Answers, stats, err = e.AnswerBatch(r.queries); return }); err != nil {
		return err
	}
	reply.Slices, reply.MemoHits, reply.MemoMisses, reply.Work = stats.Slices, stats.Hits, stats.Misses, stats.Work
	return rp.put(span, key, reply)
}

// batchDigest is swiftd's result-cache key for a query batch.
func batchDigest(qs []query.Query) string {
	blob, _ := json.Marshal(qs)
	sum := sha256.Sum256(blob)
	return "batch-" + hex.EncodeToString(sum[:16])
}
