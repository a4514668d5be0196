package swiftd

// POST /query: the demand-driven serving path. A request names a program
// and one point query (or a batch); the server answers from the
// slice-level demand engine (internal/query) instead of running the whole
// program. Two caches cooperate: whole-response blobs in the persistent
// store (Kind "queryresult", keyed by program digest + engine + normalized
// thresholds + a digest of the canonicalized batch), and the in-process
// slice memo shared across all /query requests — so distinct batches that
// touch the same sites still reuse each other's slice runs, across program
// versions too (slice keys carry the program digests).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/query"
	"swift/internal/store"
)

// queryRequest is the POST /query body. Exactly one of "query" (single)
// and "queries" (batch) must be present; config fields mirror /analyze.
type queryRequest struct {
	Source  string        `json:"source"`
	Engine  string        `json:"engine"`
	K       *int          `json:"k"`
	Theta   *int          `json:"theta"`
	Query   *query.Query  `json:"query,omitempty"`
	Queries []query.Query `json:"queries,omitempty"`
}

// queryResponse is the POST /query reply. Answers align positionally with
// the request's queries (a single "query" yields one answer).
type queryResponse struct {
	Engine  string         `json:"engine"`
	Answers []query.Answer `json:"answers"`
	// Cached reports the whole response was served from the result cache
	// without touching the slice memo.
	Cached bool `json:"cached"`
	// Demand telemetry of the evaluation that produced this response: how
	// many distinct slices the batch coalesced to, how many came from the
	// slice memo, and the deterministic work spent on the misses.
	Slices     int   `json:"slices"`
	MemoHits   int   `json:"memoHits"`
	MemoMisses int   `json:"memoMisses"`
	Work       int   `json:"work"`
	ElapsedMS  int64 `json:"elapsedMs"`
}

// queryStats is the /stats query telemetry block.
type queryStats struct {
	// Batches counts /query requests that reached evaluation; Queries the
	// point queries inside them; MaxBatch the largest batch seen.
	Batches  int64 `json:"batches"`
	Queries  int64 `json:"queries"`
	MaxBatch int64 `json:"maxBatch"`
	// Per-kind counts of queries served.
	CanReach int64 `json:"canReach"`
	StatesAt int64 `json:"statesAt"`
	IsError  int64 `json:"isError"`
	// ResultHits/Misses/Corrupt count the whole-response blob cache;
	// SliceMemo snapshots the shared in-process slice memo.
	ResultHits   int64            `json:"resultHits"`
	ResultMisses int64            `json:"resultMisses"`
	SliceMemo    driver.MemoStats `json:"sliceMemo"`
}

// batchDigest canonicalizes a query batch into the result-cache key's Proc
// field. The batch is hashed in request order: order changes the answer
// order, so it is part of the response identity.
func batchDigest(qs []query.Query) string {
	blob, _ := json.Marshal(qs)
	sum := sha256.Sum256(blob)
	return "batch-" + hex.EncodeToString(sum[:16])
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Engine == "" {
		req.Engine = "swift"
	}
	if !validEngines[req.Engine] {
		s.httpError(w, http.StatusBadRequest, "unknown engine %q (want td, bu or swift)", req.Engine)
		return
	}
	if (req.Query == nil) == (len(req.Queries) == 0) {
		s.httpError(w, http.StatusBadRequest, `exactly one of "query" and "queries" must be set`)
		return
	}
	qs := req.Queries
	if req.Query != nil {
		qs = []query.Query{*req.Query}
	}
	cfg := core.DefaultConfig()
	if req.K != nil {
		cfg.K = *req.K
	}
	if req.Theta != nil {
		cfg.Theta = *req.Theta
	}

	b, err := driver.FromSource(req.Source)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, "build failed: %v", err)
		return
	}
	// Validation runs before admission and coalescing: malformed queries
	// must fail fast with 400, not occupy an engine slot.
	e, err := query.New(b, req.Engine, cfg, s.sliceMemo)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for i, q := range qs {
		if err := e.Validate(q); err != nil {
			s.httpError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
	}
	s.countQueries(qs)

	// Whole-response cache: same program bytes, engine, thresholds and
	// batch → same answers, so a hit is exact.
	key := driver.SliceRunKey(b, req.Engine, cfg, "")
	key.Kind = "queryresult"
	key.Proc = batchDigest(qs)
	var resp queryResponse
	if s.lookupResult(key, &resp, &s.queryResultHits, &s.queryResultMisses) {
		resp.Cached = true
		s.writeJSON(w, resp)
		return
	}

	ctx, cancelCtx := s.requestContext(r)
	defer cancelCtx()
	s.serveFlight(w, r, ctx, key.ID(), func(cancel <-chan struct{}) flightResult {
		return s.computeQuery(ctx, b, req, cfg, qs, key, cancel)
	})
}

// computeQuery is the /query leader path: admission, the demand
// evaluation and the response blob all participants share. It builds a
// second engine over the same build and memo so the cancel channel
// reaches the slice runs without contaminating the validation engine.
func (s *Server) computeQuery(ctx context.Context, b *driver.Build, req queryRequest, cfg core.Config, qs []query.Query, key store.Key, cancel <-chan struct{}) flightResult {
	if err := s.gate.acquire(ctx); err != nil {
		return s.gateResult(err)
	}
	defer s.gate.release()
	cfg.Cancel = cancel
	e, err := query.New(b, req.Engine, cfg, s.sliceMemo)
	if err != nil {
		return flightResult{status: http.StatusInternalServerError, body: errorBody("%v", err)}
	}
	s.engineRuns.Add(1)

	start := time.Now()
	answers, stats, err := e.AnswerBatch(qs)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			s.canceledRuns.Add(1)
			return flightResult{status: http.StatusServiceUnavailable, body: errorBody("query evaluation canceled before completion")}
		}
		// An aborted slice run (budget, deadline): the batch has no
		// answers. Nothing is cached — a budget abort would recur, but a
		// deadline abort might not, and neither yields a response blob.
		return flightResult{status: http.StatusInternalServerError, body: errorBody("query evaluation failed: %v", err)}
	}
	resp := queryResponse{
		Engine:     req.Engine,
		Answers:    answers,
		Slices:     stats.Slices,
		MemoHits:   stats.Hits,
		MemoMisses: stats.Misses,
		Work:       stats.Work,
		ElapsedMS:  time.Since(start).Milliseconds(),
	}
	blob, merr := json.Marshal(resp)
	if merr != nil {
		s.encodeFailures.Add(1)
		s.logf("swiftd: query response encode failed: %v", merr)
		return flightResult{status: http.StatusInternalServerError, body: errorBody("response encode failed: %v", merr)}
	}
	s.store.Put(key, blob)
	return flightResult{status: http.StatusOK, body: append(blob, '\n')}
}

// countQueries folds one accepted batch into the query telemetry.
func (s *Server) countQueries(qs []query.Query) {
	s.queryBatches.Add(1)
	s.queriesServed.Add(int64(len(qs)))
	for {
		cur := s.queryMaxBatch.Load()
		if int64(len(qs)) <= cur || s.queryMaxBatch.CompareAndSwap(cur, int64(len(qs))) {
			break
		}
	}
	for _, q := range qs {
		switch q.Kind {
		case query.KindCanReach:
			s.queryCanReach.Add(1)
		case query.KindStatesAt:
			s.queryStatesAt.Add(1)
		case query.KindIsError:
			s.queryIsError.Add(1)
		}
	}
}

// queryStatsSnapshot renders the /stats query block.
func (s *Server) queryStatsSnapshot() queryStats {
	return queryStats{
		Batches:      s.queryBatches.Load(),
		Queries:      s.queriesServed.Load(),
		MaxBatch:     s.queryMaxBatch.Load(),
		CanReach:     s.queryCanReach.Load(),
		StatesAt:     s.queryStatesAt.Load(),
		IsError:      s.queryIsError.Load(),
		ResultHits:   s.queryResultHits.Load(),
		ResultMisses: s.queryResultMisses.Load(),
		SliceMemo:    s.sliceMemo.Stats(),
	}
}
