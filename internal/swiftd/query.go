package swiftd

// POST /query: the demand-driven serving path. A request names a program
// and one point query (or a batch); the server answers from the
// slice-level demand engine (internal/query) instead of running the whole
// program. The reusable unit of demand work is the per-site slice table:
// the in-process slice memo keeps those across all /query requests, so
// distinct batches that touch the same sites reuse each other's slice
// runs, across program versions too (slice keys carry the program
// digests). Every batch builds its program, because validation and node
// mapping need the CFG; a batch whose slices are all memoized then runs
// no analysis.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/query"
)

// queryRequest is the POST /query body. Exactly one of "query" (single)
// and "queries" (batch) must be present; the embedded fields are
// /analyze's.
type queryRequest struct {
	analyzeRequest
	Query   *query.Query  `json:"query,omitempty"`
	Queries []query.Query `json:"queries,omitempty"`
}

// queryResponse is the POST /query reply. Answers align positionally with
// the request's queries (a single "query" yields one answer).
type queryResponse struct {
	Engine  string         `json:"engine"`
	Answers []query.Answer `json:"answers"`
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
	// Batches counts the valid batches evaluated (coalesced identical
	// requests share one); Queries the point queries inside them;
	// MaxBatch the largest batch seen.
	Batches  int64 `json:"batches"`
	Queries  int64 `json:"queries"`
	MaxBatch int64 `json:"maxBatch"`
	// Per-kind counts of queries served.
	CanReach int64 `json:"canReach"`
	StatesAt int64 `json:"statesAt"`
	IsError  int64 `json:"isError"`
	// SliceMemo snapshots the shared in-process slice memo.
	SliceMemo driver.MemoStats `json:"sliceMemo"`
}

// batchDigest canonicalizes a query batch for its flight ID. The batch is
// hashed in request order: order changes the answer order, so it is part
// of the response identity.
func batchDigest(qs []query.Query) string {
	blob, _ := json.Marshal(qs)
	sum := sha256.Sum256(blob)
	return "batch-" + hex.EncodeToString(sum[:16])
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	cfg, ok := s.decodeRequest(w, r, &req)
	if !ok {
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
	b, err := s.build(req.Source, sha256.Sum256([]byte(req.Source)))
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, "build failed: %v", err)
		return
	}

	// Identical concurrent batches share one flight: the program's
	// slice-run key with the batch digest in its Proc field names it.
	id := driver.SliceRunKey(b, req.Engine, cfg, core.SliceID(batchDigest(qs))).ID()
	s.serveFlight(w, r, id, cfg, func(ctx context.Context, cfg core.Config) flightResult {
		// Validation runs before admission: malformed queries fail fast
		// with 400 and never hold an engine slot.
		e, err := query.New(b, req.Engine, cfg, s.sliceMemo)
		if err != nil {
			return flightResult{status: http.StatusBadRequest, body: errorBody("%v", err)}
		}
		for i, q := range qs {
			if err := e.Validate(q); err != nil {
				return flightResult{status: http.StatusBadRequest, body: errorBody("query %d: %v", i, err)}
			}
		}
		s.countQueries(qs)
		out, _ := s.lead(ctx, func() (any, error) {
			start := time.Now()
			answers, stats, err := e.AnswerBatch(qs)
			if err != nil {
				// An aborted slice run (budget, deadline) leaves the batch
				// without answers; the slice memo keeps only completed runs.
				return nil, fmt.Errorf("query evaluation failed: %w", err)
			}
			return queryResponse{
				Engine:     req.Engine,
				Answers:    answers,
				Slices:     stats.Slices,
				MemoHits:   stats.Hits,
				MemoMisses: stats.Misses,
				Work:       stats.Work,
				ElapsedMS:  time.Since(start).Milliseconds(),
			}, nil
		})
		return out
	})
}

// countQueries folds one valid batch into the query telemetry.
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
		Batches:   s.queryBatches.Load(),
		Queries:   s.queriesServed.Load(),
		MaxBatch:  s.queryMaxBatch.Load(),
		CanReach:  s.queryCanReach.Load(),
		StatesAt:  s.queryStatesAt.Load(),
		IsError:   s.queryIsError.Load(),
		SliceMemo: s.sliceMemo.Stats(),
	}
}
