package swiftd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/query"
)

func postQuery(t *testing.T, url string, req queryRequest) (queryResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestQuerySingleAndBatch covers the endpoint end to end: a single query,
// a batch, demand telemetry, the shared slice memo across requests, the
// whole-response cache, and the /stats query block.
func TestQuerySingleAndBatch(t *testing.T) {
	_, ts := newTestServer(t)

	// Single isError on the misused site.
	single, code := postQuery(t, ts.URL, queryRequest{
		Source: testProgram,
		Query:  &query.Query{Kind: query.KindIsError, Site: "h1"},
	})
	if code != http.StatusOK {
		t.Fatalf("single query status = %d", code)
	}
	if len(single.Answers) != 1 || !single.Answers[0].Reachable {
		t.Fatalf("isError(h1) answers = %+v, want one reachable answer", single.Answers)
	}
	if single.Cached || single.Slices != 1 || single.MemoMisses != 1 || single.Work <= 0 {
		t.Fatalf("single telemetry = %+v, want 1 fresh slice with work", single)
	}

	// A batch touching both sites: h1's slice comes from the memo shared
	// with the previous request, h2's is fresh.
	batch, code := postQuery(t, ts.URL, queryRequest{
		Source: testProgram,
		Queries: []query.Query{
			{Kind: query.KindIsError, Site: "h2"},
			{Kind: query.KindStatesAt, Site: "h1", Proc: "Worker.doubleOpen", Node: 1},
			{Kind: query.KindCanReach, Site: "h1", Proc: "Worker.doubleOpen", Node: 1, State: "error"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	if len(batch.Answers) != 3 {
		t.Fatalf("batch answers = %+v, want 3", batch.Answers)
	}
	if batch.Answers[0].Reachable {
		t.Error("isError(h2) should be false (h2 is used correctly)")
	}
	// h1 double-opens: its error state is live at Worker.doubleOpen's exit.
	if len(batch.Answers[1].States) == 0 {
		t.Errorf("statesAt(h1, doubleOpen exit) = %+v, want states", batch.Answers[1])
	}
	if !batch.Answers[2].Reachable {
		t.Error("canReach(h1, doubleOpen exit, error) should be true")
	}
	if batch.Slices != 2 || batch.MemoHits != 1 || batch.MemoMisses != 1 {
		t.Errorf("batch telemetry = %+v, want 2 slices with 1 memo hit", batch)
	}

	// The identical batch again: whole response from the blob cache.
	again, code := postQuery(t, ts.URL, queryRequest{
		Source: testProgram,
		Queries: []query.Query{
			{Kind: query.KindIsError, Site: "h2"},
			{Kind: query.KindStatesAt, Site: "h1", Proc: "Worker.doubleOpen", Node: 1},
			{Kind: query.KindCanReach, Site: "h1", Proc: "Worker.doubleOpen", Node: 1, State: "error"},
		},
	})
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("repeat batch: status=%d cached=%v, want a cache hit", code, again.Cached)
	}
	if len(again.Answers) != 3 || !again.Answers[2].Reachable {
		t.Errorf("cached answers = %+v, want the original three", again.Answers)
	}

	stats := getStats(t, ts.URL)
	q := stats.Query
	if q.Batches != 3 || q.Queries != 7 || q.MaxBatch != 3 {
		t.Errorf("query stats = %+v, want 3 batches / 7 queries / maxBatch 3", q)
	}
	if q.IsError != 3 || q.StatesAt != 2 || q.CanReach != 2 {
		t.Errorf("per-kind counts = %+v, want isError 3, statesAt 2, canReach 2", q)
	}
	if q.ResultHits != 1 || q.ResultMisses != 2 {
		t.Errorf("query result cache = %+v, want 1 hit / 2 misses", q)
	}
	if q.SliceMemo.Misses != 2 || q.SliceMemo.Entries != 2 {
		t.Errorf("slice memo = %+v, want 2 misses and 2 entries", q.SliceMemo)
	}
}

// TestQueryRejectsBadRequests covers the endpoint's validation paths; none
// of them may run any analysis.
func TestQueryRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	one := &query.Query{Kind: query.KindIsError, Site: "h1"}

	if _, code := postQuery(t, ts.URL, queryRequest{Source: testProgram, Engine: "frobnicate", Query: one}); code != http.StatusBadRequest {
		t.Errorf("bad engine status = %d, want 400", code)
	}
	if _, code := postQuery(t, ts.URL, queryRequest{Source: "class {", Query: one}); code != http.StatusUnprocessableEntity {
		t.Errorf("unparsable source status = %d, want 422", code)
	}
	if _, code := postQuery(t, ts.URL, queryRequest{Source: testProgram}); code != http.StatusBadRequest {
		t.Errorf("no query status = %d, want 400", code)
	}
	if _, code := postQuery(t, ts.URL, queryRequest{
		Source: testProgram, Query: one,
		Queries: []query.Query{*one},
	}); code != http.StatusBadRequest {
		t.Errorf("both query and queries status = %d, want 400", code)
	}
	for _, q := range []query.Query{
		{Kind: "reaches", Site: "h1"},
		{Kind: query.KindIsError, Site: "h9"},
		{Kind: query.KindStatesAt, Site: "h1", Proc: "Nope.m", Node: 0},
		{Kind: query.KindCanReach, Site: "h1", Proc: "Main.main", Node: 0, State: "ajar"},
	} {
		q := q
		if _, code := postQuery(t, ts.URL, queryRequest{Source: testProgram, Query: &q}); code != http.StatusBadRequest {
			t.Errorf("invalid query %v status = %d, want 400", q, code)
		}
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}
	if n := srv.sliceMemo.Stats().Entries; n != 0 {
		t.Errorf("rejected requests ran %d slices", n)
	}
}

// TestQueryCorruptCacheDropped: /query shares /analyze's corrupt-entry
// deletion path — a garbage blob is deleted, counted, recomputed and
// replaced, instead of being re-parsed on every request.
func TestQueryCorruptCacheDropped(t *testing.T) {
	srv, ts := newTestServer(t)
	req := queryRequest{Source: testProgram, Query: &query.Query{Kind: query.KindIsError, Site: "h1"}}

	if _, code := postQuery(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("first request status = %d", code)
	}
	b, err := driver.FromSource(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	key := driver.SliceRunKey(b, "swift", core.DefaultConfig(), "")
	key.Kind = "queryresult"
	key.Proc = batchDigest([]query.Query{*req.Query})
	srv.store.Put(key, []byte("not json"))

	second, code := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-corruption status = %d", code)
	}
	if second.Cached {
		t.Fatal("corrupt entry was served as a cache hit")
	}
	if len(second.Answers) != 1 || !second.Answers[0].Reachable {
		t.Fatalf("recomputed answers = %+v, want isError(h1)=true", second.Answers)
	}
	third, _ := postQuery(t, ts.URL, req)
	if !third.Cached {
		t.Fatal("recompute did not replace the corrupt entry")
	}
	if stats := getStats(t, ts.URL); stats.ResultCorrupt != 1 {
		t.Errorf("resultCorrupt = %d, want 1", stats.ResultCorrupt)
	}
}

// TestQueryAgreesWithAnalyze: the demand path and the exhaustive /analyze
// path answer the error question identically for every engine.
func TestQueryAgreesWithAnalyze(t *testing.T) {
	_, ts := newTestServer(t)
	for _, engine := range []string{"td", "bu", "swift"} {
		an, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: engine})
		if code != http.StatusOK {
			t.Fatalf("%s: /analyze status = %d", engine, code)
		}
		errSites := map[string]bool{}
		for _, s := range an.ErrorSites {
			errSites[s] = true
		}
		for _, site := range []string{"h1", "h2"} {
			q, code := postQuery(t, ts.URL, queryRequest{
				Source: testProgram, Engine: engine,
				Query: &query.Query{Kind: query.KindIsError, Site: site},
			})
			if code != http.StatusOK {
				t.Fatalf("%s: /query status = %d", engine, code)
			}
			if q.Answers[0].Reachable != errSites[site] {
				t.Errorf("%s: isError(%s) = %v, /analyze report %v",
					engine, site, q.Answers[0].Reachable, an.ErrorSites)
			}
		}
	}
}
