package swiftd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/query"
	"swift/internal/store"
)

// postBytes posts v as JSON to url+path and returns the status and the raw
// reply body.
func postBytes(t *testing.T, url, path string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// serverOver starts a second server over st, with its own empty key memo.
func serverOver(t *testing.T, st *store.Store) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(st, Options{Quiet: true}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestKeyMemoHitByteIdentical: a repeat /analyze answered through the key
// memo, without a build, replies with exactly the bytes a server that
// never saw the source sends for the same store hit after building, under
// every engine at default and non-default thresholds.
func TestKeyMemoHitByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t)
	other := serverOver(t, srv.store)
	k, theta := 1, 2
	var requests int64
	for _, engine := range []string{"td", "bu", "swift"} {
		for _, req := range []analyzeRequest{
			{Source: testProgram, Engine: engine},
			{Source: testProgram, Engine: engine, K: &k, Theta: &theta},
		} {
			if code, body := postBytes(t, ts.URL, "/analyze", req); code != http.StatusOK {
				t.Fatalf("%s first request: status %d: %s", engine, code, body)
			}
			builds := srv.builds.Load()
			code, memoHit := postBytes(t, ts.URL, "/analyze", req)
			if code != http.StatusOK {
				t.Fatalf("%s memo request: status %d", engine, code)
			}
			if got := srv.builds.Load(); got != builds {
				t.Errorf("%s: a memo hit built the program (%d → %d builds)", engine, builds, got)
			}
			code, storeHit := postBytes(t, other.URL, "/analyze", req)
			if code != http.StatusOK {
				t.Fatalf("%s other server: status %d", engine, code)
			}
			if !bytes.Equal(memoHit, storeHit) {
				t.Errorf("%s k=%v: memo hit reply\n%s differs from the store hit reply\n%s", engine, req.K != nil, memoHit, storeHit)
			}
			var resp analyzeResponse
			if err := json.Unmarshal(memoHit, &resp); err != nil || !resp.Cached {
				t.Errorf("%s: memo hit reply %s is not a cached response (%v)", engine, memoHit, err)
			}
			requests += 2
		}
	}
	// Each engine and threshold pair is a new result key: its first request
	// misses the store and builds, its repeat does not.
	s := getStats(t, ts.URL)
	if s.Builds != requests/2 || s.KeyMemo.Misses != 1 || s.KeyMemo.Hits != requests-1 || s.KeyMemo.Entries != 1 {
		t.Errorf("stats builds=%d keyMemo=%+v, want %d builds, 1 miss, %d hits, 1 entry", s.Builds, s.KeyMemo, requests/2, requests-1)
	}
	if s.ResultHits+s.ResultMisses != requests {
		t.Errorf("result hits %d + misses %d, want one per request (%d)", s.ResultHits, s.ResultMisses, requests)
	}
}

// TestKeyMemoHitWithoutBlobRebuilds: a source the memo knows whose result
// blob is gone from the store rebuilds and recomputes, counting one miss.
func TestKeyMemoHitWithoutBlobRebuilds(t *testing.T) {
	srv, ts := newTestServer(t)
	first, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram})
	if code != http.StatusOK {
		t.Fatalf("first status = %d", code)
	}
	b, err := driver.FromSource(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	srv.store.Delete(driver.ResultKey(b, "swift", core.DefaultConfig()))

	second, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram})
	if code != http.StatusOK {
		t.Fatalf("second status = %d", code)
	}
	if second.Cached {
		t.Fatal("a deleted blob was served as cached")
	}
	if second.TablesDigest != first.TablesDigest || !reflect.DeepEqual(second.ErrorSites, first.ErrorSites) {
		t.Errorf("recomputed %+v, first %+v", second, first)
	}
	s := getStats(t, ts.URL)
	if s.Builds != 2 || s.KeyMemo.Hits != 1 || s.ResultHits != 0 || s.ResultMisses != 2 || s.Robustness.EngineRuns != 2 {
		t.Errorf("stats builds=%d keyMemo=%+v hits=%d misses=%d engineRuns=%d; want 2 builds, 1 memo hit, 0 hits, 2 misses, 2 runs",
			s.Builds, s.KeyMemo, s.ResultHits, s.ResultMisses, s.Robustness.EngineRuns)
	}
	if third, _ := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram}); !third.Cached {
		t.Error("the recompute did not republish the blob")
	}
	if got := srv.builds.Load(); got != 2 {
		t.Errorf("builds = %d after the republished hit, want 2", got)
	}
}

// TestKeyMemoSkipsFailedBuilds: a source that fails to build gets 422 on
// every request, from both endpoints, and is never remembered.
func TestKeyMemoSkipsFailedBuilds(t *testing.T) {
	_, ts := newTestServer(t)
	const bad = "class {"
	for i := 0; i < 3; i++ {
		if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: bad}); code != http.StatusUnprocessableEntity {
			t.Fatalf("/analyze %d: status %d, want 422", i, code)
		}
		q := query.Query{Kind: query.KindIsError, Site: "h1"}
		if _, code := postQuery(t, ts.URL, queryRequest{Source: bad, Query: &q}); code != http.StatusUnprocessableEntity {
			t.Fatalf("/query %d: status %d, want 422", i, code)
		}
	}
	s := getStats(t, ts.URL)
	if s.Builds != 6 || s.KeyMemo.Entries != 0 || s.KeyMemo.Hits != 0 || s.KeyMemo.Misses != 6 {
		t.Errorf("stats builds=%d keyMemo=%+v, want 6 builds, 6 misses, no entry", s.Builds, s.KeyMemo)
	}
	if s.ResultHits+s.ResultMisses+s.Query.ResultHits+s.Query.ResultMisses != 0 {
		t.Errorf("failed builds counted result lookups: %+v", s)
	}
}

// TestKeyMemoWhitespaceVariant: a variant of a source that differs only in
// whitespace has different bytes, so it misses the memo, but it builds to
// equal digests and so hits the stored answer.
func TestKeyMemoWhitespaceVariant(t *testing.T) {
	srv, ts := newTestServer(t)
	if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram}); code != http.StatusOK {
		t.Fatalf("first status = %d", code)
	}
	variant, code := postAnalyze(t, ts.URL, analyzeRequest{Source: "\n  " + testProgram + "\n\n"})
	if code != http.StatusOK {
		t.Fatalf("variant status = %d", code)
	}
	if !variant.Cached {
		t.Error("the whitespace variant missed the stored answer")
	}
	s := getStats(t, ts.URL)
	if s.Builds != 2 || s.KeyMemo.Hits != 0 || s.KeyMemo.Misses != 2 || s.KeyMemo.Entries != 2 || s.ResultHits != 1 {
		t.Errorf("stats builds=%d keyMemo=%+v resultHits=%d; want 2 builds, 2 memo misses, 2 entries, 1 hit", s.Builds, s.KeyMemo, s.ResultHits)
	}
	if got := srv.engineRuns.Load(); got != 1 {
		t.Errorf("engineRuns = %d, want 1", got)
	}
}

// TestKeyMemoEvictsLeastRecentlyUsed shrinks the bound to two entries: a
// third source evicts the least recently used one, which then builds
// again (and still hits the store), while the others keep skipping the
// build.
func TestKeyMemoEvictsLeastRecentlyUsed(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.keys.max = 2
	src := func(i int) string { return testProgram + fmt.Sprintf("%*s", i, "") }
	builds := func() int64 { return srv.builds.Load() }
	post := func(i int, wantBuilds int64) {
		t.Helper()
		if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: src(i)}); code != http.StatusOK {
			t.Fatalf("source %d: status %d", i, code)
		}
		if got := builds(); got != wantBuilds {
			t.Fatalf("after source %d: %d builds, want %d", i, got, wantBuilds)
		}
	}
	post(0, 1)
	post(1, 2)
	post(0, 2) // hit: 0 becomes the most recent
	post(2, 3) // evicts 1
	if s := srv.keys.stats(); s.Entries != 2 || s.MaxEntries != 2 {
		t.Fatalf("memo stats %+v, want 2 of 2 entries", s)
	}
	post(0, 3)
	post(2, 3)
	post(1, 4) // evicted: builds again
	if s := getStats(t, ts.URL); s.ResultHits != 6 || s.ResultMisses != 1 {
		t.Errorf("result hits %d, misses %d; want 6 and 1", s.ResultHits, s.ResultMisses)
	}
}

// TestKeyMemoQuery: a /query batch answered before is served through the
// memo without a build; a new batch on a known source builds, and an
// invalid one is still a 400 that counts no result lookup.
func TestKeyMemoQuery(t *testing.T) {
	srv, ts := newTestServer(t)
	batch := queryRequest{Source: testProgram, Queries: []query.Query{
		{Kind: query.KindIsError, Site: "h1"}, {Kind: query.KindIsError, Site: "h2"},
	}}
	code, first := postBytes(t, ts.URL, "/query", batch)
	if code != http.StatusOK {
		t.Fatalf("first batch status %d", code)
	}
	code, memoHit := postBytes(t, ts.URL, "/query", batch)
	if code != http.StatusOK {
		t.Fatalf("repeat batch status %d", code)
	}
	if got := srv.builds.Load(); got != 1 {
		t.Errorf("builds = %d after a repeat batch, want 1", got)
	}
	_, storeHit := postBytes(t, serverOver(t, srv.store).URL, "/query", batch)
	if !bytes.Equal(memoHit, storeHit) {
		t.Errorf("memo hit reply\n%s differs from the store hit reply\n%s", memoHit, storeHit)
	}
	var a, b queryResponse
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(memoHit, &b); err != nil {
		t.Fatal(err)
	}
	if a.Cached || !b.Cached || !reflect.DeepEqual(a.Answers, b.Answers) {
		t.Errorf("first %+v, repeat %+v; want equal answers, only the repeat cached", a, b)
	}

	fresh := query.Query{Kind: query.KindCanReach, Site: "h1", Proc: "Worker.doubleOpen", Node: 1, State: "error"}
	if _, code := postQuery(t, ts.URL, queryRequest{Source: testProgram, Query: &fresh}); code != http.StatusOK {
		t.Fatalf("fresh batch status %d", code)
	}
	bad := query.Query{Kind: query.KindIsError, Site: "nosuchsite"}
	if _, code := postQuery(t, ts.URL, queryRequest{Source: testProgram, Query: &bad}); code != http.StatusBadRequest {
		t.Fatalf("invalid batch status %d, want 400", code)
	}
	s := getStats(t, ts.URL)
	if s.Builds != 3 || s.KeyMemo.Hits != 3 {
		t.Errorf("builds %d, keyMemo %+v; want 3 builds, 3 memo hits", s.Builds, s.KeyMemo)
	}
	if q := s.Query; q.ResultHits != 1 || q.ResultMisses != 2 || q.Batches != 3 || q.Queries != 5 {
		t.Errorf("query stats %+v, want 1 hit, 2 misses, 3 batches, 5 queries", q)
	}
}

// TestKeyMemoConcurrentMixed runs /analyze and /query requests for a few
// sources concurrently against a two-entry memo, so lookups, fills and
// evictions interleave, and checks every reply against a sequential
// server's. Run it under -race. The queue holds every worker, so no
// request is shed.
func TestKeyMemoConcurrentMixed(t *testing.T) {
	const workers = 4
	srv, ts := newTestServerOpts(t, Options{Quiet: true, MaxQueue: workers, QueueWait: time.Minute})
	srv.keys.max = 2
	_, refTS := newTestServer(t)
	sources := []string{testProgram, testProgram + "\n", incTestProgramV1, incTestProgramV2, "class {"}
	type job struct {
		path string
		req  any
	}
	var jobs []job
	for _, src := range sources {
		for _, engine := range []string{"td", "swift"} {
			jobs = append(jobs,
				job{"/analyze", analyzeRequest{Source: src, Engine: engine}},
				job{"/query", queryRequest{Source: src, Engine: engine, Query: &query.Query{Kind: query.KindIsError, Site: "h1"}}},
				job{"/query", queryRequest{Source: src, Engine: engine, Query: &query.Query{Kind: query.KindIsError, Site: "h2"}}},
			)
		}
	}
	// normalize drops the fields that legitimately differ between a fresh
	// and a cached reply.
	normalize := func(path string, body []byte) string {
		var v map[string]any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s reply %s: %v", path, body, err)
		}
		for _, f := range []string{"cached", "elapsedMs", "restoredTables", "memoHits", "memoMisses", "work", "slices"} {
			delete(v, f)
		}
		out, _ := json.Marshal(v)
		return string(out)
	}
	want := make([]string, len(jobs))
	wantCode := make([]int, len(jobs))
	for i, j := range jobs {
		code, body := postBytes(t, refTS.URL, j.path, j.req)
		wantCode[i], want[i] = code, normalize(j.path, body)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for n := range jobs {
					i := (n*7 + w*5 + round*3) % len(jobs)
					code, body := postBytes(t, ts.URL, jobs[i].path, jobs[i].req)
					if code != wantCode[i] {
						t.Errorf("job %d (%s): status %d, want %d", i, jobs[i].path, code, wantCode[i])
						continue
					}
					if got := normalize(jobs[i].path, body); got != want[i] {
						t.Errorf("job %d (%s): reply %s, want %s", i, jobs[i].path, got, want[i])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := getStats(t, ts.URL)
	if s.KeyMemo.Entries > 2 || s.KeyMemo.Hits == 0 {
		t.Errorf("keyMemo %+v, want at most 2 entries and some hits", s.KeyMemo)
	}
}
