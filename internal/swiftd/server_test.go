package swiftd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/query"
	"swift/internal/store"
)

const testProgram = `
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}

class Main {
  method main() {
    w = new Worker @w1
    a = new File @h1
    b = new File @h2
    w.doubleOpen(a)
    w.ok(b)
  }
}

class Worker {
  method doubleOpen(f) { f.open(); f.open() }
  method ok(f) { f.open(); f.close() }
}
`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerOpts(t, Options{Quiet: true})
}

func newTestServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postAnalyze(t *testing.T, url string, req analyzeRequest) (analyzeResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out analyzeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status = %d", resp.StatusCode)
	}
	var out statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalyzeRepeatHitsCache is the tentpole acceptance check at the HTTP
// layer: the second identical request is served from the result cache,
// with identical findings and tables digest.
func TestAnalyzeRepeatHitsCache(t *testing.T) {
	_, ts := newTestServer(t)

	first, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram})
	if code != http.StatusOK {
		t.Fatalf("first request status = %d", code)
	}
	if first.Cached {
		t.Fatal("first request reported cached=true")
	}
	if len(first.ErrorSites) != 1 || first.ErrorSites[0] != "h1" {
		t.Fatalf("error sites = %v, want [h1]", first.ErrorSites)
	}
	if first.TablesDigest == "" {
		t.Fatal("first response missing tables digest")
	}

	second, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram})
	if code != http.StatusOK {
		t.Fatalf("second request status = %d", code)
	}
	if !second.Cached {
		t.Fatal("second identical request was not served from cache")
	}
	if second.TablesDigest != first.TablesDigest {
		t.Fatalf("cached tables digest %s != original %s", second.TablesDigest, first.TablesDigest)
	}
	if len(second.ErrorSites) != 1 || second.ErrorSites[0] != "h1" {
		t.Fatalf("cached error sites = %v, want [h1]", second.ErrorSites)
	}

	stats := getStats(t, ts.URL)
	if stats.Requests != 2 || stats.ResultHits != 1 || stats.ResultMisses != 1 {
		t.Fatalf("stats = %+v, want 2 requests / 1 hit / 1 miss", stats)
	}
	if stats.Store.Puts == 0 {
		t.Fatalf("store stats = %+v, expected puts from the first run", stats.Store)
	}
	// The repeat found its key through the source-digest memo and skipped
	// the front end.
	if stats.Builds != 1 || stats.KeyMemo != (keyMemoStats{Entries: 1, MaxEntries: keyMemoEntries, Hits: 1, Misses: 1}) {
		t.Fatalf("builds = %d, keyMemo = %+v; want 1 build, 1 entry of %d, 1 hit, 1 miss", stats.Builds, stats.KeyMemo, keyMemoEntries)
	}
}

// TestAnalyzeEngineAndConfigPartitionCache: different engines and
// thresholds must not share result-cache entries, but identical settings
// expressed differently (td ignores K) must.
func TestAnalyzeEngineAndConfigPartitionCache(t *testing.T) {
	_, ts := newTestServer(t)

	swift, _ := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: "swift"})
	td, _ := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: "td"})
	if swift.Cached || td.Cached {
		t.Fatal("distinct engines shared a cache entry")
	}
	// td normalizes K away: a td request with any K hits the same entry.
	k := 3
	td2, _ := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: "td", K: &k})
	if !td2.Cached {
		t.Fatal("td with explicit K missed; K should be normalized out of td keys")
	}
	// A different theta for swift is a different entry.
	th := 7
	sw2, _ := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: "swift", Theta: &th})
	if sw2.Cached {
		t.Fatal("swift with different theta hit the default-theta entry")
	}
}

func TestAnalyzeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)

	for _, engine := range []string{"frobnicate", "swift-async"} {
		if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: engine}); code != http.StatusBadRequest {
			t.Errorf("engine %q status = %d, want 400", engine, code)
		}
	}
	if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: "class {"}); code != http.StatusUnprocessableEntity {
		t.Errorf("unparsable source status = %d, want 422", code)
	}
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze status = %d, want 405", resp.StatusCode)
	}
}

// TestStructureTelemetry: a td run engages the sparse scheduler and its
// counters land in the /stats structure block; a hybrid run stays dense.
// The engines' ablation knobs are not request fields: a td request that
// still asks for the dense worklist is rejected before any engine runs,
// rather than being served the default run's cache entry.
func TestStructureTelemetry(t *testing.T) {
	_, ts := newTestServer(t)

	if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: "td"}); code != http.StatusOK {
		t.Fatalf("td status = %d", code)
	}
	stats := getStats(t, ts.URL)
	st := stats.Structure
	if st.SparseRuns != 1 || st.DenseRuns != 0 {
		t.Fatalf("structure after td = %+v, want 1 sparse / 0 dense", st)
	}
	if st.Pops == 0 || st.Steps == 0 || st.Pops >= st.Steps {
		t.Errorf("structure batching counters = %+v, want 0 < pops < steps", st)
	}

	if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: "swift"}); code != http.StatusOK {
		t.Fatalf("swift status = %d", code)
	}
	body, _ := json.Marshal(map[string]any{"source": testProgram, "engine": "td", "noSparse": true})
	if code, msg := postRaw(t, ts.URL+"/analyze", body); code != http.StatusBadRequest {
		t.Fatalf("td noSparse status = %d (%s), want 400", code, msg)
	}
	st = getStats(t, ts.URL).Structure
	if st.SparseRuns != 1 || st.DenseRuns != 1 {
		t.Errorf("structure after swift + rejected td = %+v, want 1 sparse / 1 dense", st)
	}
}

// postRaw posts a raw JSON body and returns the status and the decoded
// error message (empty on success).
func postRaw(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.Error
}

// TestUnknownFieldsRejected: a body field the endpoint does not define —
// a retired ablation knob, or a typo of a real option — is a 400 naming
// the field, not a silent default run. Nested query objects are checked
// too.
func TestUnknownFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	isError := map[string]any{"kind": "isError", "site": "h1"}
	for _, tc := range []struct {
		path, field string
		body        map[string]any
	}{
		{"/analyze", "noSparse", map[string]any{"source": testProgram, "engine": "td", "noSparse": true}},
		{"/analyze", "rawCFG", map[string]any{"source": testProgram, "rawCFG": true}},
		{"/analyze", "thetta", map[string]any{"source": testProgram, "thetta": 2}},
		{"/query", "noTransferMemo", map[string]any{"source": testProgram, "query": isError, "noTransferMemo": true}},
		{"/query", "thetta", map[string]any{"source": testProgram, "query": isError, "thetta": 2}},
		{"/query", "sight", map[string]any{"source": testProgram, "query": map[string]any{"kind": "isError", "sight": "h1"}}},
	} {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		code, msg := postRaw(t, ts.URL+tc.path, body)
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("%s with %q: status %d, error %q; want 400 naming the field", tc.path, tc.field, code, msg)
		}
	}
	// The same bodies without the stray field are served.
	if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: "td"}); code != http.StatusOK {
		t.Errorf("/analyze control status = %d", code)
	}
	q := query.Query{Kind: query.KindIsError, Site: "h1"}
	if _, code := postQuery(t, ts.URL, queryRequest{analyzeRequest: analyzeRequest{Source: testProgram}, Query: &q}); code != http.StatusOK {
		t.Errorf("/query control status = %d", code)
	}
	if runs := getStats(t, ts.URL).Robustness.EngineRuns; runs != 2 {
		t.Errorf("engineRuns = %d, want 2 (only the control requests run)", runs)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
}

// TestCorruptResultCacheDropped: a corrupt cached response must be
// deleted and counted, and the recompute must repopulate the entry so
// the next identical request hits again.
func TestCorruptResultCacheDropped(t *testing.T) {
	srv, ts := newTestServer(t)

	if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram}); code != http.StatusOK {
		t.Fatalf("first request status = %d", code)
	}
	b, err := driver.FromSource(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	key := driver.ResultKey(b, "swift", core.DefaultConfig())
	srv.store.Put(key, []byte("not json"))

	second, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram})
	if code != http.StatusOK {
		t.Fatalf("post-corruption request status = %d", code)
	}
	if second.Cached {
		t.Fatal("corrupt entry was served as a cache hit")
	}
	if len(second.ErrorSites) != 1 || second.ErrorSites[0] != "h1" {
		t.Fatalf("recomputed error sites = %v, want [h1]", second.ErrorSites)
	}

	third, _ := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram})
	if !third.Cached {
		t.Fatal("recompute did not replace the corrupt entry")
	}
	stats := getStats(t, ts.URL)
	if stats.ResultCorrupt != 1 {
		t.Errorf("resultCorrupt = %d, want 1", stats.ResultCorrupt)
	}
	if stats.Store.Deletes == 0 {
		t.Errorf("store stats = %+v, want a delete of the corrupt blob", stats.Store)
	}
}

// incTestProgramV1/V2 are two versions of one program: V2 adds a
// redundant g.read() inside Worker.other. The edit adds no variables, no
// allocation sites and no points-to flows, so the client's frozen
// construction is unchanged while the program digest moves. Worker.use
// is invoked in two distinct states (closed, then opened), so it
// triggers run_bu at K=1.
const incTestProgramV1 = `
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}

class Main {
  method main() {
    w = new Worker @w1
    a = new File @h1
    w.use(a)
    a.open()
    w.use(a)
    b = new File @h2
    w.other(b)
  }
}

class Worker {
  method use(f) { f.read() }
  method other(g) { g.open(); g.close() }
}
`

const incTestProgramV2 = `
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}

class Main {
  method main() {
    w = new Worker @w1
    a = new File @h1
    w.use(a)
    a.open()
    w.use(a)
    b = new File @h2
    w.other(b)
  }
}

class Worker {
  method use(f) { f.read() }
  method other(g) { g.open(); g.read(); g.close() }
}
`

// TestEditStreamRepliesMatchFreshServer: the store history of a
// long-lived server never changes an answer. Over a short edit stream,
// each swift /analyze reply of one server with a disk store carries the
// tablesDigest and errorSites of a fresh server's reply to the same
// source.
func TestEditStreamRepliesMatchFreshServer(t *testing.T) {
	_, ts := newTestServer(t)
	var srcs []string
	eachVersion(t, "toba-s", 4, 6, func(src string) { srcs = append(srcs, src) })
	srcs = append(srcs, srcs[0]) // the base again, after its edits
	for i, src := range srcs {
		req := analyzeRequest{Source: src, Engine: "swift"}
		got, code := postAnalyze(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("version %d: status = %d", i, code)
		}
		_, freshTS := newTestServer(t)
		want, code := postAnalyze(t, freshTS.URL, req)
		if code != http.StatusOK {
			t.Fatalf("version %d: fresh status = %d", i, code)
		}
		if got.TablesDigest == "" || got.TablesDigest != want.TablesDigest {
			t.Errorf("version %d: tablesDigest %q, a fresh server's %q", i, got.TablesDigest, want.TablesDigest)
		}
		if !slices.Equal(got.ErrorSites, want.ErrorSites) {
			t.Errorf("version %d: errorSites %v, a fresh server's %v", i, got.ErrorSites, want.ErrorSites)
		}
	}
}
