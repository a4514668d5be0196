package swiftd

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/driver"
	"swift/internal/hir"
	"swift/internal/query"
	"swift/internal/store"
)

// TestQueryStatsReportCacheBytes: after a few /analyze and /query
// requests, /stats reports the slice memo's and the store memory tier's
// resident bytes, each nonzero and within its bound.
func TestQueryStatsReportCacheBytes(t *testing.T) {
	srv, ts := newTestServer(t)
	if s := getStats(t, ts.URL); s.Query.SliceMemo.Bytes != 0 || s.Store.MemBytes != 0 {
		t.Fatalf("idle server reports memo %d bytes, store %d bytes", s.Query.SliceMemo.Bytes, s.Store.MemBytes)
	}
	for _, engine := range []string{"td", "swift"} {
		if _, code := postAnalyze(t, ts.URL, analyzeRequest{Source: testProgram, Engine: engine}); code != http.StatusOK {
			t.Fatalf("%s: /analyze status = %d", engine, code)
		}
		if _, code := postQuery(t, ts.URL, queryRequest{
			analyzeRequest: analyzeRequest{Source: testProgram, Engine: engine},
			Queries:        []query.Query{{Kind: query.KindIsError, Site: "h1"}, {Kind: query.KindIsError, Site: "h2"}},
		}); code != http.StatusOK {
			t.Fatalf("%s: /query status = %d", engine, code)
		}
	}
	s := getStats(t, ts.URL)
	memo := s.Query.SliceMemo
	if memo.Entries != 4 || memo.Bytes <= 0 || memo.Bytes > memo.MaxBytes || memo.MaxBytes != driver.DefaultSliceMemoBytes {
		t.Errorf("slice memo stats = %+v, want 4 entries, 0 < bytes <= maxBytes = %d", memo, driver.DefaultSliceMemoBytes)
	}
	if memo != srv.sliceMemo.Stats() {
		t.Errorf("/stats slice memo %+v, memo itself %+v", memo, srv.sliceMemo.Stats())
	}
	if s.Store.MemBytes <= 0 || s.Store.MemBytes > s.Store.MaxMemBytes || s.Store.MaxMemBytes != 1<<20 {
		t.Errorf("store stats = %+v, want 0 < MemBytes <= MaxMemBytes = %d", s.Store, 1<<20)
	}
}

// answerQueries posts one /query batch straight to a server's handler and
// returns its answers.
func answerQueries(t *testing.T, srv *Server, req queryRequest) []query.Answer {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/query status = %d: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Answers
}

// TestSliceMemoBoundedOverLongStream serves one long-lived server a longer
// edit stream than the serve-edits benchmark's 200 versions — 300
// distinct toba-s versions (eachVersion) — under a slice-memo bound of a
// few tables. After every
// request the memo's bytes stay within the bound, and every batch's
// answers equal a fresh server's. The first versions are then queried
// again: their slices were evicted long ago and must recompute to the
// same answers.
func TestSliceMemoBoundedOverLongStream(t *testing.T) {
	const versions, batch = 300, 2
	var srcs []string
	eachVersion(t, "toba-s", 40, versions, func(src string) { srcs = append(srcs, src) })

	st, err := store.Open("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Quiet: true})
	const bound = 16 << 10 // five or so toba-s slice tables
	srv.sliceMemo = driver.NewSliceMemo(bound)
	fresh := func() *Server {
		st, err := store.Open("", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return New(st, Options{Quiet: true})
	}

	// One batch per version, then a second batch for each of the first
	// ten versions to re-query them after the stream.
	reqs := make([]queryRequest, len(srcs)+10)
	for i := range reqs {
		src := srcs[i%len(srcs)]
		qs, err := query.Generate(mustBuild(t, src), nil, int64(i), batch)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = queryRequest{analyzeRequest: analyzeRequest{Source: src, Engine: "swift"}, Queries: qs}
	}
	for i, req := range reqs {
		got := answerQueries(t, srv, req)
		if want := answerQueries(t, fresh(), req); !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: answers %+v, a fresh server's %+v", i, got, want)
		}
		if s := srv.sliceMemo.Stats(); s.Bytes > bound || s.MaxBytes != bound {
			t.Fatalf("request %d: slice memo %+v over its %d-byte bound", i, s, bound)
		}
	}
	if s := srv.sliceMemo.Stats(); s.Misses < int64(len(reqs)) || s.Entries == 0 {
		t.Errorf("slice memo %+v: want a miss per request and some resident tables", s)
	}
}

// BenchmarkSliceMemoEditStream is the memory scale test behind the
// serve-edits numbers: one server analyzes and queries 600 distinct
// javasrc-p versions (eachVersion), the way serve-edits does, and every 50 versions logs
// the process's resident set, the live heap after a collection, and the
// slice memo's and store memory tier's bytes. Run it with
//
//	go test -run '^$' -bench SliceMemoEditStream -benchtime 1x -v ./internal/swiftd/
func BenchmarkSliceMemoEditStream(b *testing.B) {
	const versions, batch = 600, 5
	for n := 0; n < b.N; n++ {
		st, err := store.Open(b.TempDir(), 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		srv := New(st, Options{Quiet: true})
		h := srv.Handler()
		post := func(path string, req any) {
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s status = %d: %s", path, rec.Code, rec.Body)
			}
		}
		served := 0
		eachVersion(b, "javasrc-p", 90, versions, func(src string) {
			qs, err := query.Generate(mustBuild(b, src), nil, int64(served), batch)
			if err != nil {
				b.Fatal(err)
			}
			post("/analyze", analyzeRequest{Source: src, Engine: "swift"})
			post("/query", queryRequest{analyzeRequest: analyzeRequest{Source: src, Engine: "swift"}, Queries: qs})
			if served++; served%50 == 0 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				memo, sst := srv.sliceMemo.Stats(), st.Stats()
				b.Logf("versions=%d rss_mb=%.1f hwm_mb=%.1f heap_inuse_mb=%.1f memo_entries=%d memo_kb=%.1f store_mem_kb=%.1f",
					served, procStatusMB("VmRSS"), procStatusMB("VmHWM"), float64(ms.HeapInuse)/(1<<20),
					memo.Entries, float64(memo.Bytes)/(1<<10), float64(sst.MemBytes)/(1<<10))
			}
		})
		st.Close()
	}
}

// eachVersion calls f with the sources of n distinct versions of a
// benchprog profile: the unedited program, the single edits of a seeded
// EditStream of the given length, then pairs of those edits. Only source
// digests are kept, so a long stream holds no sources.
func eachVersion(tb testing.TB, profile string, singles, n int, f func(src string)) {
	tb.Helper()
	p, ok := benchprog.ProfileByName(profile)
	if !ok {
		tb.Fatalf("no benchprog profile %s", profile)
	}
	edits, err := benchprog.EditStream(p, 1, singles)
	if err != nil {
		tb.Fatal(err)
	}
	seen := map[[32]byte]bool{}
	version := func(es ...benchprog.Edit) {
		if len(seen) == n {
			return
		}
		prog, err := benchprog.GenerateEdited(p, es...)
		if err != nil {
			return // a pair whose second edit targets what the first removed
		}
		src := hir.Print(prog)
		if d := sha256.Sum256([]byte(src)); !seen[d] {
			seen[d] = true
			f(src)
		}
	}
	version()
	for _, e := range edits {
		version(e)
	}
	for i := range edits {
		for j := i + 1; j < len(edits) && len(seen) < n; j++ {
			version(edits[i], edits[j])
		}
	}
	if len(seen) < n {
		tb.Fatalf("%s edit stream yields %d distinct versions, want %d", profile, len(seen), n)
	}
}

// procStatusMB reads one kB field of /proc/self/status in MB (0 where the
// file is unavailable).
func procStatusMB(field string) float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func mustBuild(tb testing.TB, src string) *driver.Build {
	tb.Helper()
	b, err := driver.FromSource(src)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
