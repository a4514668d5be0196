package swiftd

// Robustness tests: admission control and shedding, single-flight
// coalescing, cooperative cancellation on client disconnect and request
// timeout, drain mode, the probing health check, body caps and the
// access log.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"swift/internal/query"
	"swift/internal/store"
)

// slowProgram builds a program variant whose /analyze run takes long
// enough (deep chain of loop-and-branch methods) that concurrent
// requests reliably overlap; the variant marker partitions every cache.
func slowProgram(variant, depth, width int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}

class Main {
  method main() {
    v%d = new File @v%d
    w = new Worker @w1
    f = new File @h1
    f.open()
    w.m0(f)
    f.close()
  }
}

class Worker {
`, variant, variant)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "  method m%d(f) {\n    while (*) {\n", i)
		for j := 0; j < width; j++ {
			sb.WriteString("      if (*) { f.read() } else { f.open(); f.close(); f.open() }\n")
		}
		if i+1 < depth {
			fmt.Fprintf(&sb, "      this.m%d(f)\n", i+1)
		}
		sb.WriteString("    }\n  }\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoalesceIdenticalRequests is the single-flight acceptance check,
// for both endpoints: N identical concurrent requests run the engine
// exactly once, every participant gets the same response bytes, and the
// coalesced counter accounts for the other N-1.
func TestCoalesceIdenticalRequests(t *testing.T) {
	for _, tc := range []struct {
		path  string
		req   any
		check func(t *testing.T, body []byte)
	}{
		{"/analyze", analyzeRequest{Source: slowProgram(1, 30, 15)}, func(t *testing.T, body []byte) {
			var resp analyzeResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.ErrorSites) != 1 || resp.ErrorSites[0] != "h1" {
				t.Errorf("error sites = %v, want [h1]", resp.ErrorSites)
			}
		}},
		{"/query", queryRequest{
			analyzeRequest: analyzeRequest{Source: slowProgram(2, 30, 15)},
			Query:          &query.Query{Kind: query.KindIsError, Site: "h1"},
		}, func(t *testing.T, body []byte) {
			var resp queryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Answers) != 1 || !resp.Answers[0].Reachable {
				t.Errorf("answers = %+v, want isError(h1) reachable", resp.Answers)
			}
		}},
	} {
		t.Run(tc.path[1:], func(t *testing.T) {
			srv, ts := newTestServerOpts(t, Options{Quiet: true, MaxInFlight: 2})
			const n = 6
			body, _ := json.Marshal(tc.req)

			bodies := make([][]byte, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					defer resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("request %d: status %d", i, resp.StatusCode)
						return
					}
					bodies[i], _ = io.ReadAll(resp.Body)
				}(i)
			}
			wg.Wait()

			for i := 1; i < n; i++ {
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("request %d got different bytes than request 0", i)
				}
			}
			if got := srv.engineRuns.Load(); got != 1 {
				t.Errorf("engineRuns = %d, want exactly 1", got)
			}
			if got := srv.flights.coalesced.Load(); got != n-1 {
				t.Errorf("coalesced = %d, want %d", got, n-1)
			}
			tc.check(t, bodies[0])
		})
	}
}

// TestShedWith429 saturates a 1-slot, 0-queue gate and asserts the
// second request is shed with 429 + Retry-After while /readyz turns
// unready; after the first run finishes the gate recovers.
func TestShedWith429(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{
		Quiet: true, MaxInFlight: 1, MaxQueue: 0, QueueWait: 50 * time.Millisecond,
	})

	firstDone := make(chan int, 1)
	body1, _ := json.Marshal(analyzeRequest{Source: slowProgram(1, 30, 15)})
	go func() {
		resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body1))
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	waitFor(t, "first run in flight", func() bool { return srv.gate.inFlight.Load() == 1 })

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ready.Body)
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while saturated = %d, want 503", ready.StatusCode)
	}

	body2, _ := json.Marshal(analyzeRequest{Source: slowProgram(2, 30, 15)})
	resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d, want 429 (body %s)", resp.StatusCode, shedBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if !strings.Contains(string(shedBody), "saturated") {
		t.Errorf("shed body = %s, want a structured saturation error", shedBody)
	}
	if got := srv.gate.shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", code)
	}
	ready2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ready2.Body)
	ready2.Body.Close()
	if ready2.StatusCode != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200", ready2.StatusCode)
	}
}

// TestRequestTimeout504: a run that exceeds the per-request deadline
// returns a structured 504 and its engine run is canceled — the slot
// frees up without the run completing.
func TestRequestTimeout504(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{
		Quiet: true, MaxInFlight: 1, ReqTimeout: 100 * time.Millisecond,
	})
	body, _ := json.Marshal(analyzeRequest{Source: slowProgram(1, 30, 15)})
	resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "deadline") {
		t.Errorf("504 body = %s, want a structured deadline error", out)
	}
	if got := srv.timeouts.Load(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	waitFor(t, "canceled run to unwind", func() bool {
		return srv.canceledRuns.Load() == 1 && srv.gate.inFlight.Load() == 0
	})
}

// TestClientDisconnectCancelsRun: closing the client connection while a
// run is in flight cancels the engine run and writes nothing.
func TestClientDisconnectCancelsRun(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{Quiet: true, MaxInFlight: 1})
	body, _ := json.Marshal(analyzeRequest{Source: slowProgram(1, 30, 15)})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "run in flight", func() bool { return srv.gate.inFlight.Load() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request still got a response")
	}
	waitFor(t, "canceled run to unwind", func() bool {
		return srv.canceledRuns.Load() == 1 && srv.gate.inFlight.Load() == 0
	})
	if got := srv.timeouts.Load(); got != 0 {
		t.Errorf("timeouts = %d, want 0 (disconnect is not a deadline)", got)
	}
}

// TestDrainRejectsNewWork: BeginDrain turns /readyz unready and rejects
// analysis endpoints with 503, while /healthz and /stats stay up.
func TestDrainRejectsNewWork(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.BeginDrain()

	for _, path := range []string{"/analyze", "/query"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s while draining = %d, want 503", path, resp.StatusCode)
		}
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ready.Body)
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", ready.StatusCode)
	}
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while draining = %d, want 200", path, resp.StatusCode)
		}
	}
	stats := getStats(t, ts.URL)
	if !stats.Robustness.Draining {
		t.Error("stats.robustness.draining = false while draining")
	}
}

// TestHealthzProbesStore: /healthz reflects disk-tier health — it fails
// (503, counted) once the store directory is replaced by a plain file,
// which breaks every write with ENOTDIR even when running as root.
func TestHealthzProbesStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Quiet: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy probe status = %d", resp.StatusCode)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("broken-disk probe status = %d, want 503 (body %s)", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "probe") {
		t.Errorf("probe failure body = %s, want a structured probe error", out)
	}
	if got := srv.probeFailures.Load(); got == 0 {
		t.Error("probeFailures = 0 after a failed probe")
	}
}

// TestOversizedBody413: a body past MaxBody gets a structured 413 and
// is counted.
func TestOversizedBody413(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{Quiet: true, MaxBody: 1024})
	big, _ := json.Marshal(analyzeRequest{Source: strings.Repeat("x", 4096)})
	resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "1024") {
		t.Errorf("413 body = %s, want the configured limit", out)
	}
	if got := srv.oversizedBodies.Load(); got != 1 {
		t.Errorf("oversizedBodies = %d, want 1", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for capturing the access
// log, which is written from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLog: every request produces one log line with method, path
// and status unless Quiet is set.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	st, err := store.Open("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Logger: log.New(&buf, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	waitFor(t, "access log line", func() bool {
		return strings.Contains(buf.String(), "GET /healthz 200")
	})
}
