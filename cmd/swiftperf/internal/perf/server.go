package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"swift/internal/query"
	"swift/internal/store"
	"swift/internal/swiftd"
)

// server is an in-process swiftd on a loopback listener, over a disk store
// in a directory of its own, with one keep-alive connection per client.
type server struct {
	dir       string
	st        *store.Store
	hs        *http.Server
	served    chan error
	base      string
	transport *http.Transport
	client    *http.Client
}

// startServer configures swiftd the way cmd/swiftd does by default.
func startServer(parent string, clients int) (*server, error) {
	dir, err := os.MkdirTemp(parent, "swiftd-")
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	st, err := store.Open(filepath.Join(dir, "store"), 64<<20)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("perf: %w", err)
	}
	srv := swiftd.New(st, swiftd.Options{MaxQueue: 16, QueueWait: 2 * time.Second, Quiet: true})
	transport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	s := &server{
		dir:       dir,
		st:        st,
		hs:        &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute},
		served:    make(chan error, 1),
		base:      "http://" + ln.Addr().String(),
		transport: transport,
		client:    &http.Client{Transport: transport, Timeout: 5 * time.Minute},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down, waits for it, and removes its store.
func (s *server) stop() error {
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.st.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one request and reads the whole reply; lat spans both.
func (s *server) post(path string, body []byte) (status int, reply []byte, lat time.Duration, err error) {
	start := time.Now()
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, time.Since(start), err
}

// serverStats is the part of GET /stats the per-layer metrics read.
type serverStats struct {
	ResultHits   int64 `json:"resultHits"`
	ResultMisses int64 `json:"resultMisses"`
	Query        struct {
		SliceMemo struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"sliceMemo"`
	} `json:"query"`
	Robustness struct {
		EngineRuns   int64 `json:"engineRuns"`
		Coalesced    int64 `json:"coalesced"`
		Shed         int64 `json:"shed"`
		InFlightPeak int64 `json:"inFlightPeak"`
	} `json:"robustness"`
	Store store.Stats `json:"store"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return st, fmt.Errorf("perf: GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("perf: decoding /stats: %w", err)
	}
	return st, nil
}

// The request and reply bodies of /analyze and /query. The benchmark
// sends only the source, engine, thresholds and queries.
type analyzeRequest struct {
	Source string `json:"source"`
	Engine string `json:"engine"`
	K      int    `json:"k"`
	Theta  int    `json:"theta"`
}

type queryRequest struct {
	analyzeRequest
	Queries []query.Query `json:"queries"`
}

type analyzeReply struct {
	Engine         string   `json:"engine"`
	ErrorSites     []string `json:"errorSites"`
	Err            string   `json:"err,omitempty"`
	Completed      bool     `json:"completed"`
	Cached         bool     `json:"cached"`
	TablesDigest   string   `json:"tablesDigest,omitempty"`
	RestoredTables bool     `json:"restoredTables"`
	Relaxed        bool     `json:"relaxed"`
	SummaryHits    int64    `json:"summaryHits"`
	SummaryMisses  int64    `json:"summaryMisses"`
	ElapsedMS      int64    `json:"elapsedMs"`
}

type queryReply struct {
	Engine     string         `json:"engine"`
	Answers    []query.Answer `json:"answers"`
	Cached     bool           `json:"cached"`
	Slices     int            `json:"slices"`
	MemoHits   int            `json:"memoHits"`
	MemoMisses int            `json:"memoMisses"`
	Work       int            `json:"work"`
	ElapsedMS  int64          `json:"elapsedMs"`
}

// request is one HTTP request of a serve workload.
type request struct {
	path    string // "/analyze" or "/query"
	src     string
	engine  string
	queries []query.Query
	body    []byte
}

// Every request uses the paper's thresholds.
const serveK, serveTheta = 5, 1

func newRequest(path, src, engine string, qs []query.Query) (request, error) {
	ar := analyzeRequest{Source: src, Engine: engine, K: serveK, Theta: serveTheta}
	var body []byte
	var err error
	if path == "/query" {
		body, err = json.Marshal(queryRequest{analyzeRequest: ar, Queries: qs})
	} else {
		body, err = json.Marshal(ar)
	}
	return request{path: path, src: src, engine: engine, queries: qs, body: body}, err
}

// errorSiteAnswersAgree checks every isError answer against a report.
func errorSiteAnswersAgree(answers []query.Answer, want int, sites []string) bool {
	if len(answers) != want {
		return false
	}
	report := map[string]bool{}
	for _, s := range sites {
		report[s] = true
	}
	for _, a := range answers {
		if a.Query.Kind == query.KindIsError && a.Reachable != report[a.Query.Site] {
			return false
		}
	}
	return true
}

// phase is one measured stretch of closed-loop load. With a tracer it
// also records a client span per request and the request stream in start
// order, for the replay.
type phase struct {
	srv *server
	rec *recorder
	tr  *Tracer

	mu     sync.Mutex
	log    []request
	slices int
	work   int
	qs     int
}

// do sends r and returns its reply, or nil when the request failed (the
// failure is recorded).
func (p *phase) do(r request) []byte {
	span := 0
	if p.tr != nil {
		p.mu.Lock()
		p.log = append(p.log, r)
		req := len(p.log)
		p.mu.Unlock()
		span = p.tr.Begin(0, req, "client", r.path[1:])
	}
	status, reply, lat, err := p.srv.post(r.path, r.body)
	if span != 0 {
		p.tr.End(span)
	}
	ok := err == nil && status == http.StatusOK
	p.rec.add(r.path[1:], lat, ok)
	if !ok {
		return nil
	}
	return reply
}

// countQuery folds a /query reply's demand statistics in.
func (p *phase) countQuery(qr *queryReply) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slices += qr.Slices
	p.work += qr.Work
	p.qs++
}

// closedLoop runs clients goroutines, each calling step until step
// returns false or dur has passed, and returns the phase's wall time.
func closedLoop(clients int, dur time.Duration, step func() bool) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && step() {
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
