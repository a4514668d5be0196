// Package swiftd implements the analysis server behind cmd/swiftd: a
// JSON-over-HTTP front end over the persistent artifact store, hardened
// for production use. Beyond the two cache layers (whole-response
// blobs, intern-table snapshots) and the
// source-digest memo in front of them (keymemo.go) it provides:
//
//   - cooperative cancellation: every engine run carries a cancel
//     channel wired to the request context, so a client disconnect or a
//     per-request deadline aborts the run at its next periodic check;
//   - admission control: a bounded in-flight gate with a bounded wait
//     queue sheds excess load with 429 + Retry-After instead of
//     accepting unbounded work;
//   - single-flight coalescing: concurrent requests for the same result
//     key share one engine run and one response blob;
//   - graceful shutdown: BeginDrain flips /readyz and rejects new
//     analysis work, CancelInflight aborts stragglers past the drain
//     deadline.
package swiftd

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/store"
)

// Options configures a Server. Zero values take the documented
// defaults, except MaxQueue: a zero queue really is a zero-length queue
// (requests that find every slot busy are shed immediately), because
// "no queue" is a meaningful production configuration.
type Options struct {
	// MaxInFlight bounds concurrently executing engine runs; defaults to
	// runtime.GOMAXPROCS(0).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot. Negative
	// values mean zero.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed; defaults to 2s.
	QueueWait time.Duration
	// ReqTimeout is the per-request deadline (0 = none). A request that
	// exceeds it gets a structured 504 and its engine run is canceled.
	ReqTimeout time.Duration
	// MaxBody caps request body bytes (413 beyond); defaults to 8 MiB.
	MaxBody int64
	// Quiet suppresses the per-request access log.
	Quiet bool
	// Logger receives the access log and internal error reports;
	// defaults to log.Default().
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 2 * time.Second
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 8 << 20
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// Server is the swiftd request handler. Two store layers cooperate on an
// /analyze request: whole-response blobs (Kind "result") and intern-table
// snapshots (via driver.Warm). Both are keyed by content digests, so
// serving a cached response for a byte-identical program is exact, not
// heuristic. The key memo finds the digests of source bytes built before,
// so a repeat /analyze reaches its cached response without building.
// /query answers from the in-process slice memo instead (query.go).
type Server struct {
	store *store.Store
	opts  Options

	// gate is the admission controller; flights coalesces concurrent
	// identical requests onto one engine run.
	gate    *gate
	flights *flightGroup

	// draining rejects new analysis work during graceful shutdown.
	draining atomic.Bool

	// sliceMemo is the in-process slice-table cache behind /query, shared
	// across requests and program versions (its keys carry the program
	// digests, so cross-version reuse is impossible by construction).
	sliceMemo *driver.SliceMemo

	// keys is the source-digest memo in front of the result cache
	// (keymemo.go): /analyze reads it, and every successful build of
	// either endpoint fills it. builds counts front-end runs, so /stats
	// shows which requests skipped them.
	keys   *keyMemo
	builds atomic.Int64

	requests      atomic.Int64
	resultHits    atomic.Int64
	resultMisses  atomic.Int64
	resultCorrupt atomic.Int64

	// /query telemetry (see queryStats).
	queryBatches  atomic.Int64
	queriesServed atomic.Int64
	queryMaxBatch atomic.Int64
	queryCanReach atomic.Int64
	queryStatesAt atomic.Int64
	queryIsError  atomic.Int64

	// Incremental telemetry: cumulative warm-path counters across every
	// engine run, surfaced in /stats.
	restoredRuns   atomic.Int64
	failedRestores atomic.Int64

	// Robustness telemetry (see robustnessStats).
	engineRuns      atomic.Int64
	canceledRuns    atomic.Int64
	timeouts        atomic.Int64
	probeFailures   atomic.Int64
	encodeFailures  atomic.Int64
	oversizedBodies atomic.Int64

	// Structure telemetry: cumulative sparse-scheduler counters across
	// every /analyze engine run (see structureStats).
	sparseRuns  atomic.Int64
	denseRuns   atomic.Int64
	sparsePops  atomic.Int64
	sparseSteps atomic.Int64
}

// analyzeRequest is the POST /analyze body, and the program and engine
// configuration every /query body embeds. Absent k/theta default to
// core.DefaultConfig's thresholds; engine defaults to "swift". Unknown
// fields are rejected (see decodeRequest), among them the retired
// scheduler ablation knobs.
type analyzeRequest struct {
	Source string `json:"source"`
	Engine string `json:"engine"`
	K      *int   `json:"k"`
	Theta  *int   `json:"theta"`
}

// common returns the fields both endpoints' bodies share; queryRequest
// promotes it from its embedded analyzeRequest.
func (r *analyzeRequest) common() *analyzeRequest { return r }

// analyzeResponse is the POST /analyze reply.
type analyzeResponse struct {
	Engine string `json:"engine"`
	// ErrorSites lists allocation sites whose tracked objects may reach a
	// property error state; empty means no misuse found.
	ErrorSites []string `json:"errorSites"`
	// Err is non-empty when the engine aborted (budget exhaustion); the
	// report is then unavailable rather than empty.
	Err       string `json:"err,omitempty"`
	Completed bool   `json:"completed"`
	// Cached reports the response was served from the result cache without
	// running any engine.
	Cached bool `json:"cached"`
	// TablesDigest fingerprints the deterministic result tables
	// (driver.ResultTablesDigest), so clients can compare runs.
	TablesDigest string `json:"tablesDigest,omitempty"`
	// RestoredTables reports that the run restored a stored tables
	// snapshot first; the answer is the same either way.
	RestoredTables bool  `json:"restoredTables"`
	ElapsedMS      int64 `json:"elapsedMs"`
}

// incrementalStats is the /stats incremental telemetry block.
type incrementalStats struct {
	// RestoredRuns counts runs that restored a tables snapshot;
	// FailedRestores counts corrupt snapshots dropped.
	RestoredRuns   int64 `json:"restoredRuns"`
	FailedRestores int64 `json:"failedRestores"`
}

// robustnessStats is the /stats robustness telemetry block.
type robustnessStats struct {
	// EngineRuns counts engine executions actually started (cache hits
	// and coalesced followers don't run engines); Coalesced counts
	// requests that shared another request's in-flight run.
	EngineRuns int64 `json:"engineRuns"`
	Coalesced  int64 `json:"coalesced"`
	// Shed counts requests rejected with 429 by the admission gate;
	// CanceledRuns counts engine runs aborted by cancellation (client
	// disconnect, request timeout or shutdown); Timeouts counts 504s.
	Shed         int64 `json:"shed"`
	CanceledRuns int64 `json:"canceledRuns"`
	Timeouts     int64 `json:"timeouts"`
	// InFlight/QueueDepth are instantaneous; InFlightPeak is the high
	// watermark of concurrently executing runs.
	InFlight     int64 `json:"inFlight"`
	InFlightPeak int64 `json:"inFlightPeak"`
	QueueDepth   int64 `json:"queueDepth"`
	Draining     bool  `json:"draining"`
	// ProbeFailures counts failed /healthz store probes; EncodeFailures
	// counts response bodies that failed to encode; OversizedBodies
	// counts 413s.
	ProbeFailures   int64 `json:"probeFailures"`
	EncodeFailures  int64 `json:"encodeFailures"`
	OversizedBodies int64 `json:"oversizedBodies"`
}

// structureStats is the /stats structure-driven scheduler telemetry
// block: cumulative counters over every /analyze engine run whose
// top-down solve used the sparse priority worklist. Restored-snapshot
// and hybrid runs count as dense (they do no sparse propagation).
type structureStats struct {
	SparseRuns int64 `json:"sparseRuns"`
	DenseRuns  int64 `json:"denseRuns"`
	// Pops counts worklist batch pops across sparse runs; Steps is the
	// propagation-step total of the same runs (the dense-equivalent
	// work), so Steps/Pops is the realized batching factor.
	Pops  int64 `json:"pops"`
	Steps int64 `json:"steps"`
}

// statsResponse is the GET /stats reply.
type statsResponse struct {
	Requests      int64 `json:"requests"`
	ResultHits    int64 `json:"resultHits"`
	ResultMisses  int64 `json:"resultMisses"`
	ResultCorrupt int64 `json:"resultCorrupt"`
	// Builds counts front-end builds (parse → points-to → lower → client
	// construction) across /analyze and /query, failed ones included;
	// KeyMemo snapshots the source-digest memo whose hits skip them.
	Builds      int64            `json:"builds"`
	KeyMemo     keyMemoStats     `json:"keyMemo"`
	Incremental incrementalStats `json:"incremental"`
	Query       queryStats       `json:"query"`
	Robustness  robustnessStats  `json:"robustness"`
	Structure   structureStats   `json:"structure"`
	Store       store.Stats      `json:"store"`
}

// New returns a Server over st. The store stays owned by the caller
// (swiftd's main closes it after the drain finishes).
func New(st *store.Store, opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		store:     st,
		opts:      opts,
		gate:      newGate(opts.MaxInFlight, opts.MaxQueue, opts.QueueWait),
		flights:   newFlightGroup(),
		sliceMemo: driver.NewSliceMemo(0),
		keys:      newKeyMemo(keyMemoEntries),
	}
}

// BeginDrain puts the server into graceful-shutdown mode: /readyz turns
// unready and new /analyze and /query requests are rejected with 503.
// In-flight requests keep running until they finish or CancelInflight.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// CancelInflight aborts every in-flight engine run by closing its
// flight's cancel channel. Used when the drain deadline passes with
// stragglers still computing: they return ErrCanceled (publishing
// nothing) and their requests complete with 503.
func (s *Server) CancelInflight() {
	s.flights.cancelAll()
}

// Handler returns the routed HTTP handler, wrapped in the access log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return s.accessLog(mux)
}

// statusWriter records the status code and byte count a handler wrote,
// for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

// accessLog wraps h with a per-request log line (suppressed by
// Options.Quiet). Status 0 means the handler wrote nothing — the client
// disconnected before a response existed.
func (s *Server) accessLog(h http.Handler) http.Handler {
	if s.opts.Quiet {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		status := "aborted"
		if sw.status != 0 {
			status = strconv.Itoa(sw.status)
		}
		s.logf("swiftd: %s %s %s %dB %s", r.Method, r.URL.Path, status, sw.bytes, time.Since(start).Round(time.Microsecond))
	})
}

func (s *Server) logf(format string, args ...any) {
	s.opts.Logger.Printf(format, args...)
}

// httpError writes a structured JSON error. Encode failures are counted
// and logged — a response we could not produce must not vanish silently.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}); err != nil {
		s.encodeFailures.Add(1)
		s.logf("swiftd: error response encode failed: %v", err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeFailures.Add(1)
		s.logf("swiftd: response encode failed: %v", err)
	}
}

// errorBody renders the structured error payload used inside flight
// results (which carry pre-marshaled bytes).
func errorBody(format string, args ...any) []byte {
	blob, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return append(blob, '\n')
}

var validEngines = map[string]bool{"td": true, "bu": true, "swift": true}

// decodeRequest is the request preamble both endpoints share: method,
// drain state and body cap; the JSON body into req, mapping an oversized
// body to a structured 413 and anything else malformed — unknown fields
// included, so a misspelled or retired option fails loudly instead of
// silently running the defaults — to 400; then the engine default and
// check and the engine configuration. It reports false once it has
// written an error reply.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req interface{ common() *analyzeRequest }) (core.Config, bool) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return core.Config{}, false
	}
	if s.draining.Load() {
		s.httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return core.Config{}, false
	}
	s.requests.Add(1)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.oversizedBodies.Add(1)
			s.httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			s.httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return core.Config{}, false
	}
	c := req.common()
	if c.Engine == "" {
		c.Engine = "swift"
	}
	if !validEngines[c.Engine] {
		s.httpError(w, http.StatusBadRequest, "unknown engine %q (want td, bu or swift)", c.Engine)
		return core.Config{}, false
	}
	cfg := core.DefaultConfig()
	if c.K != nil {
		cfg.K = *c.K
	}
	if c.Theta != nil {
		cfg.Theta = *c.Theta
	}
	return cfg, true
}

// serveFlight coalesces the computation identified by id under the
// per-request deadline, if one is configured. The first participant
// becomes the leader and runs compute with cfg.Cancel set to a channel
// that closes when every participant has gone away (or on
// CancelInflight); later participants wait for the leader's result. Each
// participant departs when its ctx ends, so a per-request deadline or
// client disconnect stops counting toward keeping the run alive.
func (s *Server) serveFlight(w http.ResponseWriter, r *http.Request, id string, cfg core.Config, compute func(ctx context.Context, cfg core.Config) flightResult) {
	ctx := r.Context()
	if s.opts.ReqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.ReqTimeout)
		defer cancel()
	}
	f, leader := s.flights.join(id)
	if !leader {
		s.flights.coalesced.Add(1)
	}
	stop := context.AfterFunc(ctx, func() { s.flights.depart(f) })
	defer func() {
		if stop() {
			// AfterFunc never ran: this participant departs normally.
			s.flights.depart(f)
		}
	}()

	if leader {
		cfg.Cancel = f.cancel
		res := compute(ctx, cfg)
		s.flights.finish(f, res)
		s.writeFlightResult(w, r, ctx, res)
		return
	}
	select {
	case <-f.done:
		s.writeFlightResult(w, r, ctx, f.result())
	case <-ctx.Done():
		s.writeFlightResult(w, r, ctx, flightResult{})
	}
}

// lead is the leader work both endpoints share once a request is valid:
// it takes an engine slot (mapping an admission failure to 429 or 503),
// counts the engine run, calls run, maps a canceled run to 503 and any
// other error to 500, and marshals run's reply. It returns the flight
// result and, on success, the reply's JSON for the caller to cache.
func (s *Server) lead(ctx context.Context, run func() (any, error)) (flightResult, []byte) {
	if err := s.gate.acquire(ctx); err != nil {
		return s.gateResult(err), nil
	}
	defer s.gate.release()
	s.engineRuns.Add(1)
	reply, err := run()
	if errors.Is(err, core.ErrCanceled) {
		s.canceledRuns.Add(1)
		return flightResult{status: http.StatusServiceUnavailable, body: errorBody("analysis canceled before completion")}, nil
	}
	if err != nil {
		return flightResult{status: http.StatusInternalServerError, body: errorBody("%v", err)}, nil
	}
	blob, err := json.Marshal(reply)
	if err != nil {
		s.encodeFailures.Add(1)
		s.logf("swiftd: response encode failed: %v", err)
		return flightResult{status: http.StatusInternalServerError, body: errorBody("response encode failed: %v", err)}, nil
	}
	return flightResult{status: http.StatusOK, body: append(blob, '\n')}, blob
}

// writeFlightResult delivers a flight's outcome to one participant. A
// participant whose own deadline fired while the client is still there
// gets a structured 504; one whose client is gone gets nothing.
func (s *Server) writeFlightResult(w http.ResponseWriter, r *http.Request, ctx context.Context, res flightResult) {
	if ctx.Err() != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && r.Context().Err() == nil {
			s.timeouts.Add(1)
			s.httpError(w, http.StatusGatewayTimeout, "request exceeded the %s server deadline", s.opts.ReqTimeout)
		}
		return
	}
	if res.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body); err != nil {
		s.logf("swiftd: response write failed: %v", err)
	}
}

// gateResult maps an admission failure to a flight result: saturation
// sheds with 429 + Retry-After sized to the queue wait, a context that
// ended while queued yields 503 (the participant's own 504/disconnect
// handling decides what, if anything, reaches the client).
func (s *Server) gateResult(err error) flightResult {
	if errors.Is(err, errSaturated) {
		retry := int(s.opts.QueueWait / time.Second)
		if retry < 1 {
			retry = 1
		}
		return flightResult{
			status:     http.StatusTooManyRequests,
			body:       errorBody("server saturated: %d runs in flight, queue full; retry later", s.opts.MaxInFlight),
			retryAfter: retry,
		}
	}
	return flightResult{
		status: http.StatusServiceUnavailable,
		body:   errorBody("request canceled while queued for admission"),
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	cfg, ok := s.decodeRequest(w, r, &req)
	if !ok {
		return
	}

	// The cache keys are content digests of the built pipeline. A source
	// the key memo has seen maps to its build's digests, so its result key
	// is known and a cached response is served without building. A memo
	// or store miss builds (parse → points-to → lower → client
	// construction). Either way the request counts one result hit or miss.
	// A blob that fails to decode is corrupt: it is deleted and counted
	// (resultCorrupt), so the request recomputes once instead of every
	// later one paying a failed unmarshal; without the delete, a rerun
	// ending in a wall-clock timeout (which never publishes) would leave
	// the garbage in place forever.
	var resp analyzeResponse
	cached := func(key store.Key) bool {
		blob, ok := s.store.Get(key)
		if !ok {
			return false
		}
		if err := json.Unmarshal(blob, &resp); err != nil {
			s.store.Delete(key)
			s.resultCorrupt.Add(1)
			return false
		}
		s.resultHits.Add(1)
		resp.Cached = true
		s.writeJSON(w, resp)
		return true
	}
	sum := sha256.Sum256([]byte(req.Source))
	d, known := s.keys.get(sum)
	if known && cached(driver.ResultKeyFor(d, req.Engine, cfg)) {
		return
	}
	b, err := s.build(req.Source, sum)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, "build failed: %v", err)
		return
	}
	key := driver.ResultKey(b, req.Engine, cfg)
	if !known && cached(key) {
		return
	}
	s.resultMisses.Add(1)

	s.serveFlight(w, r, key.ID(), cfg, func(ctx context.Context, cfg core.Config) flightResult {
		var res *driver.Result
		out, blob := s.lead(ctx, func() (any, error) {
			start := time.Now()
			var wstats *driver.WarmStats
			var err error
			res, wstats, err = driver.Warm{Store: s.store}.Run(b, req.Engine, cfg)
			if err != nil {
				return nil, fmt.Errorf("run failed: %w", err)
			}
			s.countRun(res, wstats)
			if errors.Is(res.Err, core.ErrCanceled) {
				return nil, res.Err
			}
			reply := analyzeResponse{
				Engine:         res.Engine,
				Completed:      res.Completed(),
				TablesDigest:   driver.ResultTablesDigest(b, res),
				RestoredTables: wstats.RestoredTables,
				ElapsedMS:      time.Since(start).Milliseconds(),
			}
			if res.Err != nil {
				reply.Err = res.Err.Error()
			} else if reply.ErrorSites, err = b.ErrorReport(res); err != nil {
				return nil, fmt.Errorf("report failed: %w", err)
			}
			return reply, nil
		})
		// Cache only deterministic outcomes: reruns of a wall-clock timeout
		// or a canceled run might succeed, so those must not be pinned.
		if blob != nil && driver.DeterministicOutcome(res.Err) {
			s.store.Put(key, blob)
		}
		return out
	})
}

// countRun folds one /analyze engine run into the incremental and
// structure telemetry.
func (s *Server) countRun(res *driver.Result, wstats *driver.WarmStats) {
	if wstats.RestoredTables {
		s.restoredRuns.Add(1)
	}
	if wstats.RestoreFailed {
		s.failedRestores.Add(1)
	}
	if res.TD != nil && res.TD.Sparse.Enabled {
		s.sparseRuns.Add(1)
		s.sparsePops.Add(int64(res.TD.Sparse.Pops))
		s.sparseSteps.Add(int64(res.TD.Steps))
	} else {
		s.denseRuns.Add(1)
	}
}

// build runs the front end on src and remembers the build's digests under
// the source's hash sum, so a repeat of src finds its key without
// building. A failed build is not remembered.
func (s *Server) build(src string, sum sourceSum) (*driver.Build, error) {
	s.builds.Add(1)
	b, err := driver.FromSource(src)
	if err != nil {
		return nil, err
	}
	s.keys.put(sum, b.Digests())
	return b, nil
}

// handleHealthz is the liveness probe. It exercises the store's disk
// tier (write, read back, remove a sentinel) so a dead or full disk
// turns the daemon unhealthy instead of silently degrading every
// request to a cache miss.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Probe(); err != nil {
		s.probeFailures.Add(1)
		s.httpError(w, http.StatusServiceUnavailable, "store probe failed: %v", err)
		return
	}
	w.Write([]byte("ok\n"))
}

// handleReadyz is the readiness probe: unready while draining (so load
// balancers stop sending work during shutdown) and while the admission
// gate is saturated (every slot busy and the queue full).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.gate.saturated() {
		s.httpError(w, http.StatusServiceUnavailable, "saturated")
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.writeJSON(w, statsResponse{
		Requests:      s.requests.Load(),
		ResultHits:    s.resultHits.Load(),
		ResultMisses:  s.resultMisses.Load(),
		ResultCorrupt: s.resultCorrupt.Load(),
		Builds:        s.builds.Load(),
		KeyMemo:       s.keys.stats(),
		Incremental: incrementalStats{
			RestoredRuns:   s.restoredRuns.Load(),
			FailedRestores: s.failedRestores.Load(),
		},
		Query: s.queryStatsSnapshot(),
		Robustness: robustnessStats{
			EngineRuns:      s.engineRuns.Load(),
			Coalesced:       s.flights.coalesced.Load(),
			Shed:            s.gate.shed.Load(),
			CanceledRuns:    s.canceledRuns.Load(),
			Timeouts:        s.timeouts.Load(),
			InFlight:        s.gate.inFlight.Load(),
			InFlightPeak:    s.gate.peak.Load(),
			QueueDepth:      s.gate.queued.Load(),
			Draining:        s.draining.Load(),
			ProbeFailures:   s.probeFailures.Load(),
			EncodeFailures:  s.encodeFailures.Load(),
			OversizedBodies: s.oversizedBodies.Load(),
		},
		Structure: structureStats{
			SparseRuns: s.sparseRuns.Load(),
			DenseRuns:  s.denseRuns.Load(),
			Pops:       s.sparsePops.Load(),
			Steps:      s.sparseSteps.Load(),
		},
		Store: s.store.Stats(),
	})
}
