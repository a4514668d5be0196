package perf

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"swift/internal/benchprog"
	"swift/internal/driver"
	"swift/internal/hir"
	"swift/internal/query"
)

// program is one source text a serve workload sends.
type program struct {
	name   string
	src    string
	golden []string // cached workload only
	// build is a pipeline of the program, kept for query generation.
	build *driver.Build
	// analyze and query are the edits workload's two requests for it.
	analyze, query request
}

// serveEnv is one set-up serve workload: a running server whose caches
// hold what the workload expects, and the inputs the clients send.
type serveEnv struct {
	srv   *server
	progs []*program
	// prewarm holds the set-up requests in the order the replay resends
	// them.
	prewarm []request
	// digests maps "program/engine" to the tables digest set-up saw.
	digests map[string]string
}

func (e *serveEnv) close() {
	if e != nil && e.srv != nil {
		e.srv.stop()
		e.srv = nil
	}
}

// serveEngines are the engines serve-cached's /analyze requests pick from;
// its /query requests all use the first.
var serveEngines = []string{"swift", "td"}

func setupServe(w Workload, o Options) (*serveEnv, error) {
	var progs []*program
	var err error
	if w.kind == cachedKind {
		progs, err = cachedPrograms(w)
	} else {
		progs, err = editVersions(w, o.Seed)
	}
	if err != nil {
		return nil, err
	}
	srv, err := startServer(o.Dir, w.Clients)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{srv: srv, progs: progs, digests: map[string]string{}}
	if err := env.warm(w); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func cachedPrograms(w Workload) ([]*program, error) {
	var out []*program
	for _, name := range w.Programs {
		prog, golden, err := generate(name)
		if err != nil {
			return nil, err
		}
		src := hir.Print(prog)
		b, err := driver.FromSource(src)
		if err != nil {
			return nil, err
		}
		out = append(out, &program{name: name, src: src, golden: golden, build: b})
	}
	return out, nil
}

// editVersions returns the base program followed by w.Versions distinct
// edited versions: the single edits of a seeded benchprog.EditStream, then
// seeded pairs of them that ApplyEdit accepts. Each version carries its
// two requests: /analyze under swift and a seeded /query batch.
func editVersions(w Workload, seed int64) ([]*program, error) {
	name := w.Programs[0]
	p, ok := benchprog.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("perf: unknown benchprog profile %q", name)
	}
	base, golden, err := generate(name)
	if err != nil {
		return nil, err
	}
	edits, err := benchprog.EditStream(p, seed, w.Singles)
	if err != nil {
		return nil, err
	}
	out := []*program{{name: name, src: hir.Print(base), golden: golden}}
	seen := map[string]bool{out[0].src: true}
	add := func(es ...benchprog.Edit) error {
		prog, err := benchprog.GenerateEdited(p, es...)
		if err != nil {
			return nil // a pair whose second edit targets what the first removed
		}
		src := hir.Print(prog)
		if seen[src] {
			return nil
		}
		seen[src] = true
		b, err := driver.FromSource(src)
		if err != nil {
			return err
		}
		qs, err := query.Generate(b, nil, seed*1_000_003+int64(len(out)), w.QueryBatch)
		if err != nil {
			return err
		}
		v := &program{name: fmt.Sprintf("%s#%d", name, len(out)), src: src}
		if v.analyze, err = newRequest("/analyze", src, "swift", nil); err != nil {
			return err
		}
		if v.query, err = newRequest("/query", src, "swift", qs); err != nil {
			return err
		}
		out = append(out, v)
		return nil
	}
	for _, e := range edits {
		if len(out) > w.Versions {
			break
		}
		if err := add(e); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; len(out) <= w.Versions && tries < 50*w.Versions; tries++ {
		if err := add(edits[rng.Intn(len(edits))], edits[rng.Intn(len(edits))]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// allSites is an isError batch over every tracked site: answering it runs,
// and memoizes, every slice of the program.
func allSites(b *driver.Build) []query.Query {
	var qs []query.Query
	for _, s := range b.TS.TrackedSites() {
		qs = append(qs, query.Query{Kind: query.KindIsError, Site: s})
	}
	return qs
}

// warm fills the server's caches. serve-cached analyzes every program
// under every engine and runs every slice under the query engine;
// serve-edits analyzes and slices the unedited base program, so the
// summary store is warm. Every reply is checked against the golden report.
func (e *serveEnv) warm(w Workload) error {
	type job struct {
		req  request
		prog *program
	}
	var jobs []job
	progs := e.progs
	if w.kind == editsKind {
		progs = progs[:1]
	}
	for _, p := range progs {
		engines := serveEngines
		if w.kind == editsKind {
			engines = engines[:1]
		}
		for _, eng := range engines {
			r, err := newRequest("/analyze", p.src, eng, nil)
			if err != nil {
				return err
			}
			jobs = append(jobs, job{r, p})
		}
	}
	for _, p := range progs {
		b, err := driver.FromSource(p.src)
		if err != nil {
			return err
		}
		r, err := newRequest("/query", p.src, serveEngines[0], allSites(b))
		if err != nil {
			return err
		}
		jobs = append(jobs, job{r, p})
	}
	// Slowest first, spread over the clients: hedc under td dominates.
	slices.Reverse(jobs[:len(jobs)-len(progs)])
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) || firstErr != nil {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				digest, err := e.warmOne(j.req, j.prog)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if digest != "" {
					e.digests[j.prog.name+"/"+j.req.engine] = digest
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		e.prewarm = append(e.prewarm, j.req)
	}
	return firstErr
}

// warmOne sends one set-up request, checks its reply, and returns the
// tables digest of an /analyze reply.
func (e *serveEnv) warmOne(r request, p *program) (string, error) {
	status, reply, _, err := e.srv.post(r.path, r.body)
	if err != nil || status != 200 {
		return "", fmt.Errorf("perf: warming %s %s: status %d: %v %s", r.path, p.name, status, err, reply)
	}
	if r.path == "/query" {
		var qr queryReply
		if err := json.Unmarshal(reply, &qr); err != nil {
			return "", fmt.Errorf("perf: warming %s: %w", p.name, err)
		}
		if !errorSiteAnswersAgree(qr.Answers, len(r.queries), p.golden) {
			return "", fmt.Errorf("perf: warming %s: /query answers disagree with the golden report", p.name)
		}
		return "", nil
	}
	var ar analyzeReply
	if err := json.Unmarshal(reply, &ar); err != nil {
		return "", fmt.Errorf("perf: warming %s: %w", p.name, err)
	}
	if !ar.Completed || !slices.Equal(ar.ErrorSites, p.golden) {
		return "", fmt.Errorf("perf: warming %s under %s: report %v, golden %v (%s)", p.name, r.engine, ar.ErrorSites, p.golden, ar.Err)
	}
	return ar.TablesDigest, nil
}

// cachedStream draws serve-cached's request mix from one seeded stream:
// 70% /analyze of a random program under a random engine, 30% /query with
// a fresh 8-query batch over a random program.
type cachedStream struct {
	env *serveEnv
	w   Workload
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *cachedStream) next() (request, *program, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.env.progs[s.rng.Intn(len(s.env.progs))]
	if s.rng.Float64() < 0.7 {
		r, err := newRequest("/analyze", p.src, serveEngines[s.rng.Intn(len(serveEngines))], nil)
		return r, p, err
	}
	qs, err := query.Generate(p.build, nil, s.rng.Int63(), s.w.QueryBatch)
	if err != nil {
		return request{}, nil, err
	}
	r, err := newRequest("/query", p.src, serveEngines[0], qs)
	return r, p, err
}

// step sends one request and checks its reply against the golden report
// and set-up's tables digest.
func (s *cachedStream) step(ph *phase) bool {
	r, p, err := s.next()
	if err != nil {
		ph.rec.add("error", 0, false)
		return true
	}
	reply := ph.do(r)
	if reply == nil {
		return true
	}
	if r.path == "/analyze" {
		var ar analyzeReply
		err := json.Unmarshal(reply, &ar)
		ph.rec.check(err == nil && ar.Completed && slices.Equal(ar.ErrorSites, p.golden) &&
			ar.TablesDigest == s.env.digests[p.name+"/"+r.engine])
		return true
	}
	var qr queryReply
	err = json.Unmarshal(reply, &qr)
	ph.rec.check(err == nil && errorSiteAnswersAgree(qr.Answers, len(r.queries), p.golden))
	ph.countQuery(&qr)
	return true
}

// editsStream hands each client the next unseen version: one /analyze,
// then one /query whose isError answers must agree with that report.
type editsStream struct {
	env  *serveEnv
	mu   sync.Mutex
	next int
	// reports holds the /analyze report of every version sent.
	reports map[*program][]string
}

func (s *editsStream) step(ph *phase) bool {
	s.mu.Lock()
	if s.next == len(s.env.progs) {
		s.mu.Unlock()
		return false
	}
	v := s.env.progs[s.next]
	s.next++
	s.mu.Unlock()
	reply := ph.do(v.analyze)
	if reply == nil {
		return true
	}
	var ar analyzeReply
	if err := json.Unmarshal(reply, &ar); err != nil || !ar.Completed {
		ph.rec.check(false)
		return true
	}
	s.mu.Lock()
	s.reports[v] = ar.ErrorSites
	s.mu.Unlock()
	if reply = ph.do(v.query); reply == nil {
		return true
	}
	var qr queryReply
	err := json.Unmarshal(reply, &qr)
	ph.rec.check(err == nil && errorSiteAnswersAgree(qr.Answers, len(v.query.queries), ar.ErrorSites))
	ph.countQuery(&qr)
	return true
}

// crossCheck re-analyzes up to n versions the server reported on with a
// cold td run in this process: by Theorem 3.1 the swift reports the server
// returned must equal them.
func (s *editsStream) crossCheck(seed int64, n int, check func(bool)) error {
	var sent []*program
	for _, v := range s.env.progs {
		if _, ok := s.reports[v]; ok {
			sent = append(sent, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(sent), func(i, j int) { sent[i], sent[j] = sent[j], sent[i] })
	for _, v := range sent[:min(n, len(sent))] {
		b, err := driver.FromSource(v.src)
		if err != nil {
			return err
		}
		_, _, sites, err := coldRunBuild(b, "td", batchConfig())
		if err != nil {
			return fmt.Errorf("perf: td cross-check of %s: %w", v.name, err)
		}
		check(slices.Equal(sites, s.reports[v]))
	}
	return nil
}

func runServe(w Workload, o Options) (*Report, []Span, error) {
	rep := &Report{Workload: w.Name}
	env, setups, err := measureSetup(func() (*serveEnv, error) { return setupServe(w, o) }, (*serveEnv).close)
	defer env.close()
	if err != nil {
		return nil, nil, err
	}
	logf(o, "%s: set up in %.2fs", w.Name, Median(setups))
	var step func(*phase) bool
	var edits *editsStream
	if w.kind == cachedKind {
		cs := &cachedStream{env: env, w: w, rng: rand.New(rand.NewSource(o.Seed))}
		step = cs.step
	} else {
		edits = &editsStream{env: env, next: 1, reports: map[*program][]string{}}
		step = edits.step
	}
	run := func(dur time.Duration, tr *Tracer) (*phase, time.Duration, time.Duration) {
		ph := &phase{srv: env.srv, rec: newRecorder(), tr: tr}
		c0 := cpuTime()
		wall := closedLoop(w.Clients, dur, func() bool { return step(ph) })
		return ph, wall, cpuTime() - c0
	}
	var spans []Span
	if !o.Trace {
		ph, wall, cpu := run(o.Duration, nil)
		ph.rec.mergeInto(rep)
		if err := endToEnd(rep, setups, ph.rec, wall, cpu); err != nil {
			return nil, nil, err
		}
		classRows(rep, ph.rec)
	} else {
		spans, err = traceServe(w, o, env, rep, run)
		if err != nil {
			return nil, nil, err
		}
	}
	if edits != nil {
		if err := edits.crossCheck(o.Seed, 3, rep.check); err != nil {
			return nil, nil, err
		}
	}
	correctness(rep)
	return rep, spans, nil
}

// classRows prints each request kind's median and tail latency.
func classRows(rep *Report, ph *recorder) {
	for _, c := range ph.classes() {
		xs := ph.samples[c]
		rep.add("", c+"_p50_ms", Median(xs), "ms", len(xs))
		if p, ok := TailPercentile(len(xs)); ok {
			rep.add("", fmt.Sprintf("%s_p%s_ms", c, fmtFloat(p)), Percentile(xs, p), "ms", len(xs))
		}
	}
}
