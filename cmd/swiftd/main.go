// Command swiftd is the analysis server: a long-lived JSON-over-HTTP
// daemon that runs the type-state engines against a persistent artifact
// store, so repeated analyses of the same program are answered from
// cache.
//
//	swiftd -addr 127.0.0.1:7411 -store /var/cache/swift
//
// Endpoints:
//
//	POST /analyze  {"source": "...", "engine": "swift", "k": 5, "theta": 1}
//	POST /query    {"source": "...", "query": {"kind": "isError", "site": "h1"}}
//	               (or "queries": [...] for a batch) — demand-driven point
//	               queries answered from per-site slice runs memoized in a
//	               process-wide slice cache, instead of exhaustive runs
//	GET  /stats    request, cache, query and robustness telemetry counters
//	GET  /healthz  liveness probe (writes/reads a store sentinel)
//	GET  /readyz   readiness probe (unready while draining or saturated)
//
// With -store "" the store is memory-only and dies with the process.
//
// The daemon is hardened for production use: concurrent engine runs are
// bounded (-maxinflight) with a bounded wait queue (-maxqueue,
// -queuewait) that sheds excess load with 429 + Retry-After; identical
// concurrent requests coalesce onto one engine run; a per-request
// deadline (-reqtimeout) turns runaway analyses into structured 504s;
// and SIGINT/SIGTERM trigger a graceful drain (-drain), after which
// stragglers are cooperatively canceled and the store is closed before
// exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swift/internal/store"
	"swift/internal/swiftd"
)

func main() {
	os.Exit(daemonMain(os.Args[1:]))
}

func daemonMain(args []string) int {
	return daemonRun(args, nil)
}

// daemonRun is daemonMain with a test hook: ready (if non-nil) receives
// the bound listen address once the server is accepting connections.
func daemonRun(args []string, ready func(addr string)) int {
	fs := flag.NewFlagSet("swiftd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "listen address")
	dir := fs.String("store", "", "on-disk store directory (empty: memory-only)")
	mem := fs.Int64("mem", 64<<20, "in-memory cache budget in bytes (<=0 disables the memory tier)")
	maxInFlight := fs.Int("maxinflight", 0, "max concurrent engine runs (<=0: GOMAXPROCS)")
	maxQueue := fs.Int("maxqueue", 16, "max requests queued for an engine slot (0: shed immediately when full)")
	queueWait := fs.Duration("queuewait", 2*time.Second, "max time a request waits in the admission queue")
	reqTimeout := fs.Duration("reqtimeout", 0, "per-request deadline (0: none); exceeding it returns 504 and cancels the run")
	maxBody := fs.Int64("maxbody", 8<<20, "max request body bytes (413 beyond)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline before in-flight runs are canceled")
	quiet := fs.Bool("quiet", false, "suppress the per-request access log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(fs.Output(), "swiftd: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *maxQueue < 0 || *queueWait < 0 || *reqTimeout < 0 || *maxBody <= 0 || *drain < 0 {
		fmt.Fprintln(fs.Output(), "swiftd: -maxqueue, -queuewait, -reqtimeout and -drain must be non-negative and -maxbody positive")
		fs.Usage()
		return 2
	}
	st, err := store.Open(*dir, *mem)
	if err != nil {
		log.Printf("swiftd: opening store: %v", err)
		return 1
	}
	srv := swiftd.New(st, swiftd.Options{
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		QueueWait:   *queueWait,
		ReqTimeout:  *reqTimeout,
		MaxBody:     *maxBody,
		Quiet:       *quiet,
	})

	// An explicit listener (instead of ListenAndServe) so the bound
	// address — which may use port 0 — is known before the first request.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("swiftd: %v", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Slow-client bounds: a peer that trickles headers or a body
		// cannot pin a connection forever, and idle keep-alives expire.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig, ok := <-sigs
		if !ok {
			return
		}
		log.Printf("swiftd: %v: draining for up to %s", sig, *drain)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// Drain deadline passed with requests still in flight: cancel
			// their engine runs cooperatively, then give the (now fast)
			// responses a moment to flush before closing connections.
			log.Printf("swiftd: drain deadline passed, canceling in-flight runs")
			srv.CancelInflight()
			ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel2()
			if err := httpSrv.Shutdown(ctx2); err != nil {
				log.Printf("swiftd: forced shutdown: %v", err)
			}
		}
	}()

	log.Printf("swiftd: listening on %s (store: %s)", ln.Addr(), storeDesc(*dir))
	if ready != nil {
		ready(ln.Addr().String())
	}
	err = httpSrv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("swiftd: %v", err)
		signal.Stop(sigs)
		close(sigs)
		<-shutdownDone
		return 1
	}
	// Serve returned ErrServerClosed: Shutdown is in progress. Wait for
	// the drain to finish before closing the store, so no straggler
	// request writes to a closed store.
	<-shutdownDone
	if err := st.Close(); err != nil {
		log.Printf("swiftd: closing store: %v", err)
		return 1
	}
	log.Printf("swiftd: shutdown complete")
	return 0
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
