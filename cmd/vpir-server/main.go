// Command vpir-server exposes the simulator as an HTTP JSON service: a
// bounded worker pool with per-worker machine reuse behind POST /v1/run, a
// size-bounded result cache that also coalesces duplicate in-flight
// requests (internal/cell's Cache), and NDJSON-streamed parameter sweeps
// batched through the harness sweep engine behind POST /v1/sweep. See
// docs/server.md for the API and a curl quickstart.
//
// Usage:
//
//	vpir-server                          # serve on :8080
//	vpir-server -addr :9090 -workers 8   # explicit listen address and pool size
//	vpir-server -cache 4096              # bigger result cache
//	vpir-server -maxinsts 1000000        # clamp per-run instruction counts
//	vpir-server -pprof                   # expose /debug/pprof/ for profiling
//
// The binary also embeds the analysis dashboard: open /v1/ui/ in a
// browser for the pipeline visualizer backed by POST /v1/trace. See
// docs/observability.md.
//
// On SIGINT/SIGTERM the server drains: new run/sweep requests are rejected
// with 503 (and /healthz turns 503 "draining" so load balancers stop
// routing), in-flight requests finish within -drain-timeout, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/vpir-sim/vpir/internal/resultstore"
	"github.com/vpir-sim/vpir/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "run worker pool size (0 = GOMAXPROCS)")
	cache := flag.Int("cache", server.DefaultCacheEntries, "result cache entries (negative disables retention; in-flight duplicates still coalesce)")
	timeout := flag.Duration("timeout", server.DefaultTimeout, "per-simulation wall-clock bound (negative disables)")
	maxInsts := flag.Uint64("maxinsts", 0, "clamp per-run dynamic instruction counts (0 = no cap)")
	maxScale := flag.Int("maxscale", server.DefaultMaxScale, "largest workload scale a request may ask for")
	sweepWorkers := flag.Int("sweep-parallel", 0, "harness workers per sweep request (0 = GOMAXPROCS)")
	sweepCells := flag.Int("sweep-cells", server.DefaultMaxSweepCells, "largest benches x configs grid per sweep request")
	heartbeat := flag.Duration("heartbeat", server.DefaultHeartbeat, "sweep-stream heartbeat interval (negative disables)")
	storeDir := flag.String("store", "", "directory for the durable content-addressed result store (empty disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/ profiling endpoints")
	accessLog := flag.Bool("access-log", true, "write JSON access-log lines to stderr")
	flag.Parse()

	var store *resultstore.Store
	if *storeDir != "" {
		var err error
		store, err = resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpir-server:", err)
			return 1
		}
	}
	s := server.New(server.Config{
		Workers:          *workers,
		CacheEntries:     *cache,
		Timeout:          *timeout,
		MaxInsts:         *maxInsts,
		MaxScale:         *maxScale,
		SweepParallelism: *sweepWorkers,
		MaxSweepCells:    *sweepCells,
		Heartbeat:        *heartbeat,
		Store:            store,
	})
	var logw io.Writer
	if *accessLog {
		logw = os.Stderr
	}
	handler := server.WithRequestID(s.Handler(), logw)
	if *pprofOn {
		handler = server.WithPprof(handler)
	}
	httpSrv := &http.Server{Handler: handler}

	// Listen before serving so the bound address (meaningful with -addr
	// :0, as the ui-smoke harness uses) can be announced.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpir-server:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "vpir-server: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "vpir-server:", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "vpir-server: %v, draining (up to %v)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain first so /healthz flips to 503 and new work is rejected while
	// in-flight simulations finish; then close the listener.
	drainErr := s.Drain(ctx)
	shutdownErr := httpSrv.Shutdown(ctx)
	if drainErr != nil || (shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed)) {
		fmt.Fprintln(os.Stderr, "vpir-server: shutdown:", errors.Join(drainErr, shutdownErr))
		return 1
	}
	fmt.Fprintln(os.Stderr, "vpir-server: drained cleanly")
	return 0
}
