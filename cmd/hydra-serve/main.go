// Command hydra-serve runs the resident analysis service: a model
// registry, a job scheduler over the in-process pipeline, and a
// fingerprint-keyed result cache behind an HTTP/JSON API.
//
// Where the batch tools (hydra, hydra-master) explore a state space,
// run one job and exit, hydra-serve keeps the expensive artifacts —
// explored state spaces and evaluated transform points — alive between
// requests, so repeated and concurrent queries on the same model cost
// one computation.
//
// Usage:
//
//	hydra-serve -addr :8700 -checkpoint serve.ckpt
//	hydra-serve -addr :8700 -backend fleet -listen :9441
//
// The second form executes every computation on a resident fleet of
// hydra-worker processes connected to -listen
// instead of the in-process pool: start workers with
//
//	hydra-worker -spec model.dnamaca -master host:9441 -reconnect
//
// holding the same models clients upload, and the service scales with
// the worker count while keeping its registry, coalescing and result
// cache. Adding -shard N splits each solve's kernel into up to N row
// blocks held by different workers (boundary sub-vector exchange per
// sweep) instead of farming whole s-points — the right mode when one
// model is too large or slow for a single worker's sweep.
//
// API sketch (see README.md for request bodies):
//
//	POST   /v1/models                      upload a DNAmaca spec or pick a voting config
//	GET    /v1/models                      list resident models
//	GET    /v1/models/{id}                 model detail
//	DELETE /v1/models/{id}                 evict a model
//	POST   /v1/models/{id}/passage         passage density/CDF curve
//	POST   /v1/models/{id}/transient       transient state distribution curve
//	POST   /v1/models/{id}/quantile        passage-time quantile
//	GET    /v1/jobs                        recent job records
//	GET    /v1/jobs/{id}                   one job record (status, stats, result)
//	GET    /v1/stats                       registry / cache / scheduler counters
//	GET    /v1/traces/{id}                 recorded spans for one request ID
//	GET    /metrics                        Prometheus text exposition
//	GET    /healthz                        liveness
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ on the
// same listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hydra/internal/pipeline"
	"hydra/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8700", "HTTP listen address")
		maxModels     = flag.Int("max-models", 16, "resident model bound (LRU beyond it)")
		cacheValues   = flag.Int("cache-values", 1<<22, "memory result-cache bound in resident complex values (one vector s-point on an N-state model costs N)")
		checkpoint    = flag.String("checkpoint", "", "disk checkpoint file backing the result cache")
		workers       = flag.Int("workers", runtime.NumCPU(), "worker pool size per computation (inproc backend)")
		maxConcurrent = flag.Int("max-concurrent", 2, "computations allowed to run at once")
		backendName   = flag.String("backend", "inproc", "compute backend: inproc | fleet")
		listen        = flag.String("listen", ":9441", "TCP address to accept fleet workers on (fleet backend)")
		batch         = flag.Int("batch", 8, "s-points per fleet assignment message")
		fleetWait     = flag.Duration("fleet-wait", 2*time.Minute, "fail a job after this long with no capable fleet worker (0 waits forever)")
		shardHint     = flag.Int("shard", 0, "split each fleet solve into up to N row-block shards across workers (0 or 1 = whole-point batches)")
		pprofOn       = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the HTTP listener")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	var logHandler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(logHandler).With("component", "hydra-serve")

	var backend *pipeline.Fleet
	switch *backendName {
	case "inproc":
	case "fleet":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		backend = pipeline.NewFleet(ln, pipeline.FleetOptions{
			BatchSize:   *batch,
			WaitTimeout: *fleetWait,
			Logf:        log.New(os.Stderr, "hydra-serve: ", 0).Printf,
		})
		defer backend.Close()
		logger.Info("fleet backend accepting workers",
			"listen", backend.Addr().String(), "wire_version", pipeline.ProtocolVersion,
			"batch", *batch, "shard", *shardHint)
	default:
		fatal(fmt.Errorf("unknown backend %q (inproc or fleet)", *backendName))
	}
	if *shardHint > 1 && backend == nil {
		logger.Warn("-shard only applies to the fleet backend; in-process solves stay unsharded", "shard", *shardHint)
	}

	cfg := server.Config{
		MaxModels:      *maxModels,
		CacheValues:    *cacheValues,
		CheckpointPath: *checkpoint,
		Workers:        *workers,
		MaxConcurrent:  *maxConcurrent,
		Shard:          *shardHint,
		Logger:         logger,
	}
	if backend != nil {
		cfg.Backend = backend
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "backend", *backendName, "workers", *workers,
		"max_concurrent", *maxConcurrent, "pprof", *pprofOn)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fatal(err)
		}
		logger.Info("shutdown complete")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydra-serve:", err)
	os.Exit(1)
}
