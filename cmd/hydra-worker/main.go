// Command hydra-worker is the worker side of the distributed analysis
// pipeline (§4): it builds the model locally (workers never receive
// matrices over the network — only s-values and results travel), then
// connects to a master and evaluates assigned s-point batches until the
// master shuts down.
//
// The worker must be started with the same model the master serves; the
// handshake advertises the model's fingerprint and state count so the
// master routes only matching jobs here. Master and worker must speak
// the same wire protocol version; a mismatch is rejected at the
// handshake with a message naming both versions.
//
// Usage:
//
//	hydra-worker -spec model.dnamaca -master host:9441 [-name node7]
//	hydra-worker -spec model.dnamaca -master host:9441 -reconnect
//
// Besides whole s-point batches, a worker can hold one row block of a
// sharded solve, exchanging boundary sub-vector entries with its
// sibling workers through the master each sweep.
//
// Against a one-shot hydra-master, run without -reconnect: the worker
// exits when the job's fleet closes. Against a resident hydra-serve
// fleet, -reconnect keeps the worker in the fleet across service
// restarts and network blips, redialing with exponential backoff. A
// rejected handshake (protocol version mismatch, unwanted model) is
// permanent and exits the worker even under -reconnect.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"hydra"
	"hydra/internal/obs"
	"hydra/internal/pipeline"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "extended-DNAmaca model specification file")
		votingSys  = flag.Int("voting", -1, "built-in voting system 0-5")
		master     = flag.String("master", "", "master address host:port")
		name       = flag.String("name", hostname(), "worker name shown in diagnostics")
		reconnect  = flag.Bool("reconnect", false, "redial the master with exponential backoff when the connection drops")
		backoffMax = flag.Duration("backoff-max", 30*time.Second, "upper bound on the reconnect backoff")
		debugAddr  = flag.String("pprof", "", "serve /metrics and /debug/pprof/ on this address (e.g. :9442); empty disables")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		warm       = flag.Bool("warm", true, "warm-start iterative solves from the previous s-point of a contour batch: Gauss–Seidel refinement of its solution, answers equal to cold ones within solver tolerance")
	)
	flag.Parse()
	if *master == "" {
		fatal(fmt.Errorf("-master address is required"))
	}
	var logHandler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(logHandler).With("component", "hydra-worker", "worker", *name)
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", obs.Handler(obs.Default))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}
	model, err := loadModel(*specPath, *votingSys)
	if err != nil {
		fatal(err)
	}
	logger.Info("starting",
		"model", model.Fingerprint(), "states", model.NumStates(),
		"master", *master, "wire_version", pipeline.ProtocolVersion, "reconnect", *reconnect)

	wopts := hydra.WorkerOptions{Name: *name, Logger: logger, Tracer: obs.DefaultTracer}
	opts := &hydra.Options{}
	opts.Solver.WarmStart = *warm
	backoff := time.Second
	for {
		start := time.Now()
		err := model.RunWorkerWith(*master, wopts, opts)
		// A session that lasted a while was healthy; restart the backoff
		// so a mid-job blip redials promptly.
		if time.Since(start) > time.Minute {
			backoff = time.Second
		}
		switch {
		case err == nil && !*reconnect:
			// The master dismissed the fleet cleanly: the one-shot job
			// is done.
			logger.Info("master closed the fleet, exiting")
			return
		case err == nil:
			// A clean dismissal under -reconnect means the service shut
			// down (a restart, usually): stay resident and rejoin when it
			// comes back.
			logger.Info("master closed the fleet, staying resident", "backoff", backoff)
		case errors.Is(err, hydra.ErrHandshakeRejected):
			// A rejection (version mismatch, unwanted model) is permanent
			// for this pair of binaries; redialing can never succeed.
			fatal(err)
		case !*reconnect:
			fatal(err)
		default:
			logger.Warn("connection lost", "error", err, "backoff", backoff)
		}
		pipeline.WorkerReconnects.Inc()
		time.Sleep(backoff)
		backoff *= 2
		if backoff > *backoffMax {
			backoff = *backoffMax
		}
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}

func loadModel(specPath string, votingSys int) (*hydra.Model, error) {
	switch {
	case specPath != "" && votingSys >= 0:
		return nil, fmt.Errorf("use either -spec or -voting, not both")
	case specPath != "":
		return hydra.LoadSpecFile(specPath)
	case votingSys >= 0:
		return hydra.VotingSystem(votingSys)
	default:
		return nil, fmt.Errorf("a model is required: -spec file or -voting N")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydra-worker:", err)
	os.Exit(1)
}
