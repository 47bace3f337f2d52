// Command rpcd serves Ranking Principal Curve models over HTTP. It keeps a
// versioned registry of fitted ranking rules in a directory and exposes the
// fit / score / rank lifecycle as a JSON API (see internal/server for the
// routes and README.md for curl examples).
//
// Usage:
//
//	rpcd -addr :8080 -model-dir ./models
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests up to -shutdown-timeout. Passing -pprof-addr (off by default)
// serves net/http/pprof on a separate listener for production profiling of
// the scoring path; bind it to localhost, it is unauthenticated.
//
// All operational output is structured logging (log/slog): -log-format
// picks text (default) or json, -slow-ms sets the slow-request trace
// threshold (0 disables), and -trace-sample logs roughly one in N requests
// at INFO. Every response carries an X-Request-Id header that the logs and
// error bodies echo, so a client-reported failure can be grepped directly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/registry"
	"rpcrank/internal/server"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rpcd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled, a termination
// signal arrives, or the listener fails. onReady, when non-nil, receives
// the bound API address — and the bound pprof address, "" when disabled —
// once the server is accepting connections (used by tests that listen on
// port 0).
func run(ctx context.Context, args []string, out io.Writer, onReady func(addr, pprofAddr string)) error {
	fs := flag.NewFlagSet("rpcd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	modelDir := fs.String("model-dir", "models", "directory holding the model registry")
	maxLoaded := fs.Int("max-loaded", registry.DefaultMaxLoaded, "models kept decoded in memory (LRU)")
	workers := fs.Int("workers", 0, "batch-scoring workers, also the cap on a fit's concurrent restarts (0 = GOMAXPROCS)")
	maxBodyMB := fs.Int64("max-body-mb", 32, "largest accepted request body, in MiB")
	maxBatchRows := fs.Int("max-batch-rows", 1_000_000, "largest accepted row count per request")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "HTTP read timeout")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "HTTP read-header timeout (bounds slowloris header dribble)")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "HTTP write timeout (covers fit time)")
	idleTimeout := fs.Duration("idle-timeout", time.Minute, "HTTP keep-alive idle timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "drain window on shutdown")
	maxDeadlineMs := fs.Int64("max-deadline-ms", 60_000, "cap on client-requested deadlines (X-Deadline-Ms header or ?deadline_ms=)")
	maxInflightMB := fs.Int64("max-inflight-mb", 0, "server-wide budget on in-flight request body bytes, in MiB (0 = 4x max-body-mb, negative = unlimited)")
	maxInflightRows := fs.Int64("max-inflight-rows", 0, "server-wide budget on rows concurrently being scored (0 = 4x max-batch-rows, negative = unlimited)")
	modelConcurrency := fs.Int("model-concurrency", 0, "concurrent scoring requests per model (0 = 2x workers)")
	modelQueue := fs.Int("model-queue", 0, "requests that may queue per model for a scoring slot (0 = 4x model-concurrency, negative = no queue)")
	peers := fs.String("peers", "", "comma-separated base URLs of the other replicas in the serving group (empty = single node)")
	advertise := fs.String("advertise", "", "this node's base URL as peers reach it (default: http://<bound addr>)")
	probeInterval := fs.Duration("probe-interval", time.Second, "peer health-probe period")
	antiEntropyInterval := fs.Duration("anti-entropy-interval", 5*time.Second, "peer digest-exchange period for replicated installs")
	pprofAddr := fs.String("pprof-addr", "", "listen address for net/http/pprof profiling (empty = disabled); bind it to localhost, the endpoint is unauthenticated")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	slowMs := fs.Int("slow-ms", 500, "log a structured stage trace for requests at or above this latency, in ms (0 disables)")
	traceSample := fs.Int("trace-sample", 0, "log roughly one in N requests at INFO (0 disables access sampling)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(out, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(out, nil))
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	slowThreshold := time.Duration(*slowMs) * time.Millisecond
	if *slowMs <= 0 {
		slowThreshold = -1 // Options treats 0 as "default"; negative disables
	}

	reg, err := registry.Open(*modelDir, *maxLoaded)
	if err != nil {
		return err
	}
	defer reg.Close()
	for _, s := range reg.Skipped() {
		logger.Warn("skipped unreadable model file", "path", s)
	}
	if rs := reg.Stats(); rs.TmpFilesRemoved > 0 || rs.Quarantined > 0 || rs.LegacyRecords > 0 {
		logger.Info("registry integrity scan",
			"tmp_files_removed", rs.TmpFilesRemoved,
			"quarantined", rs.Quarantined,
			"quarantined_ids", rs.QuarantinedIDs,
			"legacy_records", rs.LegacyRecords)
	}
	inflightBytes := *maxInflightMB
	if inflightBytes > 0 {
		inflightBytes <<= 20
	}

	// The listener binds before the serving group forms so -advertise can
	// default to the bound address (useful with -addr :0 in tests; real
	// multi-node deployments pass an address peers can actually dial).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	var cl *cluster.Cluster
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
			logger.Warn("no -advertise; defaulting to the bound address", "self", self)
		}
		cl, err = cluster.New(cluster.Options{
			Self:                self,
			Peers:               strings.Split(*peers, ","),
			Registry:            reg,
			ProbeInterval:       *probeInterval,
			AntiEntropyInterval: *antiEntropyInterval,
			Logger:              logger,
		})
		if err != nil {
			ln.Close()
			return err
		}
		defer cl.Close()
		logger.Info("serving group joined", "self", cl.Self(), "peers", len(strings.Split(*peers, ",")))
	}

	api := server.New(reg, server.Options{
		Workers:          *workers,
		MaxBodyBytes:     *maxBodyMB << 20,
		MaxBatchRows:     *maxBatchRows,
		SlowThreshold:    slowThreshold,
		TraceSample:      *traceSample,
		Logger:           logger,
		MaxDeadline:      time.Duration(*maxDeadlineMs) * time.Millisecond,
		MaxInFlightBytes: inflightBytes,
		MaxInFlightRows:  *maxInflightRows,
		ModelConcurrency: *modelConcurrency,
		ModelQueue:       *modelQueue,
		Cluster:          cl,
	})
	defer api.Close()

	httpSrv := &http.Server{
		Handler:           api,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// The profiling endpoint lives on its own listener (off by default) so
	// production captures of the scoring hot path never share a port — or
	// a timeout configuration — with the public API.
	boundPprof := ""
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Handler: pmux}
		defer pprofSrv.Close()
		go pprofSrv.Serve(pln)
		boundPprof = pln.Addr().String()
		logger.Info("pprof listening", "addr", boundPprof)
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Info("serving",
		"models", reg.Len(),
		"model_dir", *modelDir,
		"addr", ln.Addr().String(),
		"slow_ms", *slowMs,
		"trace_sample", *traceSample,
	)
	if onReady != nil {
		onReady(ln.Addr().String(), boundPprof)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: flip the application-level drain flag first so new
	// requests are answered 503 + Retry-After + Connection: close (the same
	// behaviour /controlz/drain gives an orchestrator) and, in a serving
	// group, peers are notified synchronously so this node leaves their
	// routing rotations before anything else happens. Then let net/http
	// stop accepting and wait out the in-flight requests, then checkpoint
	// the registry's version index so a crash between drain and exit cannot
	// lose the high-water marks.
	logger.Info("shutting down", "drain_timeout", shutdownTimeout.String())
	api.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained", "in_flight", api.InFlight())
	if err := reg.Sync(); err != nil {
		logger.Error("registry sync on shutdown", "err", err)
	} else {
		logger.Info("registry synced")
	}
	logger.Info("stopped")
	return nil
}
