// Package server exposes fitted Ranking Principal Curves over an HTTP/JSON
// API backed by a registry.Registry. The endpoints mirror the lifecycle of
// a ranking rule in the paper: fit (or install) a rule, inspect its
// diagnostics, then reuse it to score and rank fresh observations. Batch
// scoring shards across a worker pool so throughput scales with cores.
//
// Routes:
//
//	POST   /v1/models             fit from rows, or install a saved rule
//	GET    /v1/models             list stored rules (metadata only)
//	GET    /v1/models/{id}        one rule's metadata
//	GET    /v1/models/{id}/rule   the saved-rule document (Model.Save output)
//	DELETE /v1/models/{id}        remove a rule
//	POST   /v1/models/{id}/score  score rows with a stored rule
//	POST   /v1/models/{id}/rank   score rows and return 1-based positions
//	GET    /healthz               liveness + model count (503 while draining)
//	GET    /metrics               Prometheus-style counters and latencies
//	GET    /statusz               live status snapshot (JSON or HTML)
//	GET    /controlz              drain state + in-flight count
//	POST   /controlz/drain        stop admitting work (?wait_ms= blocks until idle)
//	POST   /controlz/resume       resume admitting work
//
// Every request is traced (see internal/obs): responses carry an
// X-Request-Id header, error bodies echo the ID, stage timings are
// recorded per request, and requests slower than Options.SlowThreshold
// are logged structurally and retained for /statusz.
//
// Scoring requests pass admission control before touching the pool:
// server-wide in-flight byte and row budgets, per-model concurrency with
// a bounded wait queue, and a feasibility check of the client's deadline
// (X-Deadline-Ms header or ?deadline_ms=, capped by Options.MaxDeadline)
// against the model's observed median score time. The client deadline is
// carried as the request context's deadline, which admission, the scoring
// pool and the forward hop all read. Shed work answers 429 or 503
// immediately with Retry-After; a request queued for admission leaves
// when its context ends, and admitted work is cancelled cooperatively at
// row-block boundaries. See
// admission.go, controlz.go, and internal/faultinject for the failure
// harness the chaos suite drives through these paths.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/core"
	"rpcrank/internal/faultinject"
	"rpcrank/internal/obs"
	"rpcrank/internal/order"
	"rpcrank/internal/registry"
)

// Options configures New.
type Options struct {
	// Workers sizes the batch-scoring pool (≤ 0 selects GOMAXPROCS).
	Workers int
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxBatchRows bounds the row count of one score/rank/fit request
	// (default 1,000,000).
	MaxBatchRows int
	// SlowThreshold is the latency at or above which a request's stage
	// trace is logged (Warn) and retained for /statusz. Zero selects the
	// 500ms default; negative disables slow tracing.
	SlowThreshold time.Duration
	// TraceSample, when positive, logs roughly one in TraceSample
	// requests as a structured access line (Info) with stage timings.
	TraceSample int
	// Logger receives slow-request and sampled access logs (nil selects
	// slog.Default()).
	Logger *slog.Logger

	// MaxDeadline caps the client-supplied deadline (X-Deadline-Ms header
	// or ?deadline_ms=); longer requests are silently clamped. Zero
	// selects the 60s default.
	MaxDeadline time.Duration
	// MaxInFlightBytes is the server-wide admission budget on in-flight
	// request body bytes (charged from Content-Length); requests beyond
	// it are shed with 429. Zero selects 4×MaxBodyBytes; negative
	// disables the budget.
	MaxInFlightBytes int64
	// MaxInFlightRows is the server-wide budget on rows concurrently
	// being scored; batches beyond it are shed with 429. Zero selects
	// 4×MaxBatchRows; negative disables the budget.
	MaxInFlightRows int64
	// ModelConcurrency bounds concurrent score/rank requests per model
	// (≤ 0 selects 2×Workers). Requests beyond it queue.
	ModelConcurrency int
	// ModelQueue bounds how many requests may wait per model for a
	// concurrency slot; one more is shed with 429 + Retry-After. Zero
	// selects 4×ModelConcurrency; negative selects no queue (shed the
	// moment the concurrency limit is hit).
	ModelQueue int
	// Faults, when non-nil, arms the fault-injection schedule (see
	// internal/faultinject). Production servers leave it nil — every
	// injection point then compiles to a nil check.
	Faults *faultinject.Faults

	// Cluster, when non-nil, makes this node a member of a fault-tolerant
	// serving group (see internal/cluster): score/rank traffic is sharded
	// by rendezvous hashing across the live members, a non-owner serves a
	// rule it holds resident and forwards the rest with retries, installs
	// are broadcast to peers, and the /clusterz replication endpoints
	// answer them. Nil is a single node; the scoring fast path then pays
	// only a nil check.
	Cluster *cluster.Cluster
}

const (
	defaultMaxBodyBytes  = 32 << 20
	defaultMaxBatchRows  = 1_000_000
	defaultRuleName      = "model"
	defaultSlowThreshold = 500 * time.Millisecond
	defaultMaxDeadline   = time.Minute
	// slowRingSize bounds the /statusz slow-request history.
	slowRingSize = 64
	// retryAfterSeconds is the Retry-After hint stamped on every 429/503:
	// shed load is bursty, so "come back in a second" is the right order
	// of magnitude, and a fixed value keeps the error path allocation-free.
	retryAfterSeconds = "1"
)

// Server routes the API. Create with New; it implements http.Handler.
type Server struct {
	reg      *registry.Registry
	pool     *Pool
	metrics  *Metrics
	adm      *admission
	mux      *http.ServeMux
	opts     Options
	logger   *slog.Logger
	slowRing *obs.Ring
	start    time.Time
	cluster  *cluster.Cluster // nil on a single node

	// draining, when set, sheds new API work with 503 + Connection: close
	// while in-flight requests run to completion (see Drain/Resume and
	// the /controlz endpoints). Observability and control routes stay up.
	draining atomic.Bool
}

// New builds a Server around an open registry.
func New(reg *registry.Registry, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	if opts.MaxBatchRows <= 0 {
		opts.MaxBatchRows = defaultMaxBatchRows
	}
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = defaultSlowThreshold
	}
	if opts.MaxDeadline == 0 {
		opts.MaxDeadline = defaultMaxDeadline
	}
	if opts.MaxInFlightBytes == 0 {
		opts.MaxInFlightBytes = 4 * opts.MaxBodyBytes
	}
	if opts.MaxInFlightRows == 0 {
		opts.MaxInFlightRows = 4 * int64(opts.MaxBatchRows)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	pool := NewPool(opts.Workers)
	pool.faults = opts.Faults
	if opts.ModelConcurrency <= 0 {
		opts.ModelConcurrency = 2 * pool.Workers()
	}
	if opts.ModelQueue == 0 {
		opts.ModelQueue = 4 * opts.ModelConcurrency
	}
	if opts.ModelQueue < 0 {
		opts.ModelQueue = 0
	}
	s := &Server{
		reg:      reg,
		pool:     pool,
		metrics:  NewMetrics(),
		adm:      newAdmission(opts),
		mux:      http.NewServeMux(),
		opts:     opts,
		logger:   logger,
		slowRing: obs.NewRing(slowRingSize),
		start:    time.Now(),
		cluster:  opts.Cluster,
	}
	if opts.Faults != nil {
		reg.SetIOHook(func(op string) error {
			p := faultinject.PointRegistryRead
			if op == "write" {
				p = faultinject.PointRegistryWrite
			}
			return opts.Faults.Fire(p)
		})
	}
	s.metrics.SetPoolStats(s.pool.Stats)
	s.metrics.SetAdmission(s.adm)
	s.metrics.SetDraining(s.draining.Load)
	s.metrics.SetRegistry(reg.Stats)
	if s.cluster != nil {
		s.metrics.SetCluster(s.cluster.Snapshot)
	}
	s.mux.HandleFunc("POST /v1/models", s.instrument("fit", s.handleFit))
	s.mux.HandleFunc("GET /v1/models", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/models/{id}", s.instrument("get", s.handleGet))
	s.mux.HandleFunc("GET /v1/models/{id}/rule", s.instrument("rule", s.handleRule))
	s.mux.HandleFunc("DELETE /v1/models/{id}", s.instrument("delete", s.handleDelete))
	s.mux.HandleFunc("POST /v1/models/{id}/score", s.instrument("score", s.handleScore))
	s.mux.HandleFunc("POST /v1/models/{id}/rank", s.instrument("rank", s.handleRank))
	// Observability and lifecycle-control routes bypass admission and the
	// drain shed: a draining node must keep answering its orchestrator
	// and its monitoring.
	s.mux.HandleFunc("GET /healthz", s.instrumentOps("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /statusz", s.instrumentOps("statusz", s.handleStatusz))
	s.mux.HandleFunc("GET /controlz", s.instrumentOps("controlz", s.handleControlz))
	s.mux.HandleFunc("POST /controlz/drain", s.instrumentOps("drain", s.handleDrain))
	s.mux.HandleFunc("POST /controlz/resume", s.instrumentOps("resume", s.handleResume))
	// Replication endpoints for the serving group (internal/cluster). They
	// ride the ops instrumentation: a draining node must keep answering
	// digests and exports so peers can anti-entropy off it, and install
	// replication must not be sheddable by admission budgets. The digest
	// and export handlers are registry-backed and work on a single node
	// too, so a group can form around a node started without -peers.
	s.mux.HandleFunc("POST /clusterz/install", s.instrumentOps("cluster_install", s.handleClusterInstall))
	s.mux.HandleFunc("GET /clusterz/digest", s.instrumentOps("cluster_digest", s.handleClusterDigest))
	s.mux.HandleFunc("GET /clusterz/export/{id}", s.instrumentOps("cluster_export", s.handleClusterExport))
	s.mux.HandleFunc("POST /clusterz/draining", s.instrumentOps("cluster_draining", s.handleClusterDraining))
	s.mux.HandleFunc("GET /clusterz", s.instrumentOps("clusterz", s.handleClusterz))
	s.mux.Handle("GET /metrics", s.metrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the worker pool.
func (s *Server) Close() { s.pool.Close() }

// Metrics exposes the collector (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusWriter captures the response code for metrics and carries the
// request's trace through the handler (handlers reach it with traceOf).
// It is pooled — together with its embedded body limiter — so the
// per-request instrumentation costs no allocation beyond the request-ID
// string and its header slot.
type statusWriter struct {
	http.ResponseWriter
	status  int
	trace   *obs.Trace
	model   string // model ID of a score/rank request, for slow logs
	rows    int    // rows scored, for slow logs
	limiter bodyLimiter

	// upstream is the forwarding node's request ID on a request that
	// crossed one hop (empty otherwise), for request logs.
	upstream string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

var swPool sync.Pool

func getStatusWriter() *statusWriter {
	if sw, ok := swPool.Get().(*statusWriter); ok {
		return sw
	}
	return &statusWriter{}
}

func putStatusWriter(sw *statusWriter) {
	*sw = statusWriter{}
	swPool.Put(sw)
}

// traceOf returns the trace carried by a handler's ResponseWriter (nil for
// a writer the instrumentation middleware did not wrap, as in direct
// handler tests). The obs.Trace recording methods are nil-safe, so callers
// use the result unconditionally.
func traceOf(w http.ResponseWriter) *obs.Trace {
	if sw, ok := w.(*statusWriter); ok {
		return sw.trace
	}
	return nil
}

// traceCtx adapts a possibly-nil trace to the context the pool expects.
// A non-nil trace is its own context, so this is allocation-free.
func traceCtx(tr *obs.Trace) context.Context {
	if tr == nil {
		return context.Background()
	}
	return tr
}

// shardKeyOf returns the metric shard key for a request: its trace ID, or
// 0 without a trace.
func shardKeyOf(tr *obs.Trace) uint64 {
	if tr == nil {
		return 0
	}
	return tr.ID()
}

// bodyLimiter is http.MaxBytesReader without the per-request allocation:
// it lives inside the pooled statusWriter. Reads beyond the limit return
// *http.MaxBytesError exactly like the stdlib reader, so the 413 mapping
// in writeError and the decode paths is unchanged. It also holds the
// request's charge against the in-flight byte budget: the Content-Length,
// charged at admission, or for a body without one (chunked), each read's
// bytes as they arrive, with errByteBudget once the budget refuses them.
type bodyLimiter struct {
	rc        io.ReadCloser
	remaining int64
	limit     int64
	err       error // sticky: the size cap's or the byte budget's
	faults    *faultinject.Faults
	meter     *budget // charged per read when non-nil
	charged   int64   // bytes charged against the in-flight byte budget
}

// errByteBudget is the answer to a request the in-flight byte budget
// cannot hold, at admission or mid-read.
var errByteBudget = &shedError{status: http.StatusTooManyRequests, reason: shedBytes,
	msg: "server at its in-flight byte budget; retry later"}

func (l *bodyLimiter) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	// Slow-client and truncated-body faults land here, between the handler
	// and the transport — exactly where a stalled peer would.
	if err := l.faults.Fire(faultinject.PointBodyRead); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	// Read one byte past the budget so an exactly-limit-sized body
	// succeeds and limit+1 trips, matching MaxBytesReader.
	if int64(len(p)) > l.remaining+1 {
		p = p[:l.remaining+1]
	}
	n, err := l.rc.Read(p)
	if int64(n) > l.remaining {
		n = int(l.remaining)
		l.err = &http.MaxBytesError{Limit: l.limit}
		err = l.err
	}
	l.remaining -= int64(n)
	if l.meter != nil && n > 0 {
		if !l.meter.tryAcquire(int64(n)) {
			l.err = errByteBudget
			return 0, l.err
		}
		l.charged += int64(n)
	}
	return n, err
}

func (l *bodyLimiter) Close() error { return l.rc.Close() }

func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumented(route, h, false)
}

// instrumentOps wraps observability and lifecycle-control handlers: same
// tracing and metrics as instrument, but no drain shed, no deadline, no
// admission budgets — a draining node must keep answering its monitoring
// and its orchestrator.
func (s *Server) instrumentOps(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumented(route, h, true)
}

func (s *Server) instrumented(route string, h http.HandlerFunc, ops bool) http.HandlerFunc {
	// The route's sharded stats are resolved once at registration, so the
	// per-request path touches no map and no lock.
	rs := s.metrics.Route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		// A client deadline becomes the request context's deadline, so the
		// trace, admission, the pool and the forward hop all read it from
		// there. Only a request that asks for one pays for the context and
		// its timer. A malformed value is answered after the drain check.
		var derr error
		if !ops {
			var d time.Duration
			d, derr = parseDeadline(r, s.opts.MaxDeadline)
			if d > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), d)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		tr := obs.StartTrace(r.Context())
		sw := getStatusWriter()
		sw.ResponseWriter = w
		sw.status = http.StatusOK
		sw.trace = tr
		sw.limiter = bodyLimiter{rc: r.Body, remaining: s.opts.MaxBodyBytes, limit: s.opts.MaxBodyBytes, faults: s.opts.Faults}
		r.Body = &sw.limiter
		w.Header().Set("X-Request-Id", tr.IDString())
		if forwarded(r) {
			if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
				sw.upstream = id
			}
		}
		s.metrics.InFlight().Add(1)
		// Deferred so a panicking handler (net/http recovers it per
		// connection) still counts as a request — and as an error, not as
		// the 200 the status writer was initialised with. The writer is
		// not repooled on the panic path, but its budget charge is still
		// released either way.
		defer func() {
			s.metrics.InFlight().Add(-1)
			s.adm.bytes.release(sw.limiter.charged)
			if sw.limiter.err == errByteBudget {
				s.adm.recordShed(tr.ID(), shedBytes)
			}
			elapsed := time.Since(tr.Start())
			if rec := recover(); rec != nil {
				rs.Observe(tr.ID(), http.StatusInternalServerError, elapsed)
				s.finishTrace(route, tr, sw, http.StatusInternalServerError, elapsed)
				tr.Release()
				panic(rec)
			}
			rs.Observe(tr.ID(), sw.status, elapsed)
			s.finishTrace(route, tr, sw, sw.status, elapsed)
			tr.Release()
			putStatusWriter(sw)
		}()
		if !ops {
			if s.draining.Load() {
				// Connection: close steers the next request of a keep-alive
				// client (or the LB in front) to a healthy node.
				sw.Header().Set("Connection", "close")
				s.adm.recordShed(tr.ID(), shedDraining)
				writeError(sw, &shedError{status: http.StatusServiceUnavailable, reason: shedDraining,
					msg: "server draining; retry against another node"})
				return
			}
			if derr != nil {
				writeError(sw, derr)
				return
			}
			switch n := r.ContentLength; {
			case n > 0:
				if !s.adm.bytes.tryAcquire(n) {
					s.adm.recordShed(tr.ID(), shedBytes)
					writeError(sw, errByteBudget)
					return
				}
				sw.limiter.charged = n
			case n < 0:
				sw.limiter.meter = &s.adm.bytes
			}
		}
		h(sw, r)
	}
}

// finishTrace emits the request's structured log line — Warn with the full
// stage breakdown when it crossed the slow threshold (also retained for
// /statusz), Info when it fell in the 1-in-TraceSample access sample — and
// is a pair of comparisons otherwise.
func (s *Server) finishTrace(route string, tr *obs.Trace, sw *statusWriter, status int, elapsed time.Duration) {
	slow := s.opts.SlowThreshold > 0 && elapsed >= s.opts.SlowThreshold
	sampled := s.opts.TraceSample > 0 && tr.ID()%uint64(s.opts.TraceSample) == 0
	if !slow && !sampled {
		return
	}
	if slow {
		s.metrics.AddSlow(tr.ID())
		sum := obs.Summarize(tr, route, sw.model, status, sw.rows, elapsed)
		sum.UpstreamRequestID = sw.upstream
		s.slowRing.Push(sum)
	}
	attrs := tr.LogAttrs()
	attrs = append(attrs,
		slog.String("route", route),
		slog.Int("status", status),
		slog.Float64("total_ms", float64(elapsed.Nanoseconds())/1e6),
	)
	if sw.model != "" {
		attrs = append(attrs, slog.String("model", sw.model), slog.Int("rows", sw.rows))
	}
	if sw.upstream != "" {
		attrs = append(attrs, slog.String("upstream_request_id", sw.upstream))
	}
	msg, level := "request", slog.LevelInfo
	if slow {
		msg, level = "slow request", slog.LevelWarn
	}
	s.logger.LogAttrs(context.Background(), level, msg, attrs...)
}

// forwardedKey is cluster.ForwardedHeader in the canonical form net/http
// stores it under, so forwarded is a plain map lookup; Header.Get would
// canonicalize, and allocate, on every request.
var forwardedKey = http.CanonicalHeaderKey(cluster.ForwardedHeader)

// forwarded reports whether r already crossed one cluster hop.
func forwarded(r *http.Request) bool {
	v := r.Header[forwardedKey]
	return len(v) > 0 && v[0] != ""
}

// validRequestID reports whether an upstream request ID may be logged: at
// most 64 bytes of [0-9A-Za-z._-]. Anything else is dropped, so a peer
// header can never inject text into a log line.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// httpError is an error with an HTTP status attached.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	var se *shedError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &se):
		status = se.status
	case errors.As(err, &he):
		status = he.status
	case errors.As(err, &mbe):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, registry.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrPoolClosed),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	// Every shed or shutdown answer carries a retry hint: the condition is
	// transient by construction, and clients with backoff honour it.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	resp := ErrorResponse{Error: err.Error()}
	if tr := traceOf(w); tr != nil {
		resp.RequestID = tr.IDString()
	}
	writeJSON(w, status, resp)
}

// writeRawJSON writes a pre-encoded JSON answer given as parts to send in
// order (ending in the newline json.Encoder terminates documents with).
// The length is declared up front, so the answer is not chunked, and the
// parts go out as they are, without being copied into one buffer.
func writeRawJSON(w http.ResponseWriter, parts [][]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		w.Write(p)
	}
}

// bodyPool recycles the request-body buffers of forwarded requests (score
// and rank bodies live in their pooled scoreState); buffers past poolMaxBuf
// are left for the collector rather than pinned forever. Pooled as *[]byte
// so Put does not re-box the slice header every time.
var bodyPool sync.Pool

const poolMaxBuf = 1 << 20

// poolMaxFrameVals bounds the pooled frame and score buffers (in float64s,
// 1 MiB of frame backing) just as poolMaxBuf bounds the byte buffers.
const poolMaxFrameVals = 1 << 17

func getBuf(pool *sync.Pool) []byte {
	if p, ok := pool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func putBuf(pool *sync.Pool, b []byte) {
	if cap(b) == 0 || cap(b) > poolMaxBuf {
		return
	}
	pool.Put(&b)
}

// readBody reads the whole (MaxBytesReader-limited) body into buf (reused
// from its start) pre-sized from Content-Length, avoiding io.ReadAll's growth
// copies on megabyte batches. Content-Length is only trusted up to
// maxBody — the same bound MaxBytesReader enforces on the actual read —
// so a forged header cannot allocate beyond the configured request cap.
// The result, on error too, is the buffer to pool again.
func readBody(r *http.Request, maxBody int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if n := r.ContentLength; n > 0 && n+1 <= maxBody+2 && int64(cap(buf)) < n+1 {
		buf = make([]byte, 0, n+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			if lerr := limitError(err); lerr != nil {
				return buf, lerr
			}
			return buf, badRequest("reading request body: %v", err)
		}
	}
}

// limitError returns the body limit a failed read or decode hit — the size
// cap's *http.MaxBytesError (413) or the byte budget's errByteBudget (429)
// — or nil when it hit neither.
func limitError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return mbe
	}
	if errors.Is(err, errByteBudget) {
		return errByteBudget
	}
	return nil
}

// decodeJSON decodes exactly one JSON document from r into v: unknown
// fields and trailing data are 400s, and a read that hit a body limit
// answers that limit's error.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if lerr := limitError(err); lerr != nil {
			return lerr
		}
		return badRequest("decoding request body: %v", err)
	}
	// Reject trailing garbage so truncated uploads fail loudly.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if lerr := limitError(err); lerr != nil {
			return lerr
		}
		return badRequest("unexpected data after JSON body")
	}
	return nil
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	name := req.Name
	if name == "" {
		name = defaultRuleName
	}
	if !registry.ValidName(name) {
		writeError(w, badRequest("invalid model name %q", req.Name))
		return
	}
	switch {
	case len(req.Rule) > 0 && len(req.Rows) > 0:
		writeError(w, badRequest("request has both rows and rule; send one"))
	case len(req.Rule) > 0 && (len(req.Alpha) > 0 || req.Degree != 0 || req.Restarts != 0 || req.Seed != 0):
		// Fit parameters cannot change an already-fitted rule; silently
		// dropping them would hide a contradictory request.
		writeError(w, badRequest("rule installs ignore fit parameters; remove alpha/degree/restarts/seed"))
	case len(req.Rule) > 0:
		s.installRule(w, name, req.Rule)
	case len(req.Rows) > 0:
		s.fitRows(w, name, &req)
	default:
		writeError(w, badRequest("request needs rows (to fit) or rule (to install)"))
	}
}

func (s *Server) installRule(w http.ResponseWriter, name string, rule json.RawMessage) {
	m, err := core.Load(bytes.NewReader(rule))
	if err != nil {
		writeError(w, badRequest("invalid rule document: %v", err))
		return
	}
	meta, err := s.reg.Put(name, m, 0, 0)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.cluster != nil {
		s.cluster.BroadcastInstall(meta.ID)
	}
	writeJSON(w, http.StatusCreated, FitResponse{Model: meta})
}

func (s *Server) fitRows(w http.ResponseWriter, name string, req *FitRequest) {
	alpha, err := order.NewDirection(req.Alpha...)
	if err != nil {
		writeError(w, badRequest("invalid alpha: %v", err))
		return
	}
	if len(req.Rows) > s.opts.MaxBatchRows {
		writeError(w, badRequest("%d rows exceeds the limit of %d", len(req.Rows), s.opts.MaxBatchRows))
		return
	}
	// Row shape and finiteness are validated inside core.Fit; its error
	// surfaces below as a 400.
	// Restarts multiply the whole alternating-minimisation cost, so an
	// unbounded client value is a CPU bomb like an oversized grid.
	const maxRestarts = 32
	if req.Restarts > maxRestarts {
		writeError(w, badRequest("restarts %d exceeds the limit of %d", req.Restarts, maxRestarts))
		return
	}
	restarts := req.Restarts
	if restarts <= 0 {
		restarts = 3
	}
	m, err := core.Fit(req.Rows, core.Options{
		Alpha:    alpha,
		Degree:   req.Degree,
		Restarts: restarts,
		Seed:     req.Seed,
		// Parallel projection is bit-identical to serial (per core.Options)
		// and large fits would otherwise pin one core for minutes. With
		// Restarts > 1 core.Fit also runs the restarts concurrently, at
		// most Workers wide, splitting these workers between them — the
		// parallelism never changes the fitted model, so /v1/models stays
		// deterministic per seed.
		Workers: s.pool.Workers(),
	})
	if err != nil {
		writeError(w, badRequest("fit failed: %v", err))
		return
	}
	s.metrics.ObserveFit(shardKeyOf(traceOf(w)), m.Converged, m.Iterations)
	meta, err := s.reg.Put(name, m, len(req.Rows), m.ExplainedVariance())
	if err != nil {
		writeError(w, err)
		return
	}
	if s.cluster != nil {
		s.cluster.BroadcastInstall(meta.ID)
	}
	// The stored record keeps the fit summary; the answer alone carries
	// the per-iteration trace.
	meta.Fit = m.FitDiag
	writeJSON(w, http.StatusCreated, FitResponse{
		Model:     meta,
		Scores:    m.Scores,
		Positions: order.RankFromScores(m.Scores),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ModelList{Models: s.reg.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	meta, err := s.reg.GetMeta(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Server) handleRule(w http.ResponseWriter, r *http.Request) {
	doc, err := s.reg.RuleDocument(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// scoreRows is the shared validation + worker-pool scoring path behind
// /score and /rank, working in st (the handler's pooled request state). The
// request body goes through a hand-rolled decoder for the overwhelmingly
// common {"rows": [[...]]} shape (reflection-based JSON decoding dominates
// large-batch latency otherwise), parsed straight into st's frame — in row
// ranges on the pool's workers for a large body — which the worker pool
// then shards by row range; anything that parser does not recognise
// byte-for-byte — including rows that do not match the model's dimension —
// falls back to encoding/json so error behaviour (unknown fields, type
// mismatches, trailing garbage, the canonical dimension message) is
// exactly the stdlib path's. Rows the fallback accepts are copied into the
// same frame, so both decoders share one scoring tail. On success st.scores
// holds the scores and st.ranges the row ranges to encode them in. A
// non-nil m is the rule to score with, already resident (maybeForward's
// local hit); nil loads it through the registry.
//
// Stage spans recorded on tr: normalize (metadata resolution, and again
// for the model load — the per-row min–max transform itself is fused into
// the score kernels and lands in the score spans), decode (twice: the body
// read before admission, the parse after it), admit (the queue wait),
// validate (shape and batch-size checks), score (one span per pool
// shard, recorded by the workers). The caller records encode.
func (s *Server) scoreRows(tr *obs.Trace, r *http.Request, st *scoreState, m *core.Model) (id string, err error) {
	id = r.PathValue("id")
	// Validate against the metadata first: a request that will be
	// rejected must not pay a model load (disk read + decode + LRU churn).
	meta, err := s.reg.GetMeta(id)
	if err != nil {
		return id, err
	}
	tr.EndStage(obs.StageNormalize)
	key := shardKeyOf(tr)
	// Admission. A request with a deadline is first checked for
	// feasibility against the model's observed p50 score latency — a batch
	// that cannot finish in time is shed before it costs a body read, a
	// decode, or a concurrency slot. Then the model's limiter bounds
	// concurrent scoring: the request reserves a slot or a queue place,
	// shedding a full queue before its body is read, reads the body, and
	// only then parks for a slot. The read comes before the park because
	// over HTTP/1.1 net/http cancels r.Context() on a client disconnect only
	// once the body has been read: a request parked with its body unread
	// would never see its client leave. Holding the slot through decode
	// keeps one model's oversized bodies from monopolising decode CPU.
	if dl, ok := r.Context().Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			s.adm.recordShed(key, shedExpired)
			return id, &shedError{status: http.StatusServiceUnavailable, reason: shedExpired,
				msg: "deadline already expired"}
		}
		if p50 := s.metrics.Model(id).lat.QuantileUs(0.5); p50 > 0 && rem < time.Duration(p50)*time.Microsecond {
			s.adm.recordShed(key, shedDeadline)
			return id, &shedError{status: http.StatusServiceUnavailable, reason: shedDeadline,
				msg: fmt.Sprintf("remaining deadline %v is below the model's observed p50 score time %v",
					rem.Round(time.Millisecond), time.Duration(p50)*time.Microsecond)}
		}
	}
	lim := s.adm.limiter(id)
	held, err := lim.reserve()
	if err != nil {
		s.adm.recordShed(key, shedQueueFull)
		return id, err
	}
	if st.body, err = readBody(r, s.opts.MaxBodyBytes, st.body); err != nil {
		lim.unreserve(held)
		return id, err
	}
	tr.EndStage(obs.StageDecode)
	var wait time.Duration
	if !held {
		if wait, err = lim.wait(r.Context()); err != nil {
			s.adm.recordShed(key, err.(*shedError).reason)
			return id, err
		}
	}
	defer lim.release()
	s.adm.waitHist.Observe(key, wait.Microseconds())
	tr.EndStage(obs.StageAdmit)
	if ferr := s.opts.Faults.Fire(faultinject.PointDecode); ferr != nil {
		return id, ferr
	}
	fr := &st.fr
	if st.decode(s.pool, meta.Dim, s.pool.splitCount(len(st.body))) {
		// The fast parser only yields finite values of the model's
		// dimension (JSON has no NaN/Inf literals, range errors reject,
		// every row must be exactly meta.Dim wide), so no further row
		// validation is needed; the empty batch still 400s with the
		// canonical message below.
		tr.EndStage(obs.StageDecode)
		if fr.N() > s.opts.MaxBatchRows {
			return id, badRequest("%d rows exceeds the limit of %d", fr.N(), s.opts.MaxBatchRows)
		}
		if fr.N() == 0 {
			return id, badRequest("invalid rows: %v", order.ValidateFrame(fr, meta.Dim))
		}
	} else {
		var req ScoreRequest
		if err := decodeJSON(bytes.NewReader(st.body), &req); err != nil {
			return id, err
		}
		tr.EndStage(obs.StageDecode)
		if len(req.Rows) > s.opts.MaxBatchRows {
			return id, badRequest("%d rows exceeds the limit of %d", len(req.Rows), s.opts.MaxBatchRows)
		}
		if err := order.ValidateRows(req.Rows, meta.Dim); err != nil {
			return id, badRequest("invalid rows: %v", err)
		}
		// Validated rows are rectangular at the model's width, so they pack
		// into the pooled frame and share the one scoring tail below.
		fr.Reset(meta.Dim)
		for _, row := range req.Rows {
			fr.AppendRow(row)
		}
		st.oneRange(fr.N())
	}
	if !s.adm.rows.tryAcquire(int64(fr.N())) {
		s.adm.recordShed(key, shedRows)
		return id, &shedError{status: http.StatusTooManyRequests, reason: shedRows,
			msg: "server at its in-flight row budget; retry later"}
	}
	defer s.adm.rows.release(int64(fr.N()))
	tr.EndStage(obs.StageValidate)
	if m == nil {
		if m, _, err = s.reg.Get(id); err != nil {
			return id, err
		}
	}
	tr.EndStage(obs.StageNormalize)
	t0 := time.Now()
	var serr error
	st.scores, serr = s.pool.ScoreFrame(traceCtx(tr), m, fr, st.scores)
	tr.SkipStage() // score wall time is covered by the shard spans
	if serr != nil {
		return id, s.scoreFailed(tr, key, fr.N(), serr)
	}
	s.metrics.AddRows(key, len(st.scores))
	s.metrics.Model(id).ObserveScore(key, len(st.scores), time.Since(t0))
	return id, nil
}

// scoreFailed maps a scoring error — cooperative cancellation, deadline
// expiry, or the pool racing shutdown — into the shed taxonomy, with the
// partial work the trace recorded in the message so a client knows how
// much of its batch was abandoned.
func (s *Server) scoreFailed(tr *obs.Trace, key uint64, total int, err error) error {
	if errors.Is(err, ErrPoolClosed) {
		s.adm.recordShed(key, shedClosed)
		return &shedError{status: http.StatusServiceUnavailable, reason: shedClosed,
			msg: "scoring pool closed; server shutting down"}
	}
	s.adm.recordShed(key, shedExpired)
	return &shedError{status: http.StatusServiceUnavailable, reason: shedExpired,
		msg: fmt.Sprintf("request expired mid-batch: scored %d of %d rows", tr.RowsDone(), total)}
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.serveScores(w, r, false)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	s.serveScores(w, r, true)
}

// serveScores answers /score, or /rank when rank is set. The fast-path
// answer is encoded in st's row ranges (on the pool's workers for a large
// batch) and written part by part; an answer it declines goes through
// writeJSON.
func (s *Server) serveScores(w http.ResponseWriter, r *http.Request, rank bool) {
	done, resident := s.maybeForward(w, r)
	if done {
		return
	}
	tr := traceOf(w)
	st := getScoreState()
	defer putScoreState(st) // encoding is synchronous on both paths below
	id, err := s.scoreRows(tr, r, st, resident)
	if sw, ok := w.(*statusWriter); ok {
		sw.model = id
		if err == nil {
			sw.rows = len(st.scores)
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if rank {
		st.positions = order.RankFromScores(st.scores)
	}
	if parts, ok := st.encode(s.pool, id); ok {
		writeRawJSON(w, parts)
	} else if rank {
		writeJSON(w, http.StatusOK, RankResponse{ModelID: id, Count: len(st.scores), Scores: st.scores, Positions: st.positions})
	} else {
		writeJSON(w, http.StatusOK, ScoreResponse{ModelID: id, Count: len(st.scores), Scores: st.scores})
	}
	tr.EndStage(obs.StageEncode)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "ok", Models: s.reg.Len()}
	if s.cluster != nil {
		h.PeersUp, h.PeersTotal = s.cluster.PeerCounts()
	}
	rs := s.reg.Stats()
	h.RegistryOK = rs.OK()
	h.Quarantined = rs.Quarantined
	h.PendingWrites = rs.PendingWrites
	// A draining node reports unhealthy so load balancers stop routing to
	// it, while /statusz and /controlz keep answering with full detail.
	if s.draining.Load() {
		h.Status = "draining"
		h.Draining = true
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}
