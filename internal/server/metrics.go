package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/obs"
	"rpcrank/internal/registry"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the request
// latency histogram, Prometheus-style cumulative with a +Inf tail.
var latencyBucketsMs = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// latencyBucketsUs is the same ladder in integer microseconds — the unit
// the sharded histograms store, so one observation is pure integer atomics.
var latencyBucketsUs = func() []int64 {
	us := make([]int64, len(latencyBucketsMs))
	for i, ms := range latencyBucketsMs {
		us[i] = int64(ms * 1000)
	}
	return us
}()

// maxModelSeries caps the per-model label space so a client minting model
// names cannot grow /metrics without bound; models beyond the cap are
// accounted under model="_overflow".
const maxModelSeries = 512

// Metrics collects per-route counters and latency histograms, per-model
// scoring series, gauges for in-flight requests and the scoring pool, Go
// runtime stats, and build identification. It renders itself in the
// Prometheus text exposition format at /metrics, with no dependency on a
// metrics library.
//
// The hot path is lock-free: routes are registered once at server
// construction, so handlers hold a *RouteStats and record through sharded
// atomic counters (keyed by the request ID) — the global mutex the old
// collector serialised every request on is gone. The remaining locks guard
// registration (per-model series creation) and are off the steady path.
type Metrics struct {
	start time.Time

	regMu  sync.Mutex
	routes map[string]*RouteStats

	rows     obs.Counter
	slow     obs.Counter
	inFlight obs.Gauge

	// fits counts successful fits by outcome: [0] stopped on ΔJ < ξ,
	// [1] stopped at MaxIter; fitIters sums their outer iterations.
	fits     [2]obs.Counter
	fitIters obs.Counter

	modelMu       sync.RWMutex
	models        map[string]*ModelStats
	modelOverflow *ModelStats

	// poolStats, when set, supplies live scoring-pool gauges at scrape
	// time: queued tasks, busy workers, pool size.
	poolStats func() (queue, busy, workers int)

	// adm, when set, supplies the admission-control series: shed counts by
	// reason, queue wait histogram, and the in-flight budget gauges.
	adm *admission
	// draining, when set, supplies the drain-state gauge.
	draining func() bool
	// clusterSnap, when set, supplies the serving-group series: per-peer
	// up gauges, forward/broadcast counters, and anti-entropy activity.
	clusterSnap func() cluster.Snapshot
	// registryStats, when set, supplies the storage-durability series:
	// corruption/repair counters, quarantine and degraded-write gauges.
	registryStats func() registry.Stats
}

// RouteStats holds one route's sharded counters. Handlers obtain theirs at
// registration and write without any lookup or lock.
type RouteStats struct {
	name   string
	count  obs.Counter
	errors obs.Counter
	lat    *obs.Histogram
}

// Observe records one request with the given response status and latency.
// key selects the counter shard; pass the request's trace ID.
func (rs *RouteStats) Observe(key uint64, status int, elapsed time.Duration) {
	rs.count.Add(key, 1)
	if status >= 400 {
		rs.errors.Add(key, 1)
	}
	rs.lat.Observe(key, elapsed.Microseconds())
}

// ModelStats holds one model's scoring series.
type ModelStats struct {
	requests obs.Counter
	rows     obs.Counter
	lat      *obs.Histogram // score-stage latency, not whole-request
}

// ObserveScore records one scoring request against the model.
func (ms *ModelStats) ObserveScore(key uint64, rows int, scoreElapsed time.Duration) {
	ms.requests.Add(key, 1)
	ms.rows.Add(key, int64(rows))
	ms.lat.Observe(key, scoreElapsed.Microseconds())
}

func newModelStats() *ModelStats {
	return &ModelStats{lat: obs.NewHistogram(latencyBucketsUs)}
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{
		start:  time.Now(),
		routes: make(map[string]*RouteStats),
		models: make(map[string]*ModelStats),
	}
}

// Route registers (or returns) the stats for a route. Called at server
// construction; handlers keep the pointer.
func (m *Metrics) Route(name string) *RouteStats {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	rs, ok := m.routes[name]
	if !ok {
		rs = &RouteStats{name: name, lat: obs.NewHistogram(latencyBucketsUs)}
		m.routes[name] = rs
	}
	return rs
}

// Model returns the stats for a model ID, creating them on first use. Past
// maxModelSeries distinct IDs, a shared overflow series is returned. The
// steady path is one RLock-guarded map read.
func (m *Metrics) Model(id string) *ModelStats {
	m.modelMu.RLock()
	ms := m.models[id]
	m.modelMu.RUnlock()
	if ms != nil {
		return ms
	}
	m.modelMu.Lock()
	defer m.modelMu.Unlock()
	if ms := m.models[id]; ms != nil {
		return ms
	}
	if len(m.models) >= maxModelSeries {
		if m.modelOverflow == nil {
			m.modelOverflow = newModelStats()
		}
		return m.modelOverflow
	}
	ms = newModelStats()
	m.models[id] = ms
	return ms
}

// AddRows adds to the total count of rows scored. key selects the shard.
func (m *Metrics) AddRows(key uint64, n int) { m.rows.Add(key, int64(n)) }

// ObserveFit records one successful fit: whether it converged and how
// many outer iterations it ran.
func (m *Metrics) ObserveFit(key uint64, converged bool, iterations int) {
	i := 0
	if !converged {
		i = 1
	}
	m.fits[i].Add(key, 1)
	m.fitIters.Add(key, int64(iterations))
}

// AddSlow counts one request over the slow-trace threshold.
func (m *Metrics) AddSlow(key uint64) { m.slow.Add(key, 1) }

// InFlight exposes the in-flight request gauge.
func (m *Metrics) InFlight() *obs.Gauge { return &m.inFlight }

// SetPoolStats installs the scoring-pool gauge source.
func (m *Metrics) SetPoolStats(f func() (queue, busy, workers int)) { m.poolStats = f }

// SetAdmission installs the admission-control series source.
func (m *Metrics) SetAdmission(a *admission) { m.adm = a }

// SetDraining installs the drain-state gauge source.
func (m *Metrics) SetDraining(f func() bool) { m.draining = f }

// SetCluster installs the serving-group series source.
func (m *Metrics) SetCluster(f func() cluster.Snapshot) { m.clusterSnap = f }

// SetRegistry installs the storage-durability series source.
func (m *Metrics) SetRegistry(f func() registry.Stats) { m.registryStats = f }

// writeHistogram renders one histogram family member with a label,
// converting the stored microseconds back to the millisecond unit the
// exposition has always used.
func writeHistogram(w *bytes.Buffer, family, label, value string, h *obs.Histogram) {
	cum, count, sumUs := h.Snapshot()
	for i, ub := range latencyBucketsMs {
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", family, label, value, fmt.Sprintf("%g", ub), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", family, label, value, count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", family, label, value, float64(sumUs)/1000)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", family, label, value, count)
}

// writeBareHistogram renders an unlabelled histogram family over an
// explicit millisecond bucket ladder.
func writeBareHistogram(w *bytes.Buffer, family string, bucketsMs []float64, h *obs.Histogram) {
	cum, count, sumUs := h.Snapshot()
	for i, ub := range bucketsMs {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", family, fmt.Sprintf("%g", ub), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", family, count)
	fmt.Fprintf(w, "%s_sum %g\n", family, float64(sumUs)/1000)
	fmt.Fprintf(w, "%s_count %d\n", family, count)
}

// ServeHTTP renders the metrics in Prometheus text format. Counters are
// sharded atomics, so rendering takes no lock that any request path
// contends on; registration maps are snapshotted under their own mutexes.
func (m *Metrics) ServeHTTP(rw http.ResponseWriter, _ *http.Request) {
	var w bytes.Buffer

	m.regMu.Lock()
	routes := make([]string, 0, len(m.routes))
	for r := range m.routes {
		routes = append(routes, r)
	}
	routeStats := make(map[string]*RouteStats, len(m.routes))
	for r, rs := range m.routes {
		routeStats[r] = rs
	}
	m.regMu.Unlock()
	sort.Strings(routes)

	fmt.Fprintf(&w, "# HELP rpcd_requests_total Requests served, by route.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_requests_total counter\n")
	for _, r := range routes {
		fmt.Fprintf(&w, "rpcd_requests_total{route=%q} %d\n", r, routeStats[r].count.Load())
	}
	fmt.Fprintf(&w, "# HELP rpcd_request_errors_total Requests answered with status >= 400, by route.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_request_errors_total counter\n")
	for _, r := range routes {
		fmt.Fprintf(&w, "rpcd_request_errors_total{route=%q} %d\n", r, routeStats[r].errors.Load())
	}
	fmt.Fprintf(&w, "# HELP rpcd_request_duration_ms Request latency histogram in milliseconds.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_request_duration_ms histogram\n")
	for _, r := range routes {
		writeHistogram(&w, "rpcd_request_duration_ms", "route", r, routeStats[r].lat)
	}
	fmt.Fprintf(&w, "# HELP rpcd_rows_scored_total Rows scored across score and rank endpoints.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_rows_scored_total counter\n")
	fmt.Fprintf(&w, "rpcd_rows_scored_total %d\n", m.rows.Load())
	fmt.Fprintf(&w, "# HELP rpcd_fits_total Fits run by POST /v1/models, by whether they converged before the iteration cap.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_fits_total counter\n")
	fmt.Fprintf(&w, "rpcd_fits_total{converged=\"true\"} %d\n", m.fits[0].Load())
	fmt.Fprintf(&w, "rpcd_fits_total{converged=\"false\"} %d\n", m.fits[1].Load())
	fmt.Fprintf(&w, "# HELP rpcd_fit_iterations_total Outer iterations run by the fits in rpcd_fits_total.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_fit_iterations_total counter\n")
	fmt.Fprintf(&w, "rpcd_fit_iterations_total %d\n", m.fitIters.Load())

	m.modelMu.RLock()
	models := make([]string, 0, len(m.models))
	for id := range m.models {
		models = append(models, id)
	}
	modelStats := make(map[string]*ModelStats, len(m.models)+1)
	for id, ms := range m.models {
		modelStats[id] = ms
	}
	if m.modelOverflow != nil {
		models = append(models, "_overflow")
		modelStats["_overflow"] = m.modelOverflow
	}
	m.modelMu.RUnlock()
	sort.Strings(models)

	fmt.Fprintf(&w, "# HELP rpcd_model_requests_total Scoring requests served, by model.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_model_requests_total counter\n")
	for _, id := range models {
		fmt.Fprintf(&w, "rpcd_model_requests_total{model=%q} %d\n", id, modelStats[id].requests.Load())
	}
	fmt.Fprintf(&w, "# HELP rpcd_model_rows_total Rows scored, by model.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_model_rows_total counter\n")
	for _, id := range models {
		fmt.Fprintf(&w, "rpcd_model_rows_total{model=%q} %d\n", id, modelStats[id].rows.Load())
	}
	fmt.Fprintf(&w, "# HELP rpcd_model_score_duration_ms Score-stage latency histogram in milliseconds, by model.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_model_score_duration_ms histogram\n")
	for _, id := range models {
		writeHistogram(&w, "rpcd_model_score_duration_ms", "model", id, modelStats[id].lat)
	}

	fmt.Fprintf(&w, "# HELP rpcd_requests_in_flight Requests currently being handled.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_requests_in_flight gauge\n")
	fmt.Fprintf(&w, "rpcd_requests_in_flight %d\n", m.inFlight.Load())
	fmt.Fprintf(&w, "# HELP rpcd_slow_requests_total Requests slower than the slow-trace threshold.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_slow_requests_total counter\n")
	fmt.Fprintf(&w, "rpcd_slow_requests_total %d\n", m.slow.Load())

	if m.poolStats != nil {
		queue, busy, workers := m.poolStats()
		fmt.Fprintf(&w, "# HELP rpcd_pool_queue_depth Tasks waiting in the pool queue.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_pool_queue_depth gauge\n")
		fmt.Fprintf(&w, "rpcd_pool_queue_depth %d\n", queue)
		fmt.Fprintf(&w, "# HELP rpcd_pool_workers_busy Pool workers currently running a task: scoring a row range, or decoding or encoding one range of a score request.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_pool_workers_busy gauge\n")
		fmt.Fprintf(&w, "rpcd_pool_workers_busy %d\n", busy)
		fmt.Fprintf(&w, "# HELP rpcd_pool_workers Pool size.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_pool_workers gauge\n")
		fmt.Fprintf(&w, "rpcd_pool_workers %d\n", workers)
	}

	if m.adm != nil {
		fmt.Fprintf(&w, "# HELP rpcd_shed_total Requests shed by admission control, by reason.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_shed_total counter\n")
		for i := 0; i < numShedReasons; i++ {
			fmt.Fprintf(&w, "rpcd_shed_total{reason=%q} %d\n", shedReasonNames[i], m.adm.shed[i].Load())
		}
		fmt.Fprintf(&w, "# HELP rpcd_admission_wait_ms Time requests spent queued for a per-model concurrency slot, in milliseconds.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_admission_wait_ms histogram\n")
		writeBareHistogram(&w, "rpcd_admission_wait_ms", admitWaitBucketsMs, m.adm.waitHist)
		active, queued := m.adm.totals()
		fmt.Fprintf(&w, "# HELP rpcd_admission_active Scoring requests currently holding a concurrency slot.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_admission_active gauge\n")
		fmt.Fprintf(&w, "rpcd_admission_active %d\n", active)
		fmt.Fprintf(&w, "# HELP rpcd_admission_queued Scoring requests currently queued for a concurrency slot.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_admission_queued gauge\n")
		fmt.Fprintf(&w, "rpcd_admission_queued %d\n", queued)
		fmt.Fprintf(&w, "# HELP rpcd_inflight_bytes Request body bytes charged against the in-flight byte budget.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_inflight_bytes gauge\n")
		fmt.Fprintf(&w, "rpcd_inflight_bytes %d\n", m.adm.bytes.load())
		fmt.Fprintf(&w, "# HELP rpcd_inflight_rows Rows charged against the in-flight row budget.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_inflight_rows gauge\n")
		fmt.Fprintf(&w, "rpcd_inflight_rows %d\n", m.adm.rows.load())
	}

	if m.clusterSnap != nil {
		snap := m.clusterSnap()
		fmt.Fprintf(&w, "# HELP rpcd_peer_up Whether a serving-group peer is routable (up or half-open, not draining).\n")
		fmt.Fprintf(&w, "# TYPE rpcd_peer_up gauge\n")
		for _, p := range snap.Peers {
			up := 0
			if p.State != "down" && !p.Draining {
				up = 1
			}
			fmt.Fprintf(&w, "rpcd_peer_up{peer=%q} %d\n", p.URL, up)
		}
		fmt.Fprintf(&w, "# HELP rpcd_forwards_total Score/rank requests answered by a peer's relayed response.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_forwards_total counter\n")
		fmt.Fprintf(&w, "rpcd_forwards_total %d\n", snap.Forwards)
		fmt.Fprintf(&w, "# HELP rpcd_forward_local_total Score/rank requests for a peer-owned rule answered from a resident copy.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_forward_local_total counter\n")
		fmt.Fprintf(&w, "rpcd_forward_local_total %d\n", snap.ForwardLocal)
		fmt.Fprintf(&w, "# HELP rpcd_forward_retries_total Forward attempts beyond the first, across all requests.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_forward_retries_total counter\n")
		fmt.Fprintf(&w, "rpcd_forward_retries_total %d\n", snap.ForwardRetries)
		fmt.Fprintf(&w, "# HELP rpcd_forward_shed_total Requests degraded to local serving after every candidate peer failed.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_forward_shed_total counter\n")
		fmt.Fprintf(&w, "rpcd_forward_shed_total %d\n", snap.ForwardShed)
		fmt.Fprintf(&w, "# HELP rpcd_broadcasts_total Install broadcasts settled by a peer.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_broadcasts_total counter\n")
		fmt.Fprintf(&w, "rpcd_broadcasts_total %d\n", snap.Broadcasts)
		fmt.Fprintf(&w, "# HELP rpcd_broadcast_failures_total Install broadcasts that exhausted retries (left to anti-entropy).\n")
		fmt.Fprintf(&w, "# TYPE rpcd_broadcast_failures_total counter\n")
		fmt.Fprintf(&w, "rpcd_broadcast_failures_total %d\n", snap.BroadcastFailures)
		fmt.Fprintf(&w, "# HELP rpcd_antientropy_pulls_total Rules pulled from peers by the anti-entropy loop.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_antientropy_pulls_total counter\n")
		fmt.Fprintf(&w, "rpcd_antientropy_pulls_total %d\n", snap.AntiEntropyPulls)
		fmt.Fprintf(&w, "# HELP rpcd_antientropy_rounds_total Anti-entropy digest-exchange rounds completed.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_antientropy_rounds_total counter\n")
		fmt.Fprintf(&w, "rpcd_antientropy_rounds_total %d\n", snap.AntiEntropyRounds)
		fmt.Fprintf(&w, "# HELP rpcd_peer_probes_total Health probes sent to peers.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_peer_probes_total counter\n")
		fmt.Fprintf(&w, "rpcd_peer_probes_total %d\n", snap.Probes)
		fmt.Fprintf(&w, "# HELP rpcd_installs_replicated_total Installs applied from peers (broadcast or anti-entropy).\n")
		fmt.Fprintf(&w, "# TYPE rpcd_installs_replicated_total counter\n")
		fmt.Fprintf(&w, "rpcd_installs_replicated_total %d\n", snap.InstallsReplicated)
	}

	if m.registryStats != nil {
		rs := m.registryStats()
		fmt.Fprintf(&w, "# HELP rpcd_registry_corrupt_total Records quarantined after failing integrity verification (at open or at read).\n")
		fmt.Fprintf(&w, "# TYPE rpcd_registry_corrupt_total counter\n")
		fmt.Fprintf(&w, "rpcd_registry_corrupt_total %d\n", rs.CorruptTotal)
		fmt.Fprintf(&w, "# HELP rpcd_registry_repaired_total Quarantined rule versions restored by a peer re-install (anti-entropy repair).\n")
		fmt.Fprintf(&w, "# TYPE rpcd_registry_repaired_total counter\n")
		fmt.Fprintf(&w, "rpcd_registry_repaired_total %d\n", rs.RepairedTotal)
		fmt.Fprintf(&w, "# HELP rpcd_registry_degraded_writes_total Installs accepted serve-from-memory because the disk write failed.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_registry_degraded_writes_total counter\n")
		fmt.Fprintf(&w, "rpcd_registry_degraded_writes_total %d\n", rs.DegradedWritesTotal)
		fmt.Fprintf(&w, "# HELP rpcd_registry_flushed_writes_total Degraded writes later persisted by retry or Sync.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_registry_flushed_writes_total counter\n")
		fmt.Fprintf(&w, "rpcd_registry_flushed_writes_total %d\n", rs.FlushedWritesTotal)
		fmt.Fprintf(&w, "# HELP rpcd_registry_quarantined Records currently in quarantine awaiting repair.\n")
		fmt.Fprintf(&w, "# TYPE rpcd_registry_quarantined gauge\n")
		fmt.Fprintf(&w, "rpcd_registry_quarantined %d\n", rs.Quarantined)
		fmt.Fprintf(&w, "# HELP rpcd_registry_pending_writes Rules currently serving from memory only (unpersisted).\n")
		fmt.Fprintf(&w, "# TYPE rpcd_registry_pending_writes gauge\n")
		fmt.Fprintf(&w, "rpcd_registry_pending_writes %d\n", rs.PendingWrites)
	}

	if m.draining != nil {
		v := 0
		if m.draining() {
			v = 1
		}
		fmt.Fprintf(&w, "# HELP rpcd_draining Whether the server is draining (shedding new work).\n")
		fmt.Fprintf(&w, "# TYPE rpcd_draining gauge\n")
		fmt.Fprintf(&w, "rpcd_draining %d\n", v)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(&w, "# HELP rpcd_go_goroutines Number of goroutines.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_go_goroutines gauge\n")
	fmt.Fprintf(&w, "rpcd_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(&w, "# HELP rpcd_go_heap_alloc_bytes Bytes of allocated heap objects.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_go_heap_alloc_bytes gauge\n")
	fmt.Fprintf(&w, "rpcd_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(&w, "# HELP rpcd_go_heap_inuse_bytes Bytes in in-use heap spans.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_go_heap_inuse_bytes gauge\n")
	fmt.Fprintf(&w, "rpcd_go_heap_inuse_bytes %d\n", ms.HeapInuse)
	fmt.Fprintf(&w, "# HELP rpcd_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(&w, "rpcd_go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(&w, "# HELP rpcd_go_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_go_gc_cycles_total counter\n")
	fmt.Fprintf(&w, "rpcd_go_gc_cycles_total %d\n", ms.NumGC)

	fmt.Fprintf(&w, "# HELP rpcd_uptime_seconds Seconds since the collector was created.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_uptime_seconds gauge\n")
	fmt.Fprintf(&w, "rpcd_uptime_seconds %g\n", time.Since(m.start).Seconds())

	b := obs.Build()
	fmt.Fprintf(&w, "# HELP rpcd_build_info Build identification; value is always 1.\n")
	fmt.Fprintf(&w, "# TYPE rpcd_build_info gauge\n")
	fmt.Fprintf(&w, "rpcd_build_info{version=%q,revision=%q,go_version=%q} 1\n", b.Version, b.Revision, b.GoVersion)

	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.Write(w.Bytes())
}
