package server

import (
	"bytes"
	"fmt"
	"html"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/obs"
	"rpcrank/internal/registry"
)

// statuszPool is the scoring-pool section of a status snapshot.
type statuszPool struct {
	Workers int `json:"workers"`
	Queue   int `json:"queue"`
	Busy    int `json:"busy"`
}

// statuszAdmission is the overload-protection section of a status
// snapshot: budget occupancy, cumulative shed counts by reason, and the
// per-model limiters that are currently busy.
type statuszAdmission struct {
	InFlightBytes int64                 `json:"in_flight_bytes"`
	MaxBytes      int64                 `json:"max_bytes"`
	InFlightRows  int64                 `json:"in_flight_rows"`
	MaxRows       int64                 `json:"max_rows"`
	Shed          map[string]int64      `json:"shed"`
	Models        []admissionModelState `json:"models,omitempty"`
}

// statuszSnapshot is the /statusz document: one consistent-enough view of
// the live server, serialisable as JSON and renderable as HTML. Model
// metadata includes per-version fit diagnostics when the model was fitted
// in-process (registry.Meta.Fit).
type statuszSnapshot struct {
	Now            time.Time          `json:"now"`
	UptimeSeconds  float64            `json:"uptime_seconds"`
	Build          obs.BuildInfo      `json:"build"`
	Goroutines     int                `json:"goroutines"`
	HeapAllocBytes uint64             `json:"heap_alloc_bytes"`
	Draining       bool               `json:"draining"`
	InFlight       int64              `json:"in_flight"`
	Pool           statuszPool        `json:"pool"`
	Admission      statuszAdmission   `json:"admission"`
	Cluster        *cluster.Snapshot  `json:"cluster,omitempty"`
	Registry       registry.Stats     `json:"registry"`
	Models         []registry.Meta    `json:"models"`
	SlowRequests   []obs.TraceSummary `json:"slow_requests"`
}

func (s *Server) snapshot() statuszSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	queue, busy, workers := s.pool.Stats()
	shed := make(map[string]int64, numShedReasons)
	for i := 0; i < numShedReasons; i++ {
		if n := s.adm.shed[i].Load(); n > 0 {
			shed[shedReasonNames[i]] = n
		}
	}
	var clusterSnap *cluster.Snapshot
	if s.cluster != nil {
		cs := s.cluster.Snapshot()
		clusterSnap = &cs
	}
	return statuszSnapshot{
		Now:            time.Now(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Build:          obs.Build(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		Draining:       s.draining.Load(),
		InFlight:       s.metrics.InFlight().Load(),
		Pool:           statuszPool{Workers: workers, Queue: queue, Busy: busy},
		Admission: statuszAdmission{
			InFlightBytes: s.adm.bytes.load(),
			MaxBytes:      s.adm.bytes.max,
			InFlightRows:  s.adm.rows.load(),
			MaxRows:       s.adm.rows.max,
			Shed:          shed,
			Models:        s.adm.snapshotModels(),
		},
		Cluster:      clusterSnap,
		Registry:     s.reg.Stats(),
		Models:       s.reg.List(),
		SlowRequests: s.slowRing.Snapshot(),
	}
}

// handleStatusz serves the live status snapshot. Browsers (Accept:
// text/html) get a readable page; everything else — and ?format=json —
// gets the JSON document.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	format := r.URL.Query().Get("format")
	wantHTML := format == "html" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "text/html"))
	if !wantHTML {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	var b bytes.Buffer
	renderStatuszHTML(&b, &snap)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(b.Bytes())
}

func renderStatuszHTML(b *bytes.Buffer, snap *statuszSnapshot) {
	esc := html.EscapeString
	fmt.Fprintf(b, "<!DOCTYPE html>\n<html><head><title>rpcd status</title>")
	fmt.Fprintf(b, "<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}td,th{border:1px solid #999;padding:2px 8px;text-align:left}h2{margin-top:1.5em}</style>")
	fmt.Fprintf(b, "</head><body>\n<h1>rpcd status</h1>\n")

	fmt.Fprintf(b, "<h2>Process</h2><table>\n")
	fmt.Fprintf(b, "<tr><th>now</th><td>%s</td></tr>\n", snap.Now.Format(time.RFC3339))
	fmt.Fprintf(b, "<tr><th>uptime</th><td>%.1fs</td></tr>\n", snap.UptimeSeconds)
	fmt.Fprintf(b, "<tr><th>build</th><td>%s %s (%s)</td></tr>\n", esc(snap.Build.Version), esc(snap.Build.Revision), esc(snap.Build.GoVersion))
	fmt.Fprintf(b, "<tr><th>goroutines</th><td>%d</td></tr>\n", snap.Goroutines)
	fmt.Fprintf(b, "<tr><th>heap alloc</th><td>%d bytes</td></tr>\n", snap.HeapAllocBytes)
	fmt.Fprintf(b, "<tr><th>draining</th><td>%v</td></tr>\n", snap.Draining)
	fmt.Fprintf(b, "<tr><th>in-flight requests</th><td>%d</td></tr>\n", snap.InFlight)
	fmt.Fprintf(b, "<tr><th>pool</th><td>%d workers, %d busy, %d queued</td></tr>\n", snap.Pool.Workers, snap.Pool.Busy, snap.Pool.Queue)
	fmt.Fprintf(b, "</table>\n")

	fmt.Fprintf(b, "<h2>Admission</h2><table>\n")
	fmt.Fprintf(b, "<tr><th>in-flight bytes</th><td>%d / %d</td></tr>\n", snap.Admission.InFlightBytes, snap.Admission.MaxBytes)
	fmt.Fprintf(b, "<tr><th>in-flight rows</th><td>%d / %d</td></tr>\n", snap.Admission.InFlightRows, snap.Admission.MaxRows)
	shedReasons := make([]string, 0, len(snap.Admission.Shed))
	for r := range snap.Admission.Shed {
		shedReasons = append(shedReasons, r)
	}
	sort.Strings(shedReasons)
	for _, r := range shedReasons {
		fmt.Fprintf(b, "<tr><th>shed (%s)</th><td>%d</td></tr>\n", esc(r), snap.Admission.Shed[r])
	}
	fmt.Fprintf(b, "</table>\n")
	if len(snap.Admission.Models) > 0 {
		fmt.Fprintf(b, "<table><tr><th>model</th><th>active</th><th>queued</th></tr>\n")
		for _, m := range snap.Admission.Models {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td></tr>\n", esc(m.Model), m.Active, m.Queued)
		}
		fmt.Fprintf(b, "</table>\n")
	}

	if snap.Cluster != nil {
		c := snap.Cluster
		fmt.Fprintf(b, "<h2>Cluster</h2><table>\n")
		fmt.Fprintf(b, "<tr><th>self</th><td>%s</td></tr>\n", esc(c.Self))
		fmt.Fprintf(b, "<tr><th>peers up</th><td>%d / %d</td></tr>\n", c.PeersUp, len(c.Peers))
		fmt.Fprintf(b, "<tr><th>forwards</th><td>%d (%d retries, %d shed, %d served from a resident copy)</td></tr>\n", c.Forwards, c.ForwardRetries, c.ForwardShed, c.ForwardLocal)
		fmt.Fprintf(b, "<tr><th>broadcasts</th><td>%d (%d failed)</td></tr>\n", c.Broadcasts, c.BroadcastFailures)
		fmt.Fprintf(b, "<tr><th>anti-entropy</th><td>%d rounds, %d pulls</td></tr>\n", c.AntiEntropyRounds, c.AntiEntropyPulls)
		fmt.Fprintf(b, "<tr><th>installs replicated</th><td>%d</td></tr>\n", c.InstallsReplicated)
		fmt.Fprintf(b, "</table>\n")
		if len(c.Peers) > 0 {
			fmt.Fprintf(b, "<table><tr><th>peer</th><th>state</th><th>draining</th><th>consecutive fails</th><th>last probe</th><th>last error</th></tr>\n")
			for _, p := range c.Peers {
				fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%v</td><td>%d</td><td>%dms ago</td><td>%s</td></tr>\n",
					esc(p.URL), esc(p.State), p.Draining, p.ConsecutiveFails, p.LastProbeAgoMs, esc(p.LastErr))
			}
			fmt.Fprintf(b, "</table>\n")
		}
	}

	reg := snap.Registry
	fmt.Fprintf(b, "<h2>Registry durability</h2><table>\n")
	fmt.Fprintf(b, "<tr><th>registry ok</th><td>%v</td></tr>\n", reg.OK())
	fmt.Fprintf(b, "<tr><th>quarantined</th><td>%d</td></tr>\n", reg.Quarantined)
	if len(reg.QuarantinedIDs) > 0 {
		fmt.Fprintf(b, "<tr><th>quarantined ids</th><td>%s</td></tr>\n", esc(strings.Join(reg.QuarantinedIDs, ", ")))
	}
	fmt.Fprintf(b, "<tr><th>corrupt / repaired (total)</th><td>%d / %d</td></tr>\n", reg.CorruptTotal, reg.RepairedTotal)
	fmt.Fprintf(b, "<tr><th>degraded writes (pending / total / flushed)</th><td>%d / %d / %d</td></tr>\n", reg.PendingWrites, reg.DegradedWritesTotal, reg.FlushedWritesTotal)
	fmt.Fprintf(b, "<tr><th>legacy v1 records</th><td>%d</td></tr>\n", reg.LegacyRecords)
	fmt.Fprintf(b, "<tr><th>tmp files removed at open</th><td>%d</td></tr>\n", reg.TmpFilesRemoved)
	fmt.Fprintf(b, "</table>\n")

	fmt.Fprintf(b, "<h2>Models (%d)</h2>\n", len(snap.Models))
	// "converged" says whether the fit stopped on ΔJ < ξ or was published
	// as its MaxIter-th iterate; rules installed from a document have no
	// fit and show "-".
	fmt.Fprintf(b, "<table><tr><th>id</th><th>dim</th><th>degree</th><th>rows</th><th>explained var</th><th>monotone</th><th>fit iters</th><th>converged</th><th>final objective</th><th>warm-hit</th></tr>\n")
	for _, m := range snap.Models {
		iters, converged, obj, warm := "-", "-", "-", "-"
		if m.Fit != nil {
			iters = fmt.Sprintf("%d", m.Fit.Iterations)
			converged = "no"
			if m.Fit.Converged {
				converged = "yes"
			}
			obj = fmt.Sprintf("%.6g", m.Fit.FinalObjective)
			warm = fmt.Sprintf("%.1f%%", 100*m.Fit.WarmStartHitRate)
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%.4f</td><td>%v</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			esc(m.ID), m.Dim, m.Degree, m.Rows, m.ExplainedVariance, m.Monotone, iters, converged, obj, warm)
	}
	fmt.Fprintf(b, "</table>\n")

	fmt.Fprintf(b, "<h2>Recent slow requests (%d)</h2>\n", len(snap.SlowRequests))
	fmt.Fprintf(b, "<table><tr><th>request id</th><th>route</th><th>model</th><th>status</th><th>rows</th><th>partial rows</th><th>total ms</th><th>admit</th><th>decode</th><th>validate</th><th>normalize</th><th>score</th><th>encode</th><th>shards</th></tr>\n")
	for _, t := range snap.SlowRequests {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%d</td></tr>\n",
			esc(t.RequestID), esc(t.Route), esc(t.Model), t.Status, t.Rows, t.PartialRows, t.TotalMs,
			t.AdmitMs, t.DecodeMs, t.ValidateMs, t.NormalizeMs, t.ScoreMs, t.EncodeMs, t.ScoreShards)
	}
	fmt.Fprintf(b, "</table>\n</body></html>\n")
}
