package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/registry"
)

// newObsServer builds a server with a tiny slow threshold (every request is
// "slow") and a JSON logger captured into a buffer, so tests can assert on
// the structured slow-request log.
func newObsServer(t *testing.T, logBuf *syncBuffer) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SlowThreshold: time.Nanosecond}
	if logBuf != nil {
		opts.Logger = slog.New(slog.NewJSONHandler(logBuf, nil))
	}
	s := New(reg, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// syncBuffer makes a bytes.Buffer safe for the concurrent writes slog does
// when handlers run on different connections.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRequestIDHeaderAndErrorEcho(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id header on /healthz")
	}

	// An error reply echoes the request ID in the body so the client can
	// quote it against server logs.
	errResp := postJSON(t, ts.URL+"/v1/models/absent-v1/score", ScoreRequest{Rows: [][]float64{{1, 2, 3}}})
	if errResp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", errResp.StatusCode)
	}
	headerID := errResp.Header.Get("X-Request-Id")
	body := decodeBody[ErrorResponse](t, errResp)
	if body.RequestID == "" || body.RequestID != headerID {
		t.Errorf("error body request_id %q, header %q — want equal and non-empty", body.RequestID, headerID)
	}
	if headerID == id {
		t.Errorf("two requests shared request ID %q", id)
	}
}

func TestSlowRequestLogHasAllStages(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newObsServer(t, &logBuf)
	fitModel(t, ts, "slow")
	// 256 rows clears the pool's concurrencyThreshold, so the score stage
	// fans out and the trace carries per-shard spans.
	resp := postJSON(t, ts.URL+"/v1/models/slow-v1/score", ScoreRequest{Rows: trainingRows(256)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d", resp.StatusCode)
	}
	wantID := resp.Header.Get("X-Request-Id")
	resp.Body.Close()
	// The slow-request line is written after the handler returns, and a
	// response this large reaches the client before that; Close waits for
	// every handler to finish.
	ts.Close()

	var scoreLog map[string]any
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == "slow request" && rec["route"] == "score" {
			scoreLog = rec
		}
	}
	if scoreLog == nil {
		t.Fatalf("no slow-request log for the score route; log:\n%s", logBuf.String())
	}
	if scoreLog["level"] != "WARN" {
		t.Errorf("slow log level = %v, want WARN", scoreLog["level"])
	}
	if scoreLog["request_id"] != wantID {
		t.Errorf("slow log request_id = %v, response header %q", scoreLog["request_id"], wantID)
	}
	if scoreLog["model"] != "slow-v1" {
		t.Errorf("slow log model = %v", scoreLog["model"])
	}
	if rows, ok := scoreLog["rows"].(float64); !ok || int(rows) != 256 {
		t.Errorf("slow log rows = %v, want 256", scoreLog["rows"])
	}
	// All five stage spans must be present as numbers.
	for _, key := range []string{"decode_ms", "validate_ms", "normalize_ms", "score_ms", "encode_ms", "total_ms"} {
		v, ok := scoreLog[key].(float64)
		if !ok {
			t.Errorf("slow log missing stage %q (got %v)", key, scoreLog[key])
			continue
		}
		if v < 0 {
			t.Errorf("stage %q negative: %v", key, v)
		}
	}
	if shards, ok := scoreLog["score_shards"].(float64); !ok || shards < 1 {
		t.Errorf("slow log score_shards = %v, want >= 1", scoreLog["score_shards"])
	}
}

func TestStatuszJSON(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newObsServer(t, &logBuf)
	fitModel(t, ts, "statz")
	postJSON(t, ts.URL+"/v1/models/statz-v1/score", ScoreRequest{Rows: trainingRows(8)}).Body.Close()

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	snap := decodeBody[statuszSnapshot](t, resp)
	if snap.UptimeSeconds < 0 {
		t.Errorf("uptime %v", snap.UptimeSeconds)
	}
	if snap.Build.GoVersion == "" {
		t.Error("empty go version in build info")
	}
	if snap.Goroutines < 1 || snap.Pool.Workers < 1 {
		t.Errorf("goroutines %d, pool workers %d", snap.Goroutines, snap.Pool.Workers)
	}
	if len(snap.Models) != 1 || snap.Models[0].ID != "statz-v1" {
		t.Fatalf("models = %+v", snap.Models)
	}
	if snap.Models[0].Fit == nil || snap.Models[0].Fit.Iterations < 1 {
		t.Errorf("model fit diagnostics missing from /statusz: %+v", snap.Models[0].Fit)
	}
	// Every request ran over the 1ns slow threshold, so the ring has them.
	if len(snap.SlowRequests) == 0 {
		t.Fatal("no slow requests in snapshot despite 1ns threshold")
	}
	var sawScore bool
	for _, tr := range snap.SlowRequests {
		if tr.Route == "score" && tr.Model == "statz-v1" && tr.Rows == 8 {
			sawScore = true
			if tr.RequestID == "" || tr.Status != http.StatusOK {
				t.Errorf("score trace summary incomplete: %+v", tr)
			}
		}
	}
	if !sawScore {
		t.Errorf("score request missing from slow ring: %+v", snap.SlowRequests)
	}
}

func TestStatuszHTML(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "page")

	req, _ := http.NewRequest("GET", ts.URL+"/statusz", nil)
	req.Header.Set("Accept", "text/html,application/xhtml+xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"<h1>rpcd status</h1>", "page-v1", "Models (1)", "Recent slow requests"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("HTML page missing %q", want)
		}
	}

	// format=json wins over the Accept header.
	req2, _ := http.NewRequest("GET", ts.URL+"/statusz?format=json", nil)
	req2.Header.Set("Accept", "text/html")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("format=json served %q", ct)
	}
}

// TestStatuszShowsConverged: the models table puts the fit's Converged
// beside its iteration count, so a model published as its MaxIter-th
// iterate is visible as such; an installed rule, which has no fit, shows
// "-". The live page agrees with the JSON document's fit diagnostics.
func TestStatuszShowsConverged(t *testing.T) {
	snap := statuszSnapshot{Models: []registry.Meta{
		{ID: "capped-v1", Fit: &core.FitDiagnostics{Iterations: 200}},
		{ID: "done-v1", Fit: &core.FitDiagnostics{Iterations: 41, Converged: true}},
		{ID: "rule-v1"},
	}}
	var b bytes.Buffer
	renderStatuszHTML(&b, &snap)
	page := b.String()
	for _, want := range []string{
		"<th>fit iters</th><th>converged</th>",
		"<td>200</td><td>no</td>",
		"<td>41</td><td>yes</td>",
		"<td>-</td><td>-</td><td>-</td><td>-</td></tr>",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("models table missing %q", want)
		}
	}

	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "conv")
	resp, err := http.Get(ts.URL + "/statusz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	js := decodeBody[statuszSnapshot](t, resp)
	if len(js.Models) != 1 || js.Models[0].Fit == nil {
		t.Fatalf("models = %+v", js.Models)
	}
	fit := js.Models[0].Fit
	want := fmt.Sprintf("<td>%d</td><td>no</td>", fit.Iterations)
	if fit.Converged {
		want = fmt.Sprintf("<td>%d</td><td>yes</td>", fit.Iterations)
	}
	resp, err = http.Get(ts.URL + "/statusz?format=html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if page, _ := io.ReadAll(resp.Body); !strings.Contains(string(page), want) {
		t.Errorf("live page missing %q for the fitted model", want)
	}
}

// promSample is one parsed exposition line: name, label text, value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parsePromText is a strict parser of the Prometheus text exposition format
// (version 0.0.4) covering the subset /metrics emits. It fails the test on
// any malformed line, HELP/TYPE violation, or bad escape.
func parsePromText(t *testing.T, body string) []promSample {
	t.Helper()
	var samples []promSample
	helped := map[string]bool{}
	typed := map[string]string{}
	metricRE := func(line string) (name, labels, valueStr string, ok bool) {
		rest := line
		i := strings.IndexAny(rest, "{ ")
		if i < 0 {
			return "", "", "", false
		}
		name = rest[:i]
		if rest[i] == '{' {
			end := strings.LastIndex(rest, "}")
			if end < i {
				return "", "", "", false
			}
			labels = rest[i+1 : end]
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			rest = strings.TrimSpace(rest[i+1:])
		}
		return name, labels, rest, true
	}
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && typed[f] == "histogram" {
				return f
			}
		}
		return name
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if helped[parts[0]] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, parts[0])
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			if !helped[parts[0]] {
				t.Fatalf("line %d: TYPE for %s without preceding HELP", ln+1, parts[0])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		name, labels, valueStr, ok := metricRE(line)
		if !ok {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		fam := family(name)
		if !helped[fam] || typed[fam] == "" {
			t.Fatalf("line %d: sample %s of family %s lacks HELP/TYPE", ln+1, name, fam)
		}
		if labels != "" {
			for _, pair := range splitLabels(t, labels) {
				k, v, found := strings.Cut(pair, "=")
				if !found || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				if _, err := strconv.Unquote(v); err != nil {
					t.Fatalf("line %d: bad label escaping %q: %v", ln+1, v, err)
				}
			}
		}
		v, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			if valueStr != "+Inf" && valueStr != "-Inf" && valueStr != "NaN" {
				t.Fatalf("line %d: bad value %q", ln+1, valueStr)
			}
		}
		samples = append(samples, promSample{name: name, labels: labels, value: v})
	}
	return samples
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func TestMetricsStrictExposition(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "prom")
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/models/prom-v1/score", ScoreRequest{Rows: trainingRows(8)}).Body.Close()
	}
	// One error, to populate the error counter.
	postJSON(t, ts.URL+"/v1/models/absent-v1/score", ScoreRequest{Rows: trainingRows(2)}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	samples := parsePromText(t, string(raw))

	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, want := range []string{
		"rpcd_requests_total", "rpcd_request_errors_total",
		"rpcd_request_duration_ms_bucket", "rpcd_request_duration_ms_sum", "rpcd_request_duration_ms_count",
		"rpcd_rows_scored_total", "rpcd_fits_total", "rpcd_fit_iterations_total",
		"rpcd_model_requests_total", "rpcd_model_rows_total",
		"rpcd_model_score_duration_ms_bucket",
		"rpcd_requests_in_flight", "rpcd_slow_requests_total",
		"rpcd_pool_queue_depth", "rpcd_pool_workers_busy", "rpcd_pool_workers",
		"rpcd_go_goroutines", "rpcd_go_heap_alloc_bytes", "rpcd_go_gc_pause_seconds_total",
		"rpcd_uptime_seconds", "rpcd_build_info",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("no samples for %s", want)
		}
	}

	// Per-model series carry the model label.
	var sawModel bool
	for _, s := range byName["rpcd_model_rows_total"] {
		if strings.Contains(s.labels, `model="prom-v1"`) {
			sawModel = true
			if s.value != 24 {
				t.Errorf("model rows = %v, want 24", s.value)
			}
		}
	}
	if !sawModel {
		t.Errorf("rpcd_model_rows_total missing model label: %+v", byName["rpcd_model_rows_total"])
	}

	// Histogram invariants per label set: buckets sorted by le, cumulative
	// counts non-decreasing, +Inf present and equal to _count.
	checkHistogram(t, byName, "rpcd_request_duration_ms")
	checkHistogram(t, byName, "rpcd_model_score_duration_ms")
}

// TestMetricsFitTelemetry: every fit POST /v1/models runs lands in
// rpcd_fits_total under its converged label, and its outer iterations in
// rpcd_fit_iterations_total, matching the fit diagnostics the registry
// keeps for the published version.
func TestMetricsFitTelemetry(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	journals := dataset.Journals()
	fits := []FitResponse{
		fitModel(t, ts, "small"),
		decodeBody[FitResponse](t, postJSON(t, ts.URL+"/v1/models", FitRequest{
			Name:  "journals",
			Alpha: journals.Alpha,
			Rows:  journals.Data.ToRows(),
		})),
	}
	var converged, unconverged, iterations float64
	for _, f := range fits {
		if f.Model.Fit == nil {
			t.Fatalf("fit %s carries no diagnostics", f.Model.ID)
		}
		if f.Model.Fit.Converged {
			converged++
		} else {
			unconverged++
		}
		iterations += float64(f.Model.Fit.Iterations)
	}
	// A failed fit is not counted.
	postJSON(t, ts.URL+"/v1/models", FitRequest{Name: "bad", Alpha: []float64{1}, Rows: [][]float64{{1}}}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := map[string]float64{}
	for _, s := range parsePromText(t, string(raw)) {
		if strings.HasPrefix(s.name, "rpcd_fit") {
			got[s.name+"{"+s.labels+"}"] = s.value
		}
	}
	for key, want := range map[string]float64{
		`rpcd_fits_total{converged="true"}`:  converged,
		`rpcd_fits_total{converged="false"}`: unconverged,
		`rpcd_fit_iterations_total{}`:        iterations,
	} {
		if v, ok := got[key]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}
}

func checkHistogram(t *testing.T, byName map[string][]promSample, fam string) {
	t.Helper()
	series := map[string][]promSample{}
	for _, s := range byName[fam+"_bucket"] {
		key := stripLe(t, s.labels)
		series[key] = append(series[key], s)
	}
	counts := map[string]float64{}
	for _, s := range byName[fam+"_count"] {
		counts[s.labels] = s.value
	}
	if len(series) == 0 {
		t.Errorf("%s: no bucket series", fam)
	}
	for key, buckets := range series {
		prevLe := -1.0
		prevCum := -1.0
		var infCum float64
		sawInf := false
		for _, b := range buckets {
			le := leOf(t, b.labels)
			if sawInf {
				t.Errorf("%s{%s}: bucket after +Inf", fam, key)
			}
			if le == "+Inf" {
				sawInf = true
				infCum = b.value
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q", fam, le)
				}
				if f <= prevLe {
					t.Errorf("%s{%s}: le %v not increasing after %v", fam, key, f, prevLe)
				}
				prevLe = f
			}
			if b.value < prevCum {
				t.Errorf("%s{%s}: cumulative count decreased: %v after %v", fam, key, b.value, prevCum)
			}
			prevCum = b.value
		}
		if !sawInf {
			t.Errorf("%s{%s}: no +Inf bucket", fam, key)
			continue
		}
		if c, ok := counts[key]; !ok || c != infCum {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", fam, key, infCum, c)
		}
	}
}

// stripLe removes the le label pair, returning the residual label text that
// identifies the series (matches how _count is labelled).
func stripLe(t *testing.T, labels string) string {
	t.Helper()
	var rest []string
	for _, pair := range splitLabels(t, labels) {
		if !strings.HasPrefix(pair, "le=") {
			rest = append(rest, pair)
		}
	}
	return strings.Join(rest, ",")
}

func leOf(t *testing.T, labels string) string {
	t.Helper()
	for _, pair := range splitLabels(t, labels) {
		if v, ok := strings.CutPrefix(pair, "le="); ok {
			u, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("bad le quoting %q", v)
			}
			return u
		}
	}
	t.Fatalf("bucket without le: %q", labels)
	return ""
}

// TestObsEndpointsConcurrentWithTraffic hammers /statusz and /metrics while
// models are installed, scored against, and deleted — the torn-read /
// race-cleanliness check (meaningful under -race).
func TestObsEndpointsConcurrentWithTraffic(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fit := fitModel(t, ts, "churn")
	ruleResp, err := http.Get(ts.URL + "/v1/models/" + fit.Model.ID + "/rule")
	if err != nil {
		t.Fatal(err)
	}
	ruleDoc, _ := io.ReadAll(ruleResp.Body)
	ruleResp.Body.Close()
	if len(ruleDoc) == 0 {
		t.Fatal("empty rule document")
	}

	const iters = 40
	var wg sync.WaitGroup
	for _, url := range []string{ts.URL + "/statusz", ts.URL + "/statusz?format=html", ts.URL + "/metrics"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("%s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(url)
	}
	wg.Add(1)
	go func() { // score traffic against the stable model
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp := postJSON(t, ts.URL+"/v1/models/churn-v1/score", ScoreRequest{Rows: trainingRows(4)})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Add(1)
	go func() { // install/evict churn via rule upload + delete
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			resp := postJSON(t, ts.URL+"/v1/models", FitRequest{
				Name: "ephemeral",
				Rule: json.RawMessage(ruleDoc),
			})
			var fr FitResponse
			json.NewDecoder(resp.Body).Decode(&fr)
			resp.Body.Close()
			if fr.Model.ID != "" {
				req, _ := http.NewRequest("DELETE", ts.URL+"/v1/models/"+fr.Model.ID, nil)
				dresp, err := http.DefaultClient.Do(req)
				if err == nil {
					dresp.Body.Close()
				}
			}
		}
	}()
	wg.Wait()
}

// BenchmarkMetricsObserve pins the sharded-atomic fast path of the request
// metrics: concurrent Observe calls on one route must not contend on a
// global mutex nor allocate.
func BenchmarkMetricsObserve(b *testing.B) {
	m := NewMetrics()
	rs := m.Route("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		key := uint64(0)
		for pb.Next() {
			key++
			rs.Observe(key, http.StatusOK, 3*time.Millisecond)
		}
	})
}
