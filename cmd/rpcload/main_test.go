package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rpcrank/internal/registry"
	"rpcrank/internal/server"
)

// startTestServer brings up an in-process rpcd with one fitted model and
// returns its base URL.
func startTestServer(t *testing.T) string {
	t.Helper()
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float64, 32)
	for i := range rows {
		u := float64(i) / float64(len(rows)-1)
		rows[i] = []float64{
			u*8 + rng.Float64()*0.2,
			u*6 + rng.Float64()*0.2,
			(1-u)*7 + rng.Float64()*0.2,
		}
	}
	fit := map[string]any{"name": "load", "alpha": []float64{1, 1, -1}, "rows": rows, "seed": 3}
	doc, _ := json.Marshal(fit)
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", strings.NewReader(string(doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit: status %d", resp.StatusCode)
	}
	return ts.URL
}

func TestRunEmitsHistogramArtifact(t *testing.T) {
	url := startTestServer(t)
	out := filepath.Join(t.TempDir(), "hist.json")
	var buf strings.Builder
	err := run([]string{
		"-url", url,
		"-model", "load-v1",
		"-concurrency", "3",
		"-rows", "16",
		"-duration", "300ms",
		"-interval", "1ms",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, buf.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if art.Requests == 0 {
		t.Fatal("artifact recorded zero requests")
	}
	if art.Errors != 0 || art.Shed != 0 || art.Non2xx != 0 {
		t.Fatalf("clean run recorded %d errors, %d shed, %d non-2xx", art.Errors, art.Shed, art.Non2xx)
	}
	if art.ByStatus["200"] != art.Requests {
		t.Fatalf("by_status = %v, want %d 200s", art.ByStatus, art.Requests)
	}
	var total int64
	for _, b := range art.Histogram {
		total += b.Count
	}
	if total != art.Requests {
		t.Fatalf("histogram counts sum to %d, want %d", total, art.Requests)
	}
	if art.P50Ms <= 0 || art.P99Ms < art.P50Ms {
		t.Fatalf("implausible quantiles: p50=%v p99=%v", art.P50Ms, art.P99Ms)
	}
	if !strings.Contains(buf.String(), "requests") {
		t.Fatalf("missing summary line in output: %q", buf.String())
	}
}

// TestArtifactStampsMachine: the artifact names the host the load came
// from — CPU count, GOMAXPROCS, Go version and CPU model.
func TestArtifactStampsMachine(t *testing.T) {
	url := startTestServer(t)
	out := filepath.Join(t.TempDir(), "hist.json")
	var buf strings.Builder
	if err := run([]string{"-url", url, "-model", "load-v1", "-concurrency", "1", "-rows", "4",
		"-duration", "50ms", "-out", out}, &buf); err != nil {
		t.Fatalf("run: %v (output: %s)", err, buf.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Machine map[string]any `json:"machine"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	want := map[string]any{
		"nproc":      float64(runtime.NumCPU()),
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel("/proc/cpuinfo"),
	}
	if !reflect.DeepEqual(doc.Machine, want) {
		t.Errorf("machine = %v, want %v", doc.Machine, want)
	}
}

func TestCPUModel(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ name, body, want string }{
		{"two", "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n\nprocessor\t: 1\nmodel name\t: Other\n", "Intel(R) Xeon(R) Processor"},
		{"none", "processor\t: 0\nHardware\t: BCM2835\n", "unknown"},
		{"empty", "model name\t:\nmodel name\t: Late\n", "Late"},
	} {
		if got := cpuModel(write(tc.name, tc.body)); got != tc.want {
			t.Errorf("%s: cpuModel = %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := cpuModel(filepath.Join(dir, "missing")); got != "unknown" {
		t.Errorf("missing file: cpuModel = %q, want unknown", got)
	}
}

// TestRunSurvivesServerErrors pins reconnect-on-error: a storm against a
// dead endpoint must complete, counting failures instead of aborting.
func TestRunSurvivesServerErrors(t *testing.T) {
	url := startTestServer(t)
	// Point the senders at a port nobody listens on, but keep the model
	// lookup against the live server so dim discovery succeeds first.
	dim, err := fetchDim(url, "load-v1")
	if err != nil {
		t.Fatal(err)
	}
	if dim != 3 {
		t.Fatalf("dim = %d, want 3", dim)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/score") {
			panic(http.ErrAbortHandler) // kill the connection mid-request
		}
		http.Redirect(w, r, url+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer ts.Close()
	out := filepath.Join(t.TempDir(), "hist.json")
	var buf strings.Builder
	start := time.Now()
	err = run([]string{
		"-url", ts.URL,
		"-model", "load-v1",
		"-concurrency", "2",
		"-rows", "4",
		"-duration", "150ms",
		"-interval", "5ms",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run must survive transport errors, got: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("run hung on a failing endpoint")
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	if art.Errors == 0 {
		t.Fatalf("expected transport errors against an aborting endpoint, got %+v", art)
	}
	if art.Reconnects != art.Errors {
		t.Fatalf("every transport error must trigger a reconnect: errors=%d reconnects=%d", art.Errors, art.Reconnects)
	}
	if art.Shed != 0 {
		t.Fatalf("transport errors must not count as sheds: %+v", art)
	}
}

// TestRunSplitsShedsFromErrors pins the 429/503-vs-error split: a server
// that sheds every request yields a run with Shed == attempts, zero
// transport errors, zero non-2xx, and a per-status breakdown.
func TestRunSplitsShedsFromErrors(t *testing.T) {
	url := startTestServer(t)
	var sheds atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/score") {
			// Alternate the two shed statuses the server's admission
			// control uses.
			code := http.StatusTooManyRequests
			if sheds.Add(1)%2 == 0 {
				code = http.StatusServiceUnavailable
			}
			w.WriteHeader(code)
			return
		}
		http.Redirect(w, r, url+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer ts.Close()
	out := filepath.Join(t.TempDir(), "hist.json")
	var buf strings.Builder
	err := run([]string{
		"-url", ts.URL,
		"-model", "load-v1",
		"-concurrency", "2",
		"-rows", "4",
		"-duration", "150ms",
		"-interval", "5ms",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	if art.Shed == 0 {
		t.Fatalf("shedding server produced no sheds: %+v", art)
	}
	if art.Errors != 0 || art.Non2xx != 0 || art.Requests != 0 {
		t.Fatalf("sheds leaked into other counters: %+v", art)
	}
	if art.ByStatus["429"]+art.ByStatus["503"] != art.Shed {
		t.Fatalf("by_status %v does not account for %d sheds", art.ByStatus, art.Shed)
	}
	if !strings.Contains(buf.String(), "shed") {
		t.Fatalf("summary line missing shed count: %q", buf.String())
	}
}

func TestRunRejectsMissingModel(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-url", "http://localhost:1"}, &buf); err == nil {
		t.Fatal("run without -model must fail")
	}
}

// TestQuantileStaysWithinObservedRange: the bucket interpolation must not
// leave [min, max] of the samples. Every sample sits in the first bucket
// (0–0.25 ms); interpolating from the bucket's 0 floor would report a p50
// of 0.125 ms for requests that all took 0.2 ms.
func TestQuantileStaysWithinObservedRange(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.observe(200 * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.quantile(q); got != 0.2 {
			t.Fatalf("p%v = %v ms, want 0.2 (every sample took 0.2 ms)", q*100, got)
		}
	}

	// Spread samples: every estimate stays inside the observed range, and
	// quantiles stay ordered.
	h = newHistogram()
	for _, us := range []int{300, 350, 420, 900, 1500, 2600, 3100} {
		h.observe(time.Duration(us) * time.Microsecond)
	}
	prev := 0.0
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		got := h.quantile(q)
		if got < h.minMs || got > h.maxMs {
			t.Fatalf("p%v = %v ms outside observed [%v, %v]", q*100, got, h.minMs, h.maxMs)
		}
		if got < prev {
			t.Fatalf("p%v = %v ms below the previous quantile %v", q*100, got, prev)
		}
		prev = got
	}
}

// TestRunHelp: -h and -help print the usage and are not an error, so the
// command exits 0 without loading anything.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var buf bytes.Buffer
		if err := run([]string{arg}, &buf); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
		if !strings.Contains(buf.String(), "-model") {
			t.Errorf("%s: usage does not list -model: %q", arg, buf.String())
		}
	}
}
