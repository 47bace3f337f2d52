// Command rpcload is a minimal load generator for a running rpcd: it
// storms one model's /score endpoint with concurrent senders and writes a
// latency-histogram JSON artifact, so serving latency under load becomes a
// tracked number next to BENCH_BASELINE.json rather than an anecdote.
//
// Usage:
//
//	rpcload -url http://localhost:8080 -model wine-v1 -duration 30s \
//	        -concurrency 8 -rows 100 -out rpcload_hist.json
//
// Each sender posts scoring batches in a loop, waiting -interval between
// sends (0 = back to back). Transport errors never abort the run: the
// sender drops its connection pool and reconnects on the next iteration,
// and the error is counted in the artifact. Row payloads are synthesised
// from the model's own dimension (fetched from GET /v1/models/{id}) with a
// deterministic seed, so two runs against the same server send identical
// traffic.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rpcload:", err)
		os.Exit(1)
	}
}

// bucketBounds are the histogram upper bounds in milliseconds: a log2
// ladder from 250µs to ~8s, wide enough for a local fast path and a
// deadline-bound tail in the same artifact. The last bucket is +Inf.
var bucketBounds = []float64{
	0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
}

// histogram accumulates request latencies under a lock; senders contend
// only for a few nanoseconds per request, far below the network cost of
// the request itself.
type histogram struct {
	mu     sync.Mutex
	counts []int64
	n      int64
	sumMs  float64
	minMs  float64
	maxMs  float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(bucketBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(bucketBounds) && ms > bucketBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.sumMs += ms
	if h.n == 1 || ms < h.minMs {
		h.minMs = ms
	}
	if ms > h.maxMs {
		h.maxMs = ms
	}
	h.mu.Unlock()
}

// quantile interpolates the q-th latency quantile from the bucket counts
// (linear within a bucket, the standard Prometheus histogram estimate).
// The bucket's bracket is clamped to the observed [min, max], so the
// estimate never leaves the range of the samples: a run whose requests all
// took 0.2 ms reports 0.2, not a point interpolated up from 0.
func (h *histogram) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var seen int64
	for i, c := range h.counts {
		if float64(seen+c) >= rank && c > 0 {
			lo := h.minMs
			if i > 0 && bucketBounds[i-1] > lo {
				lo = bucketBounds[i-1]
			}
			hi := h.maxMs
			if i < len(bucketBounds) && bucketBounds[i] < hi {
				hi = bucketBounds[i]
			}
			frac := (rank - float64(seen)) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	return h.maxMs
}

// bucketOut is one histogram row in the artifact; LeMs <= 0 means +Inf.
type bucketOut struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// artifact is the JSON document rpcload writes: the run configuration,
// outcome counters, and the latency distribution of successful requests.
//
// The failure counters keep three causes apart, because they call for
// three different reactions: Errors are transport failures (the server or
// network is broken), Shed counts 429/503 answers (the server is healthy
// and protecting itself — expected when the storm exceeds its admission
// limits), and Non2xx is everything else non-2xx (a real bug in the run
// or the server). ByStatus has the full per-status breakdown. Machine
// names the host that generated the load, so artifacts from different
// boxes are not read as like for like.
type artifact struct {
	Machine        machine          `json:"machine"`
	URL            string           `json:"url"`
	Model          string           `json:"model"`
	Concurrency    int              `json:"concurrency"`
	RowsPerRequest int              `json:"rows_per_request"`
	IntervalMs     float64          `json:"interval_ms"`
	DurationMs     float64          `json:"duration_ms"`
	Requests       int64            `json:"requests"`
	Errors         int64            `json:"errors"`
	Shed           int64            `json:"shed"`
	Non2xx         int64            `json:"non_2xx"`
	ByStatus       map[string]int64 `json:"by_status,omitempty"`
	Reconnects     int64            `json:"reconnects"`
	MinMs          float64          `json:"min_ms"`
	MeanMs         float64          `json:"mean_ms"`
	MaxMs          float64          `json:"max_ms"`
	P50Ms          float64          `json:"p50_ms"`
	P95Ms          float64          `json:"p95_ms"`
	P99Ms          float64          `json:"p99_ms"`
	Histogram      []bucketOut      `json:"histogram"`
}

// machine is the load generator's host: logical CPUs (what nproc counts),
// GOMAXPROCS, the Go version, and the CPU model.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func thisMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel("/proc/cpuinfo"),
	}
}

// cpuModel returns the first "model name" entry of a /proc/cpuinfo-format
// file, or "unknown" when the file is unreadable or has none (non-Linux
// hosts, some ARM kernels).
func cpuModel(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if v := strings.TrimSpace(val); ok && v != "" && strings.TrimSpace(key) == "model name" {
			return v
		}
	}
	return "unknown"
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rpcload", flag.ContinueOnError)
	fs.SetOutput(out)
	baseURL := fs.String("url", "http://localhost:8080", "base URL of the rpcd to load")
	model := fs.String("model", "", "model id to score (e.g. wine-v1); required")
	concurrency := fs.Int("concurrency", 4, "concurrent senders")
	rows := fs.Int("rows", 100, "rows per scoring request")
	interval := fs.Duration("interval", 0, "pause between sends per sender (0 = back to back)")
	duration := fs.Duration("duration", 10*time.Second, "how long to send")
	deadlineMs := fs.Int("deadline-ms", 0, "X-Deadline-Ms to attach to each request (0 = none)")
	seed := fs.Int64("seed", 1, "seed for the synthesised row payloads")
	outPath := fs.String("out", "rpcload_hist.json", "latency-histogram artifact path (empty = stdout only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *model == "" {
		return fmt.Errorf("-model is required")
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1, got %d", *concurrency)
	}
	if *rows < 1 {
		return fmt.Errorf("-rows must be at least 1, got %d", *rows)
	}
	base := strings.TrimRight(*baseURL, "/")

	dim, err := fetchDim(base, *model)
	if err != nil {
		return err
	}
	body := buildBody(dim, *rows, *seed)
	target := base + "/v1/models/" + *model + "/score"

	hist := newHistogram()
	var errors, shed, non2xx, reconnects atomic.Int64
	var statusMu sync.Mutex
	byStatus := make(map[string]int64)
	stopAt := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for s := 0; s < *concurrency; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each sender owns its transport so a reconnect (dropping
			// pooled connections after a transport error) never disturbs
			// the other senders.
			tr := &http.Transport{}
			client := &http.Client{Transport: tr}
			defer tr.CloseIdleConnections()
			for time.Now().Before(stopAt) {
				req, err := http.NewRequest(http.MethodPost, target, strings.NewReader(body))
				if err != nil {
					errors.Add(1)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if *deadlineMs > 0 {
					req.Header.Set("X-Deadline-Ms", strconv.Itoa(*deadlineMs))
				}
				start := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					errors.Add(1)
					reconnects.Add(1)
					tr.CloseIdleConnections() // reconnect on the next send
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					statusMu.Lock()
					byStatus[strconv.Itoa(resp.StatusCode)]++
					statusMu.Unlock()
					switch {
					case resp.StatusCode >= 200 && resp.StatusCode < 300:
						hist.observe(time.Since(start))
					case resp.StatusCode == http.StatusTooManyRequests ||
						resp.StatusCode == http.StatusServiceUnavailable:
						// An overloaded-but-healthy server shedding load is a
						// different outcome from a broken one.
						shed.Add(1)
					default:
						non2xx.Add(1)
					}
				}
				if *interval > 0 {
					time.Sleep(*interval)
				}
			}
		}()
	}
	wg.Wait()

	hist.mu.Lock()
	art := artifact{
		Machine:        thisMachine(),
		URL:            base,
		Model:          *model,
		Concurrency:    *concurrency,
		RowsPerRequest: *rows,
		IntervalMs:     float64(*interval) / float64(time.Millisecond),
		DurationMs:     float64(*duration) / float64(time.Millisecond),
		Requests:       hist.n,
		Errors:         errors.Load(),
		Shed:           shed.Load(),
		Non2xx:         non2xx.Load(),
		ByStatus:       byStatus,
		Reconnects:     reconnects.Load(),
		MinMs:          hist.minMs,
		MaxMs:          hist.maxMs,
	}
	if hist.n > 0 {
		art.MeanMs = hist.sumMs / float64(hist.n)
	}
	for i, c := range hist.counts {
		le := 0.0 // +Inf bucket
		if i < len(bucketBounds) {
			le = bucketBounds[i]
		}
		art.Histogram = append(art.Histogram, bucketOut{LeMs: le, Count: c})
	}
	hist.mu.Unlock()
	art.P50Ms = hist.quantile(0.50)
	art.P95Ms = hist.quantile(0.95)
	art.P99Ms = hist.quantile(0.99)

	doc, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "rpcload: %d requests, %d errors, %d shed, %d non-2xx | p50 %.2fms p95 %.2fms p99 %.2fms\n",
		art.Requests, art.Errors, art.Shed, art.Non2xx, art.P50Ms, art.P95Ms, art.P99Ms)
	if *outPath != "" {
		fmt.Fprintf(out, "rpcload: histogram written to %s\n", *outPath)
	}
	return nil
}

// fetchDim asks the server for the model's attribute dimension so the
// synthesised rows are always the right width.
func fetchDim(base, model string) (int, error) {
	resp, err := http.Get(base + "/v1/models/" + model)
	if err != nil {
		return 0, fmt.Errorf("fetch model %s: %w", model, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fetch model %s: status %d: %s", model, resp.StatusCode, raw)
	}
	var meta struct {
		Dim int `json:"dim"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return 0, fmt.Errorf("fetch model %s: %w", model, err)
	}
	if meta.Dim < 1 {
		return 0, fmt.Errorf("fetch model %s: server reported dim %d", model, meta.Dim)
	}
	return meta.Dim, nil
}

// buildBody synthesises one deterministic scoring request body of the
// given shape; every sender reuses the same bytes.
func buildBody(dim, rows int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(`{"rows":[`)
	for r := 0; r < rows; r++ {
		if r > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for c := 0; c < dim; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.4f", rng.Float64()*10)
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.String()
}
