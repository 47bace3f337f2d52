// Command bench measures rpcd end to end on four workloads and, with
// --trace 1, replays the same payloads through each layer of rpcd's
// serving stack.
//
// Run it from the repository root; bench/run.sh builds and starts it:
//
//	bash bench/run.sh --workload score-small --seed 1 --seconds 20 --trace 0
//
// It builds ./cmd/rpcd, starts real rpcd processes on loopback, drives the
// workload, checks every answer, and prints each metric as
// "workload metric value unit", then one JSON line with the result. See
// bench/README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// buildDir holds the builds and the scratch files of a run, relative to
	// the repository root.
	buildDir = ".bench_build"
	// warmup runs before every measured window, so connections, pools and
	// caches are filled when timing starts.
	warmup = 3 * time.Second
	// setups is how often a run sets its nodes up to time set-up.
	setups = 9
)

// endToEnd and perLayer name the metrics the result line carries with
// --trace 0 and --trace 1; BENCHMARK.json declares the same names.
var (
	endToEnd = []string{"setup_s", "rows_per_s_rel", "p50_rel", "cpu_per_req_rel"}
	perLayer = []string{
		"client.request_ms", "server.serve_http_ms", "net.self_ms", "registry.lookup_us",
		"pool.score_frame_ms", "core.score_frame_ms", "core.ns_per_row", "pool.speedup",
		"server.self_ms", "http.req_bytes", "http.resp_bytes", "cluster.forward_ms",
		"cluster.forward_self_ms", "client.fit_ms", "server.fit_serve_ms", "core.fit_ms",
		"core.fit_iterations", "core.fit_warm_hit_rate", "core.fit_gemm_ms", "core.fit_seed_ms",
		"core.fit_refine_ms", "core.fit_other_ms", "registry.put_ms", "server.fit_self_ms",
		"net.fit_self_ms", "setup.ready_ms", "setup.fit_ms", "trace.overhead_pct",
		"ladder.residual_pct",
	}
)

func main() {
	if len(os.Args) > 1 {
		if code, ok := runChild(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); ok {
			os.Exit(code)
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: score-small, score-bulk, fit-mixed or forwarded")
	seed := fs.Int64("seed", 1, "seed of every generated payload")
	seconds := fs.Int("seconds", 20, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "0 measures rpcd end to end; 1 runs the traced layer ladder")
	spans := fs.String("spans", filepath.Join(buildDir, "spans.json"), "file --trace 1 writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
		err = errors.New("--trace takes 0 or 1 and --seconds a positive number")
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	printHeader(stdout, w.name, *seed, *seconds, *trace, procs)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bin, err := buildRPCD(ctx, buildDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	tm := timing{warmup: warmup, measure: time.Duration(*seconds) * time.Second, setups: setups}
	start := subprocesses(bin, dir, procs)
	var rep *report
	gated := endToEnd
	if *trace == 0 {
		rep, err = runWorkload(ctx, w, *seed, tm, start)
	} else {
		gated = perLayer
		rep, err = runLadder(ctx, w, *seed, tm, start, dir, *spans)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printReport(stdout, w.name, rep, gated); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d requests failed; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
		return 1
	}
	return 0
}

// printHeader records what the numbers depend on besides the code.
func printHeader(out io.Writer, name string, seed int64, seconds, trace, procs int) {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%d warmup=%s trace=%d\n", name, seed, seconds, warmup, trace)
	fmt.Fprintf(out, "# nproc=%d gomaxprocs=%d go=%s kernel=%s rev=%s\n",
		procs, runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)), revision())
}

// revision names the checked-out commit, with "+dirty" for uncommitted
// changes, or "unknown" outside a git work tree. The search for the work
// tree stops at the current directory.
func revision() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"--no-optional-locks"}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown"
	}
	if st, err := git("status", "--porcelain"); err != nil || st != "" {
		rev += "+dirty"
	}
	return rev
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every entry as a line and then the result line, which
// carries the gated metrics.
func printReport(out io.Writer, workload string, rep *report, gated []string) error {
	for _, e := range rep.entries {
		line := fmt.Sprintf("%s %s %.6g %s", workload, e.name, e.value, e.unit)
		if e.samples > 0 {
			line += fmt.Sprintf(" n=%d", e.samples)
		}
		fmt.Fprintln(out, line)
	}
	metrics := make(map[string]metric, len(gated))
	for _, name := range gated {
		e, ok := rep.get(name)
		if !ok || math.IsNaN(e.value) || math.IsInf(e.value, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		metrics[name] = metric{Value: e.value, Unit: e.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}
