// Command benchguard compares `go test -bench` output against a committed
// JSON baseline (BENCH_BASELINE.json) and fails the build when performance
// regresses. Three gates run on every comparison:
//
//   - allocs/op: any benchmark allocating more than its baseline (plus
//     -alloc-slack, default 0) fails — allocation counts are deterministic,
//     so this gate is machine-independent and strict;
//   - pinned ns/op: benchmarks matching the -pinned regexp fail beyond
//     -pinned-max-ratio (default 1.15, i.e. >15% slower) — reserve this for
//     the benches whose numbers the project actively defends. Pinned
//     benchmarks also use -pinned-alloc-slack (default 0) in place of
//     -alloc-slack, so a CI job can loosen the global alloc gate without
//     loosening the defended ones;
//   - ns/op: every matched benchmark fails beyond -max-ratio (default 2.0,
//     loose because CI machines differ from the baseline machine).
//
// The ns/op gates compare medians, and only when the runs can resolve the
// bound: when the interquartile spread of this run's ns/op, or of the
// baseline's, is wider than the bound (ratio − 1) relative to its median,
// benchguard refuses a verdict for that benchmark and fails with "no
// verdict" — a gate that cannot tell 15% from noise must not pass.
//
// Usage:
//
//	benchguard -baseline BENCH_BASELINE.json bench.txt        compare
//	benchguard -update -baseline BENCH_BASELINE.json bench.txt rewrite baseline
//	benchguard -emit-text -baseline BENCH_BASELINE.json        print the baseline's
//	                                                           raw bench lines (for benchstat)
//
// Refreshing the baseline after an intentional performance change:
//
//	go test -bench '<pinned benches>' -benchmem -count 5 -cpu 1 -run '^$' ./... | tee bench.txt
//	go run ./cmd/benchguard -update -baseline BENCH_BASELINE.json bench.txt
//
// (-cpu 1 because allocs/op of the pool-sharded serving benches follows
// GOMAXPROCS, and the comparison strips the -N suffix) and commit the rewritten BENCH_BASELINE.json together with the change
// that moved the numbers, so the diff review sees both.
//
// Multiple -count runs of one benchmark are reduced to the median of ns/op
// with its quartiles (an occasional noisy run moves neither) and the
// maximum allocs/op and B/op (bytes allocated).
//
// -update also stamps the baseline with the machine the numbers came from:
// the goos/goarch/cpu header lines of the bench output, GOMAXPROCS (the
// -N suffix of the benchmark names, 1 when there is none), and the Go
// version and CPU count of the process running benchguard, which the
// documented workflow runs on the same machine right after the benches. A
// comparison prints the baseline's machine and this run's on its first
// line ("unrecorded" for a baseline written before stamping), so a ratio
// is never read without knowing what it compares. The stamp gates nothing.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed BENCH_BASELINE.json document.
type Baseline struct {
	// Note documents how the baseline was produced.
	Note string `json:"note,omitempty"`
	// Benchmarks maps the benchmark name (CPU suffix stripped) to its
	// reduced measurements.
	Benchmarks map[string]Result `json:"benchmarks"`
	// Machine is where the numbers were measured; nil in baselines written
	// before benchguard recorded it.
	Machine *Machine `json:"machine,omitempty"`
	// Raw preserves the original benchmark lines so benchstat can diff a
	// fresh run against the baseline.
	Raw []string `json:"raw,omitempty"`
}

// Machine identifies the environment of one bench run: the goos, goarch
// and cpu header lines go test -bench prints, the distinct GOMAXPROCS
// values of its benchmark lines in ascending order, and the Go version and
// logical CPU count of the machine.
type Machine struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS []int  `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	NumCPU     int    `json:"nproc,omitempty"`
}

// String renders the stamp on one line, or "unrecorded" for a nil or
// empty one.
func (m *Machine) String() string {
	if m == nil {
		return "unrecorded"
	}
	var parts []string
	if m.GOOS != "" || m.GOARCH != "" {
		parts = append(parts, m.GOOS+"/"+m.GOARCH)
	}
	if m.CPU != "" {
		parts = append(parts, m.CPU)
	}
	if len(m.GOMAXPROCS) > 0 {
		procs := make([]string, len(m.GOMAXPROCS))
		for i, p := range m.GOMAXPROCS {
			procs[i] = strconv.Itoa(p)
		}
		parts = append(parts, "GOMAXPROCS "+strings.Join(procs, ","))
	}
	if m.GoVersion != "" {
		parts = append(parts, m.GoVersion)
	}
	if m.NumCPU > 0 {
		parts = append(parts, "nproc "+strconv.Itoa(m.NumCPU))
	}
	if len(parts) == 0 {
		return "unrecorded"
	}
	return strings.Join(parts, ", ")
}

// Result is one benchmark's reduced measurement: the median ns/op over its
// runs with the first and third quartiles (absent in baselines written
// before benchguard recorded them), and the largest allocs/op and B/op.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsQ1        float64 `json:"ns_q1,omitempty"`
	NsQ3        float64 `json:"ns_q3,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Runs        int     `json:"runs"`
}

// spread is the interquartile range of ns/op relative to its median, 0
// when no quartiles are recorded.
func (r Result) spread() float64 {
	if r.NsPerOp <= 0 || r.NsQ3 == 0 {
		return 0
	}
	return (r.NsQ3 - r.NsQ1) / r.NsPerOp
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
var allocsField = regexp.MustCompile(`(\d+) allocs/op`)
var bytesField = regexp.MustCompile(`(\d+) B/op`)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(out)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "baseline JSON file")
	maxRatio := fs.Float64("max-ratio", 2.0, "fail when ns/op exceeds baseline by this factor (CI machines are noisy; keep headroom)")
	pinned := fs.String("pinned", "", "regexp of benchmark names held to -pinned-max-ratio instead of -max-ratio")
	pinnedMaxRatio := fs.Float64("pinned-max-ratio", 1.15, "fail when a pinned benchmark's ns/op exceeds baseline by this factor")
	allocSlack := fs.Int64("alloc-slack", 0, "allowed allocs/op increase over baseline before failing")
	pinnedAllocSlack := fs.Int64("pinned-alloc-slack", 0, "allowed allocs/op increase for -pinned benchmarks (replaces -alloc-slack for them)")
	update := fs.Bool("update", false, "rewrite the baseline from the given bench output")
	emitText := fs.Bool("emit-text", false, "print the baseline's raw bench lines and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	var pinnedRe *regexp.Regexp
	if *pinned != "" {
		var err error
		if pinnedRe, err = regexp.Compile(*pinned); err != nil {
			return fmt.Errorf("bad -pinned regexp: %w", err)
		}
	}

	if *emitText {
		base, err := readBaseline(*baselinePath)
		if err != nil {
			return err
		}
		for _, l := range base.Raw {
			fmt.Fprintln(out, l)
		}
		return nil
	}

	var in io.Reader = os.Stdin
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one bench output file, got %v", fs.Args())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, raw, machine, err := parseBench(in)
	if err != nil {
		return err
	}
	machine.GoVersion = runtime.Version()
	machine.NumCPU = runtime.NumCPU()
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	if *update {
		base := Baseline{
			Note:       "reduced go test -bench output; refresh with: go run ./cmd/benchguard -update -baseline BENCH_BASELINE.json bench.txt",
			Benchmarks: results,
			Machine:    machine,
			Raw:        raw,
		}
		b, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchguard: wrote %d benchmarks to %s\n", len(results), *baselinePath)
		return nil
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchguard: baseline machine: %s; this run: %s\n", base.Machine, machine)
	return compare(out, base, results, gates{
		maxRatio:         *maxRatio,
		pinned:           pinnedRe,
		pinnedMaxRatio:   *pinnedMaxRatio,
		allocSlack:       *allocSlack,
		pinnedAllocSlack: *pinnedAllocSlack,
	})
}

// gates bundles the failure thresholds of one comparison run.
type gates struct {
	maxRatio         float64
	pinned           *regexp.Regexp
	pinnedMaxRatio   float64
	allocSlack       int64
	pinnedAllocSlack int64
}

func readBaseline(path string) (Baseline, error) {
	var base Baseline
	b, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(b, &base); err != nil {
		return base, fmt.Errorf("parsing %s: %w", path, err)
	}
	return base, nil
}

// parseBench reduces bench output to per-name results plus the raw lines,
// and reads the machine stamp from the same output.
func parseBench(r io.Reader) (map[string]Result, []string, *Machine, error) {
	type acc struct {
		ns     []float64
		allocs int64
		bytes  int64
	}
	accs := map[string]*acc{}
	var raw []string
	machine := &Machine{}
	procs := map[int]bool{}
	// header records a "key: value" header line; a multi-package run
	// repeats the headers, and the first one wins.
	header := func(line, key string, dst *string) {
		if v, ok := strings.CutPrefix(line, key+": "); ok && *dst == "" {
			*dst = strings.TrimSpace(v)
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		header(line, "goos", &machine.GOOS)
		header(line, "goarch", &machine.GOARCH)
		header(line, "cpu", &machine.CPU)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil || ns <= 0 {
			continue
		}
		p := 1
		if m[2] != "" {
			p, _ = strconv.Atoi(m[2]) // the regexp admits only digits
		}
		procs[p] = true
		raw = append(raw, line)
		a := accs[m[1]]
		if a == nil {
			a = &acc{}
			accs[m[1]] = a
		}
		a.ns = append(a.ns, ns)
		if am := allocsField.FindStringSubmatch(m[4]); am != nil {
			if v, err := strconv.ParseInt(am[1], 10, 64); err == nil && v > a.allocs {
				a.allocs = v
			}
		}
		if bm := bytesField.FindStringSubmatch(m[4]); bm != nil {
			if v, err := strconv.ParseInt(bm[1], 10, 64); err == nil && v > a.bytes {
				a.bytes = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	for p := range procs {
		machine.GOMAXPROCS = append(machine.GOMAXPROCS, p)
	}
	sort.Ints(machine.GOMAXPROCS)
	out := make(map[string]Result, len(accs))
	for name, a := range accs {
		sort.Float64s(a.ns)
		out[name] = Result{
			NsPerOp:     quantile(a.ns, 0.5),
			NsQ1:        quantile(a.ns, 0.25),
			NsQ3:        quantile(a.ns, 0.75),
			AllocsPerOp: a.allocs,
			BytesPerOp:  a.bytes,
			Runs:        len(a.ns),
		}
	}
	return out, raw, machine, nil
}

// quantile is the q-quantile of the sorted, non-empty v, interpolated
// linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func compare(out io.Writer, base Baseline, results map[string]Result, g gates) error {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		got := results[name]
		want, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(out, "benchguard: %-50s %10.1f ns/op (no baseline)\n", name, got.NsPerOp)
			continue
		}
		ratio := got.NsPerOp / want.NsPerOp
		status := "ok"
		limit := g.maxRatio
		slack := g.allocSlack
		tag := ""
		if g.pinned != nil && g.pinned.MatchString(name) {
			limit = g.pinnedMaxRatio
			slack = g.pinnedAllocSlack
			status = "ok (pinned)"
			tag = " [pinned]"
		}
		if spread := max(got.spread(), want.spread()); spread > limit-1 {
			status = "NO VERDICT" + tag
			failures = append(failures, fmt.Sprintf("%s: interquartile spread %.1f%% of the median is wider than the %.1f%% bound; no verdict%s",
				name, 100*spread, 100*(limit-1), tag))
		} else if ratio > limit {
			status = "REGRESSION" + tag
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%.2fx > %.2fx)%s",
				name, got.NsPerOp, want.NsPerOp, ratio, limit, tag))
		}
		if got.AllocsPerOp > want.AllocsPerOp+slack {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d",
				name, got.AllocsPerOp, want.AllocsPerOp))
		}
		fmt.Fprintf(out, "benchguard: %-50s %10.1f ns/op  baseline %10.1f  ratio %5.2f  %6d B/op (baseline %d)  %s\n",
			name, got.NsPerOp, want.NsPerOp, ratio, got.BytesPerOp, want.BytesPerOp, status)
	}
	for name := range base.Benchmarks {
		if _, ok := results[name]; !ok {
			fmt.Fprintf(out, "benchguard: %-50s missing from this run\n", name)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s) or refused verdict(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
