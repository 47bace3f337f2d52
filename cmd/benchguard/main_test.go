package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: rpcrank
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScoreOne 	 9931088	       140.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkScoreOne 	 8001382	       160.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkServerScoreBatch/rows=10000     	      54	  8000000 ns/op	  22.45 MB/s	    391923 rows/s	 5463676 B/op	   40314 allocs/op
PASS
ok  	rpcrank	20.677s
`

func TestParseBenchReduces(t *testing.T) {
	results, raw, _, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 3 {
		t.Fatalf("raw lines = %d, want 3", len(raw))
	}
	so, ok := results["BenchmarkScoreOne"]
	if !ok {
		t.Fatal("BenchmarkScoreOne missing")
	}
	// The median of 140 and 160, and the quartiles between them.
	if so.NsPerOp != 150 || so.NsQ1 != 145 || so.NsQ3 != 155 {
		t.Errorf("median %v quartiles %v/%v, want 150 and 145/155", so.NsPerOp, so.NsQ1, so.NsQ3)
	}
	if so.AllocsPerOp != 0 || so.Runs != 2 {
		t.Errorf("ScoreOne reduced to %+v", so)
	}
	sb, ok := results["BenchmarkServerScoreBatch/rows=10000"]
	if !ok {
		t.Fatal("sub-benchmark missing (CPU suffix handling)")
	}
	if sb.AllocsPerOp != 40314 {
		t.Errorf("allocs %d, want 40314", sb.AllocsPerOp)
	}
}

// TestMachineStamp: -update records the bench output's goos/goarch/cpu
// headers and GOMAXPROCS (1 without a -N suffix) in the baseline, and a
// comparison names both machines on its first line — "unrecorded" for a
// baseline without a stamp — without any gate depending on them.
func TestMachineStamp(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_BASELINE.json")
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-update", "-baseline", baseline, benchTxt}, &out); err != nil {
		t.Fatalf("update: %v", err)
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	want := Machine{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOMAXPROCS: []int{1},
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	if base.Machine == nil || !reflect.DeepEqual(*base.Machine, want) {
		t.Fatalf("recorded machine %+v, want %+v", base.Machine, want)
	}

	// A run at GOMAXPROCS 2 on another CPU: both stamps on the first line.
	other := strings.ReplaceAll(sampleBench, "Intel(R) Xeon(R) Processor @ 2.10GHz", "AMD EPYC 7B13")
	other = strings.ReplaceAll(other, "BenchmarkScoreOne ", "BenchmarkScoreOne-2 ")
	other = strings.ReplaceAll(other, "rows=10000 ", "rows=10000-2 ")
	otherTxt := filepath.Join(dir, "other.txt")
	if err := os.WriteFile(otherTxt, []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, otherTxt}, &out); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	here := fmt.Sprintf("%s, nproc %d", runtime.Version(), runtime.NumCPU())
	wantFirst := "benchguard: baseline machine: linux/amd64, Intel(R) Xeon(R) Processor @ 2.10GHz, GOMAXPROCS 1, " + here + "; " +
		"this run: linux/amd64, AMD EPYC 7B13, GOMAXPROCS 2, " + here
	if first != wantFirst {
		t.Errorf("first line\n%q\nwant\n%q", first, wantFirst)
	}

	// A baseline from before the stamp still compares, as "unrecorded".
	base.Machine = nil
	legacy, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, benchTxt}, &out); err != nil {
		t.Fatalf("compare against an unstamped baseline: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(out.String(), "benchguard: baseline machine: unrecorded; this run: linux/amd64") {
		t.Errorf("unstamped baseline not reported as unrecorded:\n%s", out.String())
	}
}

func TestUpdateThenCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_BASELINE.json")
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-update", "-baseline", baseline, benchTxt}, &out); err != nil {
		t.Fatalf("update: %v", err)
	}
	// Same numbers compare clean.
	if err := run([]string{"-baseline", baseline, benchTxt}, &out); err != nil {
		t.Fatalf("self-compare: %v\n%s", err, out.String())
	}
	// A 3x slowdown against max-ratio 2 fails.
	slow := strings.ReplaceAll(sampleBench, "140.0 ns/op", "450.0 ns/op")
	slow = strings.ReplaceAll(slow, "160.0 ns/op", "450.0 ns/op")
	slowTxt := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowTxt, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-max-ratio", "2.0", slowTxt}, &out); err == nil {
		t.Fatalf("3x regression passed:\n%s", out.String())
	}
	// An allocation regression on an allocation-free baseline fails even
	// with acceptable timing.
	allocy := strings.ReplaceAll(sampleBench, "0 B/op	       0 allocs/op", "64 B/op	       2 allocs/op")
	allocTxt := filepath.Join(dir, "alloc.txt")
	if err := os.WriteFile(allocTxt, []byte(allocy), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, allocTxt}, &out); err == nil {
		t.Fatalf("alloc regression passed:\n%s", out.String())
	}
	// -emit-text replays the stored raw lines for benchstat.
	out.Reset()
	if err := run([]string{"-emit-text", "-baseline", baseline}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkScoreOne") {
		t.Errorf("emit-text output missing bench lines:\n%s", out.String())
	}
}

// TestCompareAllocAndPinnedGates covers the strict gates: any allocs/op
// increase over a nonzero baseline fails (modulo -alloc-slack), and pinned
// benches fail at -pinned-max-ratio while unpinned ones ride the loose
// -max-ratio.
func TestCompareAllocAndPinnedGates(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_BASELINE.json")
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-update", "-baseline", baseline, benchTxt}, &out); err != nil {
		t.Fatalf("update: %v", err)
	}

	// +2 allocs over the 40314-alloc baseline fails without slack and
	// passes with -alloc-slack 2.
	allocy := strings.ReplaceAll(sampleBench, "40314 allocs/op", "40316 allocs/op")
	allocTxt := filepath.Join(dir, "alloc.txt")
	if err := os.WriteFile(allocTxt, []byte(allocy), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, allocTxt}, &out); err == nil {
		t.Fatalf("nonzero-baseline alloc regression passed:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-alloc-slack", "2", allocTxt}, &out); err != nil {
		t.Fatalf("alloc increase within slack failed: %v\n%s", err, out.String())
	}

	// A 30% slowdown passes the loose default gate but fails once the
	// benchmark is pinned to 1.15.
	slow := strings.ReplaceAll(sampleBench, "140.0 ns/op", "190.0 ns/op")
	slow = strings.ReplaceAll(slow, "160.0 ns/op", "190.0 ns/op")
	slowTxt := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowTxt, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, slowTxt}, &out); err != nil {
		t.Fatalf("30%% slowdown failed the loose gate: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-pinned", "^BenchmarkScoreOne$", slowTxt}, &out); err == nil {
		t.Fatalf("pinned 30%% regression passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "pinned") {
		t.Errorf("output does not mark the pinned bench:\n%s", out.String())
	}
	// The pinned regexp must not drag other benches to the tight gate.
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-pinned", "^BenchmarkServerScoreBatch", slowTxt}, &out); err != nil {
		t.Fatalf("unpinned 30%% slowdown failed: %v\n%s", err, out.String())
	}
	// A malformed regexp is a usage error, not a silent pass.
	if err := run([]string{"-baseline", baseline, "-pinned", "([", slowTxt}, &out); err == nil {
		t.Fatal("bad -pinned regexp accepted")
	}

	// Pinned benchmarks keep their own alloc budget: a global -alloc-slack
	// must not excuse a pinned bench's extra allocation, while raising
	// -pinned-alloc-slack does.
	out.Reset()
	if err := run([]string{
		"-baseline", baseline, "-alloc-slack", "2",
		"-pinned", "^BenchmarkServerScoreBatch", allocTxt,
	}, &out); err == nil {
		t.Fatalf("pinned alloc regression excused by global slack:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{
		"-baseline", baseline,
		"-pinned", "^BenchmarkServerScoreBatch", "-pinned-alloc-slack", "2", allocTxt,
	}, &out); err != nil {
		t.Fatalf("pinned alloc increase within pinned slack failed: %v\n%s", err, out.String())
	}
}

func TestCompareToleratesMissingAndNew(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "b.json")
	a := filepath.Join(dir, "a.txt")
	if err := os.WriteFile(a, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-update", "-baseline", baseline, a}, &out); err != nil {
		t.Fatal(err)
	}
	// A run with an extra benchmark and one missing must still pass.
	other := `BenchmarkScoreOne 	 100	 150.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkBrandNew 	 100	 99.0 ns/op
`
	b := filepath.Join(dir, "b.txt")
	if err := os.WriteFile(b, []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, b}, &out); err != nil {
		t.Fatalf("compare with missing/new benchmarks: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no baseline") || !strings.Contains(out.String(), "missing from this run") {
		t.Errorf("expected informational lines:\n%s", out.String())
	}
}

// fiveRuns renders five -count runs of one benchmark at the given ns/op.
func fiveRuns(name string, ns ...float64) string {
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "%s \t 100\t %.1f ns/op\t 0 B/op\t 0 allocs/op\n", name, v)
	}
	return b.String()
}

// TestCompareMedianIgnoresOutlier: one slow run in five moves the median
// and the quartiles not at all, so a pinned bench whose other runs match
// the baseline passes; the geometric mean (1.58× here) would have failed it.
func TestCompareMedianIgnoresOutlier(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "b.json")
	quiet := filepath.Join(dir, "quiet.txt")
	noisy := filepath.Join(dir, "noisy.txt")
	if err := os.WriteFile(quiet, []byte(fiveRuns("BenchmarkFit", 100, 100, 100, 100, 100)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(noisy, []byte(fiveRuns("BenchmarkFit", 100, 100, 1000, 100, 100)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-update", "-baseline", baseline, quiet}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-pinned", "^BenchmarkFit$", noisy}, &out); err != nil {
		t.Fatalf("one outlier in five failed the pinned gate: %v\n%s", err, out.String())
	}
}

// TestCompareRefusesWideSpread: when the runs scatter wider than the bound
// they are judged against, benchguard gives no verdict — neither a pass
// nor a regression — and fails saying so; the same runs still get a
// verdict under a bound wide enough to resolve them, and a wide baseline
// is refused as well.
func TestCompareRefusesWideSpread(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "b.json")
	quiet := filepath.Join(dir, "quiet.txt")
	wide := filepath.Join(dir, "wide.txt")
	// Same median as the baseline, quartiles 80 and 120: a 40% spread.
	if err := os.WriteFile(quiet, []byte(fiveRuns("BenchmarkFit", 99, 100, 100, 100, 101)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wide, []byte(fiveRuns("BenchmarkFit", 60, 80, 100, 120, 140)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-update", "-baseline", baseline, quiet}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run([]string{"-baseline", baseline, "-pinned", "^BenchmarkFit$", wide}, &out)
	if err == nil || !strings.Contains(err.Error(), "no verdict") || !strings.Contains(out.String(), "NO VERDICT") {
		t.Fatalf("a 40%% spread against the 15%% bound got a verdict: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a refused verdict was reported as a regression:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-max-ratio", "2.0", wide}, &out); err != nil {
		t.Fatalf("a 40%% spread against the loose 100%% bound was refused: %v\n%s", err, out.String())
	}
	// The baseline's own spread counts too.
	if err := run([]string{"-update", "-baseline", baseline, wide}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-pinned", "^BenchmarkFit$", quiet}, &out); err == nil ||
		!strings.Contains(err.Error(), "no verdict") {
		t.Fatalf("a wide baseline got a verdict: %v\n%s", err, out.String())
	}
}

// TestRunHelp: -h and -help print the usage and are not an error, so the
// command exits 0 without comparing anything.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var buf bytes.Buffer
		if err := run([]string{arg}, &buf); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
		if !strings.Contains(buf.String(), "-baseline") {
			t.Errorf("%s: usage does not list -baseline: %q", arg, buf.String())
		}
	}
}
