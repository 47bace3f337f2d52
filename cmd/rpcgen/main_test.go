package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAllDatasets(t *testing.T) {
	for _, name := range []string{"countries", "journals", "table1a", "table1b", "scurve", "crescent", "linear"} {
		var buf bytes.Buffer
		if err := run([]string{"-dataset", name, "-n", "20"}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "object,") {
			t.Errorf("%s: missing CSV header: %.40s", name, out)
		}
		if strings.Count(out, "\n") < 3 {
			t.Errorf("%s: too few rows", name)
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-dataset", "nope"}, &buf); err == nil {
		t.Errorf("unknown dataset should error")
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-dataset", "scurve", "-n", "10", "-seed", "3"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dataset", "scurve", "-n", "10", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed must give identical CSV")
	}
}

// TestRunHelp: -h and -help print the usage and are not an error, so the
// command exits 0 without emitting a dataset.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var buf bytes.Buffer
		if err := run([]string{arg}, &buf); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: emitted %q", arg, buf.String())
		}
	}
}
