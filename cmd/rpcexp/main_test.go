package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	dir := t.TempDir()
	for _, exp := range []string{"table1", "fig2", "fig4", "fig5", "degree", "scaling"} {
		var buf bytes.Buffer
		if err := run([]string{"-exp", exp, "-out", dir}, &buf); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(buf.String(), "==== "+exp+" ====") {
			t.Errorf("%s: banner missing", exp)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// "projector" was the grid-Newton vs quintic-roots ablation, removed
	// with the quintic solver.
	for _, exp := range []string{"nope", "projector"} {
		var buf bytes.Buffer
		err := run([]string{"-exp", exp}, &buf)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: err %v, want unknown experiment", exp, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-exp %s: printed %q before failing", exp, buf.String())
		}
	}
}

// TestRunHelp: -h prints the usage, naming every experiment id, and is
// not an error, so the command exits 0.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var buf bytes.Buffer
		if err := run([]string{arg}, &buf); err != nil {
			t.Fatalf("%s: %v", arg, err)
		}
		if !strings.Contains(buf.String(), experimentIDs()) {
			t.Errorf("%s: usage does not list the experiment ids: %q", arg, buf.String())
		}
		if strings.Contains(buf.String(), "====") {
			t.Errorf("%s: ran an experiment", arg)
		}
	}
}

func TestRunWritesSVG(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig4", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig4-shapes.svg") {
		t.Errorf("SVG path not reported: %s", buf.String())
	}
}
