package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"rpcrank/internal/dataset"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_fits.json from the current fits")

// goldenFit is one recorded fit: the rule document Save wrote and the
// iteration count and stop reason of the winning restart.
type goldenFit struct {
	Rule       string `json:"rule"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
}

// goldenTables are the tables the golden file records, fitted at every
// degree Fit accepts.
func goldenTables() []*dataset.Table {
	return []*dataset.Table{dataset.Journals(), dataset.Countries()}
}

// goldenKey names one recorded fit: "<table>/deg=<k>".
func goldenKey(tab *dataset.Table, k int) string { return fmt.Sprintf("%s/deg=%d", tab.Name, k) }

// fitGolden fits tab at degree k with rpcd's fit options (three restarts,
// seed 1) and records the result.
func fitGolden(t *testing.T, tab *dataset.Table, k int) goldenFit {
	t.Helper()
	m, err := FitFrame(tab.Data, Options{Alpha: tab.Alpha, Degree: k, Restarts: 3, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return goldenFit{Rule: buf.String(), Iterations: m.Iterations, Converged: m.Converged}
}

// TestGoldenFits refits journals and countries at degrees 2–6 and compares
// every saved rule byte for byte, and every iteration count and stop
// reason, with testdata/golden_fits.json. A change that moves a fit on
// purpose regenerates the file with
//
//	go test ./internal/core -run TestGoldenFits -update-golden
//
// and says so.
func TestGoldenFits(t *testing.T) {
	const path = "testdata/golden_fits.json"
	if *updateGolden {
		got := map[string]goldenFit{}
		for _, tab := range goldenTables() {
			for k := minDegree; k <= maxDegree; k++ {
				got[goldenKey(tab, k)] = fitGolden(t, tab, k)
			}
		}
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenFit
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if n := len(goldenTables()) * (maxDegree - minDegree + 1); len(want) != n {
		t.Fatalf("golden file has %d fits, want %d", len(want), n)
	}
	for _, tab := range goldenTables() {
		for k := minDegree; k <= maxDegree; k++ {
			key := goldenKey(tab, k)
			t.Run(key, func(t *testing.T) {
				w, ok := want[key]
				if !ok {
					t.Fatalf("not in the golden file")
				}
				g := fitGolden(t, tab, k)
				if g.Rule != w.Rule {
					t.Errorf("saved rule differs:\n got %s\nwant %s", g.Rule, w.Rule)
				}
				if g.Iterations != w.Iterations || g.Converged != w.Converged {
					t.Errorf("%d iterations, converged %v; golden %d, %v", g.Iterations, g.Converged, w.Iterations, w.Converged)
				}
			})
		}
	}
}
