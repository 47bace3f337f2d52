package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpcrank/internal/order"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 100, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded rule must score identically.
	for i := 0; i < 20; i++ {
		x := xs[i*5]
		if got, want := loaded.Score(x), m.Score(x); got != want {
			t.Fatalf("row %d: loaded score %.12f vs original %.12f", i, got, want)
		}
	}
	if loaded.Alpha.Dim() != 3 || loaded.Curve.Degree() != 3 {
		t.Errorf("loaded model shape wrong")
	}
	if !loaded.StrictlyMonotone() {
		t.Errorf("loaded model lost monotonicity")
	}
}

func TestSaveUnfitted(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Model{}).Save(&buf); err == nil {
		t.Errorf("saving an unfitted model should error")
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"garbage", "not json"},
		{"bad version", `{"version": 99}`},
		{"bad alpha", `{"version":1,"alpha":[2],"control_points":[[0],[0.5],[1]],"norm_min":[0],"norm_max":[1]}`},
		{"too few points", `{"version":1,"alpha":[1],"control_points":[[0]],"norm_min":[0],"norm_max":[1]}`},
		{"dim mismatch", `{"version":1,"alpha":[1,1],"control_points":[[0],[0.5],[1]],"norm_min":[0,0],"norm_max":[1,1]}`},
		{"nan point", `{"version":1,"alpha":[1],"control_points":[[0],["NaN"],[1]],"norm_min":[0],"norm_max":[1]}`},
		{"bad norm dims", `{"version":1,"alpha":[1],"control_points":[[0],[0.5],[1]],"norm_min":[0,1],"norm_max":[1]}`},
		{"empty norm range", `{"version":1,"alpha":[1],"control_points":[[0],[0.5],[1]],"norm_min":[1],"norm_max":[1]}`},
		{"proj_tol above 1", `{"version":1,"alpha":[1],"control_points":[[0],[0.5],[1]],"norm_min":[0],"norm_max":[1],"projector":"gss","proj_tol":1.5}`},
		{"negative proj_tol", `{"version":1,"alpha":[1],"control_points":[[0],[0.5],[1]],"norm_min":[0],"norm_max":[1],"proj_tol":-1e-10}`},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// identityRule is the rule document of the degree-k identity curve in two
// dimensions, Pᵣ = (r/k, r/k), over the unit normaliser.
func identityRule(k int) string {
	pts := make([][]float64, k+1)
	for r := range pts {
		v := float64(r) / float64(k)
		pts[r] = []float64{v, v}
	}
	doc, err := json.Marshal(map[string]any{
		"version": 1, "alpha": []float64{1, 1}, "control_points": pts,
		"norm_min": []float64{0, 0}, "norm_max": []float64{1, 1},
	})
	if err != nil {
		panic(err)
	}
	return string(doc)
}

// TestLoadDegreeCap: Load takes exactly the degrees Fit produces, 2 to 6.
// The high-degree identity curves are the measured cases the compiled
// scorer gets wrong (off by 1.1e-7 at degree 23, 7.9e-4 at 31, 0.34 at 47
// and 1.0 at 63); degree 1, a segment Fit never produces, is refused too.
func TestLoadDegreeCap(t *testing.T) {
	for _, k := range []int{1, 7, 23, 31, 47, 63} {
		if _, err := Load(strings.NewReader(identityRule(k))); err == nil {
			t.Errorf("degree %d identity rule loaded, want an error", k)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("(degree %d)", k)) {
			t.Errorf("degree %d: error %q does not name the degree", k, err)
		}
	}
	for k := minDegree; k <= maxDegree; k++ {
		m, err := Load(strings.NewReader(identityRule(k)))
		if err != nil {
			t.Fatalf("degree %d identity rule: %v", k, err)
		}
		// On the identity curve the row (v, v) projects to s = v.
		for _, v := range []float64{0.1, 0.5, 0.9} {
			if s := m.Score([]float64{v, v}); math.Abs(s-v) > 1e-12 {
				t.Errorf("degree %d: row (%v, %v) scored %v", k, v, v, s)
			}
		}
	}
}

// TestLoadProjectorSelection: "quintic" loads as ProjectorQuintic; every
// other projector name — "newton", the retired "gss" and "brent", an
// unknown one, or none — loads as ProjectorNewton.
func TestLoadProjectorSelection(t *testing.T) {
	base := `{"version":1,"alpha":[1],"control_points":[[0],[0.3],[0.7],[1]],"norm_min":[0],"norm_max":[1]%s}`
	for spec, want := range map[string]Projector{
		`,"projector":"newton"`:  ProjectorNewton,
		`,"projector":"gss"`:     ProjectorNewton,
		`,"projector":"brent"`:   ProjectorNewton,
		`,"projector":"quintic"`: ProjectorQuintic,
		`,"projector":"bogus"`:   ProjectorNewton,
		``:                       ProjectorNewton,
	} {
		m, err := Load(strings.NewReader(fmt.Sprintf(base, spec)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if m.opts.Projector != want {
			t.Errorf("%s: projector %v, want %v", spec, m.opts.Projector, want)
		}
	}
}

// TestLoadLegacyDocuments holds the committed documents in testdata/legacy
// — fitted models saved with the gss, brent, newton and quintic projectors
// and hand-written rules (a gss rule with proj_tol, no projector, an
// unknown projector) — to the scores recorded in
// testdata/legacy_scores.json, which were recorded when Load still told gss
// and brent apart. Each must load, score its probe rows bit-identically
// through Scorer.Score and Model.Score, and round-trip Save → Load → Save
// byte-stably without writing proj_tol.
func TestLoadLegacyDocuments(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_scores.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixture map[string]struct {
		Rows   [][]float64 `json:"rows"`
		Scores []float64   `json:"scores"`
	}
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob("testdata/legacy/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(fixture) {
		t.Fatalf("%d legacy documents but %d fixture entries", len(paths), len(fixture))
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			probe, ok := fixture[name]
			if !ok || len(probe.Rows) == 0 || len(probe.Rows) != len(probe.Scores) {
				t.Fatalf("no usable fixture entry for %s", name)
			}
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Load(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			wantProj := ProjectorNewton
			if strings.Contains(string(doc), `"quintic"`) {
				wantProj = ProjectorQuintic
			}
			if m.opts.Projector != wantProj {
				t.Errorf("projector %v, want %v", m.opts.Projector, wantProj)
			}
			sc := m.Compile()
			for i, x := range probe.Rows {
				if got := sc.Score(x); got != probe.Scores[i] {
					t.Errorf("row %d: Scorer.Score %.17g, recorded %.17g", i, got, probe.Scores[i])
				}
				if got := m.Score(x); got != probe.Scores[i] {
					t.Errorf("row %d: Model.Score %.17g, recorded %.17g", i, got, probe.Scores[i])
				}
			}
			var first, second bytes.Buffer
			if err := m.Save(&first); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(first.String(), "proj_tol") {
				t.Errorf("Save wrote proj_tol:\n%s", first.String())
			}
			again, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := again.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("Save → Load → Save changed the document:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
			}
		})
	}
}
