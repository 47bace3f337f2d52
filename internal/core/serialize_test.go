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

// TestModelCarriesGridCells: a fitted model projects on the default grid,
// a loaded rule on the grid its document names (the legacy 48-cell rule
// keeps 48), and ServingCopy, Compile and Save carry that grid on.
func TestModelCarriesGridCells(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alpha := order.MustDirection(1, -1)
	xs, _ := genBezierCloud(rng, 40, alpha, 0.05)
	fitted, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("testdata/legacy/rule-unknown-projector.json")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Model
		want int
	}{{"fitted", fitted, defaultGridCells}, {"legacy", legacy, 48}} {
		for path, cells := range map[string]int{
			"model":       c.m.gridCells,
			"ServingCopy": c.m.ServingCopy().gridCells,
			"Compile":     c.m.Compile().eng.cells,
		} {
			if cells != c.want {
				t.Errorf("%s: %s grid %d, want %d", c.name, path, cells, c.want)
			}
		}
		var buf bytes.Buffer
		if err := c.m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var out modelJSON
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.GridCells != c.want {
			t.Errorf("%s: Save wrote grid_cells %d, want %d", c.name, out.GridCells, c.want)
		}
	}
}

// TestLoadIgnoresProjectorName: every projector name — "newton", the
// retired "gss", "brent" and "quintic", an unknown one, or none — loads as
// the one projector, at degrees 2, 3 and 6: the rule scores exactly like
// its "newton" twin and saves to the same bytes.
func TestLoadIgnoresProjectorName(t *testing.T) {
	rules := map[int]string{
		2: `[[0,1],[0.4,0.3],[1,0]]`,
		3: `[[0,1],[0.3,0.6],[0.7,0.2],[1,0]]`,
		6: `[[0,1],[0.1,0.9],[0.3,0.8],[0.5,0.5],[0.6,0.3],[0.8,0.1],[1,0]]`,
	}
	base := `{"version":1,"alpha":[1,-1],"control_points":%s,"norm_min":[0,0],"norm_max":[2,3]%s}`
	rows := [][]float64{{0, 0}, {1, 1.5}, {2, 3}, {0.3, 2.9}, {-1, 4}, {1.9, 0.1}}
	for _, deg := range []int{2, 3, 6} {
		ref, err := Load(strings.NewReader(fmt.Sprintf(base, rules[deg], `,"projector":"newton"`)))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ref.Save(&want); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ label, spec string }{
			{"gss", `,"projector":"gss"`},
			{"brent", `,"projector":"brent"`},
			{"quintic", `,"projector":"quintic"`},
			{"bogus", `,"projector":"bogus"`},
			{"absent", ``},
		} {
			t.Run(fmt.Sprintf("deg=%d/%s", deg, c.label), func(t *testing.T) {
				m, err := Load(strings.NewReader(fmt.Sprintf(base, rules[deg], c.spec)))
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range rows {
					if got, exp := m.Score(x), ref.Score(x); got != exp {
						t.Errorf("row %v: scored %.17g, the newton rule %.17g", x, got, exp)
					}
				}
				var got bytes.Buffer
				if err := m.Save(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("Save wrote\n%s\nwant\n%s", got.Bytes(), want.Bytes())
				}
			})
		}
	}
}

// TestLoadLegacyDocuments holds the committed documents in testdata/legacy
// — fitted models saved with the gss, brent, newton and quintic projectors
// and hand-written rules (a gss rule with proj_tol, no projector, an
// unknown projector) — to the scores recorded in
// testdata/legacy_scores.json, which were recorded when Load still told gss
// and brent apart and served quintic rules by exact roots. Each must load,
// score its probe rows through Scorer.Score and Model.Score within the
// oracle's contract, and round-trip Save → Load → Save byte-stably without
// writing proj_tol. The scores must match the recorded ones bit for bit,
// except on the quintic rule, which Newton now serves within
// legacyQuinticTol of its recorded exact roots.
func TestLoadLegacyDocuments(t *testing.T) {
	// legacyQuinticTol bounds how far Newton's scores of the legacy quintic
	// rule may sit from the exact roots recorded for it; the measured
	// worst is 4.4e-16, and 2 of its 20 rows are bit-identical.
	const legacyQuinticTol = 1e-15
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
			tol := 0.0
			if strings.Contains(string(doc), `"quintic"`) {
				tol = legacyQuinticTol
			}
			sc := m.Compile()
			oc := oracleCurve(m.Curve)
			for i, x := range probe.Rows {
				ref := oc.Project(unitRow(m, x))
				for path, got := range map[string]float64{"Scorer.Score": sc.Score(x), "Model.Score": m.Score(x)} {
					if d := math.Abs(got - probe.Scores[i]); !(d <= tol) {
						t.Errorf("row %d: %s %.17g, recorded %.17g (|Δ| %.3g > %g)", i, path, got, probe.Scores[i], d, tol)
					}
					if err := ref.Check(got, m.gridCells); err != nil {
						t.Errorf("row %d: %s: %v", i, path, err)
					}
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
