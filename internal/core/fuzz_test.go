package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rpcrank/internal/order"
)

// FuzzLoad drives core.Load — the one decoder behind rule installs,
// registry records and replicated exports — with arbitrary documents. Load
// must never panic, and any document it accepts must compile and score
// every probe row (the normaliser's corners and centre) to a finite value
// in [0,1] through both Scorer.Score and Model.Score, and Save → Load →
// Save must be byte-identical.
//
// CI runs this as a short smoke (-fuzz with a bounded -fuzztime) on every
// push; longer local runs explore deeper.
func FuzzLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	alpha := order.MustDirection(1, -1, 1)
	xs, _ := genBezierCloud(rng, 60, alpha, 0.03)
	for _, opts := range []Options{
		{Alpha: alpha, MaxIter: 5},
		{Alpha: alpha, MaxIter: 5, Degree: 2},
		{Alpha: alpha, MaxIter: 5, Degree: 5},
		{Alpha: alpha, MaxIter: 5, Degree: 6},
	} {
		m, err := Fit(xs, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Documents from before the Golden Section and Brent projectors were
	// retired, naming them and carrying their proj_tol.
	legacy, err := filepath.Glob("testdata/legacy/*.json")
	if err != nil || len(legacy) == 0 {
		f.Fatalf("no legacy seed documents: %v", err)
	}
	for _, path := range legacy {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, s := range []string{
		`{"version":1,"alpha":[1],"control_points":[[0],[1]],"norm_min":[0],"norm_max":[1]}`,
		// A legacy document whose proj_tol is out of range: Load rejects it.
		`{"version":1,"alpha":[1,1],"control_points":[[0,0],[0.3,0.2],[0.7,0.6],[1,1]],"norm_min":[0,0],"norm_max":[1,1],"projector":"brent","grid_cells":32,"proj_tol":1.5}`,
		`{"version":1,"alpha":[1,-1],"control_points":[[0,1],[0.5,0.5],[1,0]],"norm_min":[0,0],"norm_max":[1,1],"projector":"newton","grid_cells":2}`,
		`{"version":1,"alpha":[1],"control_points":[[0],[1e300],[1]],"norm_min":[-1e308],"norm_max":[1e308]}`,
		`{"version":1,"alpha":[1],"control_points":[[0],[0.2],[0.9],[1]],"norm_min":[0],"norm_max":[1e-300],"projector":"quintic"}`,
		`{"version":2}`,
		`{"version":1,"alpha":[1],"control_points":[[0],[1]],"norm_min":[1],"norm_max":[0]}`,
		`not json`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		sc := m.Compile()
		d := m.Dim()
		lo, hi, mid := make([]float64, d), make([]float64, d), make([]float64, d)
		mixed := make([]float64, d)
		for j := 0; j < d; j++ {
			lo[j], hi[j] = m.Norm.Min[j], m.Norm.Max[j]
			mid[j] = lo[j]/2 + hi[j]/2
			mixed[j] = lo[j]
			if j%2 == 1 {
				mixed[j] = hi[j]
			}
		}
		for _, x := range [][]float64{lo, hi, mid, mixed} {
			for name, s := range map[string]float64{"Scorer.Score": sc.Score(x), "Model.Score": m.Score(x)} {
				if !(s >= 0 && s <= 1) {
					t.Fatalf("%s(%v) = %v, want a finite score in [0,1]", name, x, s)
				}
			}
		}
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("Save of a loaded model: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load of a saved model: %v\n%s", err, first.Bytes())
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Load → Save changed the document:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
