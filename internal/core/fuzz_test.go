package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rpcrank/internal/oracle"
	"rpcrank/internal/order"
)

// FuzzLoad drives core.Load — the one decoder behind rule installs,
// registry records and replicated exports — with arbitrary documents. Load
// must never panic, and any document it accepts must compile and score
// every probe row (the normaliser's corners and centre) to a finite value
// in [0,1] through both Scorer.Score and Model.Score, and Save → Load →
// Save must be byte-identical. Where every normaliser range has a finite
// inverse, each score must also meet the oracle's projection contract on
// the model's own seed grid: part (a), the distance, always
// (oracle.Result.CheckDist), and part (b), the score itself, too
// (oracle.Result.Check, which exempts a row whose D is flat at its
// minimiser) when the curve lies in the unit box, as every fitted curve
// does.
//
// Elsewhere the oracle holds less. A range without a finite inverse (the
// scorer multiplies by 1/range, so it does not see the row (x−min)/range
// the oracle sees) gets the [0,1] check alone. A curve off the unit box
// (its compiled monomial form loses precision: a coordinate of 7000
// scored 3.2e-12 off the exact projection) gets part (a) alone.
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
		// A curve that stalls, P₀ = P₁ = P₂: Load accepts it, and its
		// origin row's score is pinned only by part (a) of the contract.
		`{"version":1,"alpha":[1,1,1],"control_points":[[0,0,0],[0,0,0],[0,0,0],[0.1,0,0],[0,1,0]],"norm_min":[0,0,0],"norm_max":[1,1,1]}`,
		// A certified curve on which the origin row's D is flat to second
		// order at its minimiser s = 0 (D′(0) = D″(0) = 0): part (a) alone.
		`{"version":1,"alpha":[1,1,-1,-1],"control_points":[[0,0,0.1,0.1],[0.1,0,0.1,0.1],[1,1,0,0]],"norm_min":[0,0,0,0],"norm_max":[1,10,1,1]}`,
		// Rules Load accepts and a fit never writes: a curve off the unit
		// box, held to part (a) alone, and a normaliser range without a
		// finite inverse, held to [0,1] alone.
		`{"version":1,"alpha":[1,-1,1],"control_points":[[0,7000,0],[0,0,0.1],[1,0,1]],"norm_min":[0,0,0],"norm_max":[1,1,1]}`,
		`{"version":1,"alpha":[1],"control_points":[[0],[0],[0],[1]],"norm_min":[0],"norm_max":[1e-310]}`,
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
		oc := oracle.New(m.Curve.Points, oracle.DefaultCells)
		held, inBox := invertibleRanges(m), inUnitBox(m.Curve.Points)
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
			var ref *oracle.Result
			check := (*oracle.Result).CheckDist
			if held {
				ref = oc.Project(unitRow(m, x))
				if inBox {
					check = (*oracle.Result).Check
				}
			}
			for name, s := range map[string]float64{"Scorer.Score": sc.Score(x), "Model.Score": m.Score(x)} {
				if !(s >= 0 && s <= 1) {
					t.Fatalf("%s(%v) = %v, want a finite score in [0,1]", name, x, s)
				}
				if ref == nil {
					continue
				}
				if err := check(ref, s, m.gridCells); err != nil {
					t.Fatalf("%s(%v): %v", name, x, err)
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

// invertibleRanges reports whether every normaliser range of m and its
// inverse are finite, so the scorer's (x−min)·(1/range) is the oracle's
// (x−min)/range to rounding.
func invertibleRanges(m *Model) bool {
	for j := range m.Norm.Min {
		r := m.Norm.Max[j] - m.Norm.Min[j]
		if !(r <= math.MaxFloat64 && 1/r <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// inUnitBox reports whether every control point lies in [0,1]^d, where
// a fit keeps them.
func inUnitBox(points [][]float64) bool {
	for _, p := range points {
		for _, v := range p {
			if !(v >= 0 && v <= 1) {
				return false
			}
		}
	}
	return true
}
