package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"rpcrank/internal/bezier"
	"rpcrank/internal/order"
	"rpcrank/internal/stats"
)

// modelJSON is the stable on-disk representation of a fitted RPC: the
// control points, the direction vector, and the normalisation ranges are
// the complete ranking rule (that is the "explicitness" meta-rule made
// operational — the whole model serialises to a few dozen numbers).
//
// Projector names the score solver. Grid-seeded Newton is the only one, so
// Save always writes "newton" and Load ignores the value. ProjTol is read
// only to validate legacy documents: it was the bracket width of the Golden
// Section and Brent projectors, which no longer exist. Save leaves it out.
type modelJSON struct {
	Version       int         `json:"version"`
	Alpha         []float64   `json:"alpha"`
	ControlPoints [][]float64 `json:"control_points"`
	NormMin       []float64   `json:"norm_min"`
	NormMax       []float64   `json:"norm_max"`
	Projector     string      `json:"projector"`
	GridCells     int         `json:"grid_cells"`
	ProjTol       float64     `json:"proj_tol,omitempty"`
}

const modelVersion = 1

// Save writes the fitted model as JSON. Training scores and diagnostics are
// not persisted — the serialised rule re-scores any observation exactly.
func (m *Model) Save(w io.Writer) error {
	if m.Curve == nil || m.Norm == nil {
		return fmt.Errorf("core: cannot save an unfitted model")
	}
	out := modelJSON{
		Version:       modelVersion,
		Alpha:         append([]float64{}, m.Alpha...),
		ControlPoints: make([][]float64, len(m.Curve.Points)),
		NormMin:       append([]float64{}, m.Norm.Min...),
		NormMax:       append([]float64{}, m.Norm.Max...),
		Projector:     "newton",
		GridCells:     m.gridCells,
	}
	for i, p := range m.Curve.Points {
		out.ControlPoints[i] = append([]float64{}, p...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a model saved by Save. The returned model scores observations
// identically to the original, on the seed grid the document names
// (grid_cells; 32 when absent, so a legacy 48-cell rule keeps its 48);
// the fit's record (Scores, ResidualsSq, FitDiag) is empty. The curve
// must have a degree Fit accepts (minDegree to maxDegree).
// Every projector name — "newton", the retired "gss", "brent" and
// "quintic", an unknown name or none at all — loads as grid-seeded Newton.
// Legacy "quintic" rules score within 4.4e-16 of the exact quintic roots
// they were once served by.
func Load(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if in.Version != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d (want %d)", in.Version, modelVersion)
	}
	alpha, err := order.NewDirection(in.Alpha...)
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	// A rule has the degrees Fit produces, minDegree to maxDegree, and no
	// others. The compiled scorer's monomial form loses precision as the
	// degree grows: an identity curve scored against its exact answer is off
	// by 1.1e-7 at degree 23 and by 1.0 at degree 63, and the oracle harness
	// checks fitted degrees only. Degree 1, a straight segment, is never
	// fitted either.
	if k := len(in.ControlPoints) - 1; k < minDegree || k > maxDegree {
		return nil, fmt.Errorf("core: model has %d control points (degree %d), want %d to %d",
			len(in.ControlPoints), k, minDegree+1, maxDegree+1)
	}
	d := alpha.Dim()
	for i, p := range in.ControlPoints {
		if len(p) != d {
			return nil, fmt.Errorf("core: control point %d has dim %d, want %d", i, len(p), d)
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: control point %d coordinate %d is not finite", i, j)
			}
		}
	}
	if len(in.NormMin) != d || len(in.NormMax) != d {
		return nil, fmt.Errorf("core: normaliser dims %d/%d, want %d", len(in.NormMin), len(in.NormMax), d)
	}
	for j := range in.NormMin {
		if !(in.NormMax[j] > in.NormMin[j]) {
			return nil, fmt.Errorf("core: normaliser range for attribute %d is empty", j)
		}
	}
	curve, err := bezier.New(in.ControlPoints)
	if err != nil {
		return nil, fmt.Errorf("core: loading curve: %w", err)
	}
	// The projector settings come from an untrusted document: 0 means
	// "use the default", anything else must be usable — a negative grid
	// panics the grid seed and a huge one is a CPU bomb per scored row.
	// Every fitted model's 32 cells is inside the bounds, so it round-trips.
	// A legacy proj_tol is ignored, but one out of its old range still
	// marks the document as malformed.
	cells := in.GridCells
	if cells == 0 {
		cells = defaultGridCells
	}
	if cells < 2 || cells > maxGridCells {
		return nil, fmt.Errorf("core: grid_cells %d out of [2, %d]", in.GridCells, maxGridCells)
	}
	if in.ProjTol != 0 && !(in.ProjTol > 0 && in.ProjTol <= 1) {
		return nil, fmt.Errorf("core: proj_tol %v out of (0, 1]", in.ProjTol)
	}
	return &Model{
		Curve:     curve,
		Alpha:     alpha,
		Norm:      &stats.Normalizer{Min: in.NormMin, Max: in.NormMax},
		gridCells: cells,
	}, nil
}
