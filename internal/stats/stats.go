// Package stats implements the statistical pre/post-processing the RPC
// pipeline needs: min–max normalisation into the unit hypercube (Eq. 29),
// inverse denormalisation (so learned control points can be reported in the
// original data space as Table 2 does), column moments, mean squared error,
// and the explained-variance figure used in §6.2.1 (90 % vs 86 %).
package stats

import (
	"fmt"
	"math"

	"rpcrank/internal/frame"
)

// Normalizer holds the per-column min and max of a dataset and maps rows
// to and from the unit hypercube.
type Normalizer struct {
	Min, Max []float64
}

// table is the row access the column scans share: a [][]float64 (rowSlice)
// or a *frame.Frame. Each scan is one loop over it, so a table's slice and
// frame forms give bit-identical results.
type table interface {
	N() int
	Row(i int) []float64
}

// rowSlice is a [][]float64 as a table.
type rowSlice [][]float64

func (r rowSlice) N() int              { return len(r) }
func (r rowSlice) Row(i int) []float64 { return r[i] }

// FitNormalizer computes column ranges over the rows. Degenerate columns
// (max == min) are widened by ±0.5 around the constant value so that the
// transform remains well-defined and maps the constant to 0.5. A column
// whose range or its inverse is not finite is refused, naming the column.
func FitNormalizer(xs [][]float64) (*Normalizer, error) {
	return fitNormalizer(rowSlice(xs))
}

// FitNormalizerFrame is FitNormalizer over a contiguous frame.
func FitNormalizerFrame(f *frame.Frame) (*Normalizer, error) {
	return fitNormalizer(f)
}

func fitNormalizer(t table) (*Normalizer, error) {
	if t.N() == 0 {
		return nil, fmt.Errorf("stats: no rows to normalise")
	}
	d := len(t.Row(0))
	if d == 0 {
		return nil, fmt.Errorf("stats: rows must have at least one column")
	}
	mn := make([]float64, d)
	mx := make([]float64, d)
	copy(mn, t.Row(0))
	copy(mx, t.Row(0))
	for i := 0; i < t.N(); i++ {
		row := t.Row(i)
		if len(row) != d { // only a rowSlice can be ragged
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("stats: row %d column %d is not finite: %v", i, j, v)
			}
			if v < mn[j] {
				mn[j] = v
			}
			if v > mx[j] {
				mx[j] = v
			}
		}
	}
	return finishRanges(mn, mx)
}

// finishRanges widens each constant column by ±0.5 and refuses a column
// whose range, or its inverse, is not finite: the range overflows between
// extreme values, or is sub-normal (or a widened constant too large to
// move), so the transform would send every value to 0 or ±Inf.
func finishRanges(mn, mx []float64) (*Normalizer, error) {
	for j := range mn {
		if mx[j] == mn[j] {
			mn[j] -= 0.5
			mx[j] += 0.5
		}
		if r := mx[j] - mn[j]; math.IsInf(r, 0) || math.IsInf(1/r, 0) {
			return nil, fmt.Errorf("stats: column %d spans [%g, %g], a range without a finite inverse", j, mn[j], mx[j])
		}
	}
	return &Normalizer{Min: mn, Max: mx}, nil
}

// Dim returns the number of columns.
func (n *Normalizer) Dim() int { return len(n.Min) }

// Apply maps a row into [0,1]^d.
func (n *Normalizer) Apply(x []float64) []float64 {
	return n.ApplyInto(make([]float64, len(x)), x)
}

// ApplyInto maps a row into [0,1]^d writing the result into dst (which must
// have the normaliser's dimension) and returns dst. It is the
// allocation-free form of Apply for scoring hot paths; dst may alias x.
func (n *Normalizer) ApplyInto(dst, x []float64) []float64 {
	n.CheckRow(x)
	n.CheckRow(dst)
	for j, v := range x {
		dst[j] = (v - n.Min[j]) / (n.Max[j] - n.Min[j])
	}
	return dst
}

// ApplyAll maps every row.
func (n *Normalizer) ApplyAll(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = n.Apply(x)
	}
	return out
}

// ApplyFrame maps every row of f into [0,1]^d in place, one pass over the
// contiguous backing array. The frame must have the normaliser's dimension.
// It divides by the range exactly as ApplyInto does, so a frame-normalised
// batch is bit-identical to the row-at-a-time path.
func (n *Normalizer) ApplyFrame(f *frame.Frame) {
	if f.Dim() != len(n.Min) {
		panic(fmt.Sprintf("stats: dimension mismatch: normalizer %d, frame %d", len(n.Min), f.Dim()))
	}
	for i := 0; i < f.N(); i++ {
		row := f.Row(i)
		for j, v := range row {
			row[j] = (v - n.Min[j]) / (n.Max[j] - n.Min[j])
		}
	}
}

// Invert maps a unit-hypercube point back to the original data space.
func (n *Normalizer) Invert(u []float64) []float64 {
	n.CheckRow(u)
	out := make([]float64, len(u))
	for j, v := range u {
		out[j] = n.Min[j] + v*(n.Max[j]-n.Min[j])
	}
	return out
}

// CheckRow panics, naming both widths, unless x has the normaliser's
// dimension.
func (n *Normalizer) CheckRow(x []float64) {
	if len(x) != len(n.Min) {
		panic(fmt.Sprintf("stats: dimension mismatch: normalizer %d, row %d", len(n.Min), len(x)))
	}
}

// ColumnMeans returns the per-column mean of the rows.
func ColumnMeans(xs [][]float64) []float64 { return columnMeans(rowSlice(xs)) }

func columnMeans(t table) []float64 {
	if t.N() == 0 {
		return nil
	}
	out := make([]float64, len(t.Row(0)))
	for i := 0; i < t.N(); i++ {
		for j, v := range t.Row(i) {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(t.N())
	}
	return out
}

// Covariance returns the d×d sample covariance matrix (divisor n−1) as
// nested slices; callers that need mat.Dense wrap it.
func Covariance(xs [][]float64) [][]float64 {
	n := len(xs)
	if n < 2 {
		panic("stats: Covariance needs at least 2 rows")
	}
	mu := ColumnMeans(xs)
	d := len(mu)
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range xs {
		for i := 0; i < d; i++ {
			di := row[i] - mu[i]
			for j := i; j < d; j++ {
				cov[i][j] += di * (row[j] - mu[j])
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= float64(n - 1)
			cov[j][i] = cov[i][j]
		}
	}
	return cov
}

// TotalVariance returns Σᵢ‖xᵢ − mean‖², the denominator of explained
// variance.
func TotalVariance(xs [][]float64) float64 { return totalVariance(rowSlice(xs)) }

func totalVariance(t table) float64 {
	mu := columnMeans(t)
	var sum float64
	for i := 0; i < t.N(); i++ {
		for j, v := range t.Row(i) {
			d := v - mu[j]
			sum += d * d
		}
	}
	return sum
}

// ExplainedVariance returns 1 − Σ residual² / total variance, the fitting
// quality measure of §6.2.1. residuals holds the squared reconstruction
// error of each row. The result is clamped below at −∞ but will be ≤ 1.
func ExplainedVariance(xs [][]float64, residualsSq []float64) float64 {
	return explainedVariance(rowSlice(xs), residualsSq)
}

// ExplainedVarianceFrame is ExplainedVariance over a contiguous frame.
func ExplainedVarianceFrame(f *frame.Frame, residualsSq []float64) float64 {
	return explainedVariance(f, residualsSq)
}

func explainedVariance(t table, residualsSq []float64) float64 {
	if t.N() != len(residualsSq) {
		panic(fmt.Sprintf("stats: ExplainedVariance length mismatch %d vs %d", t.N(), len(residualsSq)))
	}
	tv := totalVariance(t)
	if tv == 0 {
		return 1
	}
	var rs float64
	for _, r := range residualsSq {
		rs += r
	}
	return 1 - rs/tv
}

// MSE returns the mean of squared residuals.
func MSE(residualsSq []float64) float64 {
	if len(residualsSq) == 0 {
		return 0
	}
	var s float64
	for _, r := range residualsSq {
		s += r
	}
	return s / float64(len(residualsSq))
}

// MinMax returns the smallest and largest value of a non-empty slice.
func MinMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
