// Package rpcrank is the public API of the Ranking Principal Curve (RPC)
// library, a from-scratch Go implementation of "Unsupervised Ranking of
// Multi-Attribute Objects Based on Principal Curves" (Li, Mei & Hu).
//
// The RPC ranks a set of objects described by d numeric attributes without
// any ground-truth labels. It learns a strictly monotone cubic Bézier curve
// through the data cloud — the "ranking skeleton" — and scores each object
// by its projection onto the curve. The model satisfies the paper's five
// meta-rules for unsupervised ranking: scale/translation invariance, strict
// monotonicity, linear and nonlinear capacity, smoothness, and an explicit
// parameter size of 4·d (the Bézier control points).
//
// Quickstart:
//
//	alpha := rpcrank.MustDirection(+1, +1, -1)  // two benefit, one cost attribute
//	model, err := rpcrank.Rank(rows, rpcrank.Config{Alpha: alpha})
//	if err != nil { ... }
//	for i, s := range model.Scores {
//	    fmt.Println(names[i], s, model.Positions[i])
//	}
//
// The internal packages expose the substrates (Bézier toolkit, baselines,
// meta-rule assessment, experiment drivers); this package re-exports the
// surface a downstream user needs, including the request/response types of
// the rpcd ranking service (see service.go and the top-level README.md).
package rpcrank

import (
	"fmt"
	"io"

	"rpcrank/internal/core"
	"rpcrank/internal/crossval"
	"rpcrank/internal/featsel"
	"rpcrank/internal/order"
	"rpcrank/internal/stability"
)

// Direction marks each attribute as benefit (+1) or cost (−1). It is the α
// vector of the paper's Eq. 3.
type Direction = order.Direction

// NewDirection validates a direction vector.
func NewDirection(signs ...float64) (Direction, error) { return order.NewDirection(signs...) }

// MustDirection is NewDirection that panics on error.
func MustDirection(signs ...float64) Direction { return order.MustDirection(signs...) }

// Ascending returns the all-benefit direction of length d.
func Ascending(d int) Direction { return order.Ascending(d) }

// Config configures Rank. Only Alpha is required.
type Config struct {
	// Alpha is the benefit/cost direction, one entry per attribute.
	Alpha Direction
	// Degree of the Bézier curve (default 3, the paper's choice).
	Degree int
	// Restarts > 1 enables multi-start fitting (default 3 here: Rank is
	// the convenience entry point and favours quality over single-fit
	// speed; use Fit for full control).
	Restarts int
	// Seed makes the fit deterministic (default 1).
	Seed int64
}

// Result is a fitted ranking.
type Result struct {
	// Model is the underlying RPC model (curve, normaliser, diagnostics).
	Model *core.Model
	// Scores holds one score in [0,1] per input row; higher is better.
	Scores []float64
	// Positions holds the 1-based rank of each row (1 = best).
	Positions []int
}

// Rank fits an RPC to the rows and returns scores and positions.
// Rows are raw observations; normalisation (Eq. 29) happens internally.
func Rank(rows [][]float64, cfg Config) (*Result, error) {
	restarts := cfg.Restarts
	if restarts == 0 {
		restarts = 3
	}
	m, err := core.Fit(rows, core.Options{
		Alpha:    cfg.Alpha,
		Degree:   cfg.Degree,
		Restarts: restarts,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Model:     m,
		Scores:    m.Scores,
		Positions: order.RankFromScores(m.Scores),
	}, nil
}

// Score ranks a single new observation against a fitted result.
func (r *Result) Score(row []float64) float64 { return r.Model.Score(row) }

// ExplainedVariance reports the fraction of data variance the ranking
// skeleton captures (the quality measure of the paper's §6.2.1).
func (r *Result) ExplainedVariance() float64 { return r.Model.ExplainedVariance() }

// ControlPoints returns the learned Bézier control points in the original
// data space — the 4×d interpretable parameter set of the model.
func (r *Result) ControlPoints() [][]float64 { return r.Model.ControlPointsOriginal() }

// StrictlyMonotone reports whether the fitted curve is certified strictly
// monotone in every attribute's direction (Proposition 1), by an exact
// check on the Bernstein coefficients of its derivative. The cubic fit's
// box keeps this true; at degrees 4–6 it can fail.
func (r *Result) StrictlyMonotone() bool { return r.Model.StrictlyMonotone() }

// Options re-exports the full fitting configuration for advanced use.
type Options = core.Options

// Model re-exports the fitted model type.
type Model = core.Model

// Scorer re-exports the compiled zero-allocation scoring engine. Obtain
// one with Model.Compile(); it is immutable and safe for concurrent use.
// Hot serving loops should score through it rather than Model.Score — the
// rpcd batch path does, and it is several times faster per row.
type Scorer = core.Scorer

// Fit is the full-control entry point (all options of the paper's
// Algorithm 1 plus the ablation knobs). The options shape the fit only: the
// returned model is its curve, direction and normaliser, scored on a
// 32-cell seed grid, and Save writes exactly that rule.
func Fit(rows [][]float64, opts Options) (*Model, error) { return core.Fit(rows, opts) }

// LoadModel reads a ranking rule saved with Model.Save. The loaded model
// scores observations identically to the one that was saved.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// KendallTau compares two score vectors by Kendall rank correlation.
func KendallTau(a, b []float64) float64 { return order.KendallTau(a, b) }

// SpearmanRho compares two score vectors by Spearman rank correlation.
func SpearmanRho(a, b []float64) float64 { return order.SpearmanRho(a, b) }

// RankFromScores converts scores into 1-based positions (1 = best).
func RankFromScores(scores []float64) []int { return order.RankFromScores(scores) }

// FeatureReport re-exports the feature-selection attribute report.
type FeatureReport = featsel.AttributeReport

// RankFeatures scores each attribute's influence on the ranking and the
// nonlinearity of its response (the paper's §7 future-work extension).
func RankFeatures(rows [][]float64, names []string, cfg Config) ([]FeatureReport, error) {
	restarts := cfg.Restarts
	if restarts == 0 {
		restarts = 1
	}
	res, err := featsel.Rank(rows, names, core.Options{
		Alpha:    cfg.Alpha,
		Degree:   cfg.Degree,
		Restarts: restarts,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return res.Attributes, nil
}

// SelectFeatures returns the smallest influential attribute subset whose
// ranking still agrees with the full model at Kendall τ ≥ minTau.
func SelectFeatures(rows [][]float64, cfg Config, minTau float64) ([]int, error) {
	return featsel.Select(rows, core.Options{
		Alpha:  cfg.Alpha,
		Degree: cfg.Degree,
		Seed:   cfg.Seed,
	}, minTau)
}

// StabilityResult re-exports the bootstrap stability report.
type StabilityResult = stability.Result

// Stability bootstraps the ranking: it refits the RPC on `resamples`
// resampled datasets and reports, per object, the interval its position
// moves in. This is the library's answer to the paper's opening question —
// an unsupervised ranking has no ground truth, but it can still certify
// which positions the data genuinely supports.
func Stability(rows [][]float64, cfg Config, resamples int) (*StabilityResult, error) {
	return stability.Run(rows, stability.Options{
		Resamples: resamples,
		Seed:      cfg.Seed,
		Fit: core.Options{
			Alpha:  cfg.Alpha,
			Degree: cfg.Degree,
			Seed:   cfg.Seed,
		},
	})
}

// CrossValResult re-exports the k-fold cross-validation report.
type CrossValResult = crossval.Result

// CrossValidate runs k-fold cross-validation of the RPC: out-of-sample
// skeleton error and rank agreement between fold models and the full-data
// model (see internal/crossval).
func CrossValidate(rows [][]float64, cfg Config, folds int) (*CrossValResult, error) {
	return crossval.Run(rows, crossval.Options{
		Folds: folds,
		Seed:  cfg.Seed,
		Fit: core.Options{
			Alpha:  cfg.Alpha,
			Degree: cfg.Degree,
			Seed:   cfg.Seed,
		},
	})
}

// Validate checks that rows form a rectangular numeric table matching
// alpha, with every entry finite: NaN or ±Inf values would silently poison
// the normalisation and the fit, so they are rejected here with a per-row
// error naming the offending entry.
func Validate(rows [][]float64, alpha Direction) error {
	if err := alpha.Validate(); err != nil {
		return err
	}
	if err := order.ValidateRows(rows, alpha.Dim()); err != nil {
		return fmt.Errorf("rpcrank: %w", err)
	}
	return nil
}
