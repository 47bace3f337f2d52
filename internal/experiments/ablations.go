package experiments

import (
	"fmt"
	"io"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/metarules"
	"rpcrank/internal/order"
)

// ProjectorAblationResult is experiment A1: the two projection solvers —
// grid-seeded safeguarded Newton and exact quintic roots — compared on
// recovery quality against a known latent order. (The paper's Golden
// Section Search is not among them: it only ever produced a start for the
// same Newton refinement; see the core package doc.)
type ProjectorAblationResult struct {
	N, D int
	Rows []ProjectorAblationRow
}

// ProjectorAblationRow is one projector's outcome.
type ProjectorAblationRow struct {
	Projector core.Projector
	// Tau against the generating latent order.
	Tau float64
	// MSE of the fit.
	MSE float64
}

// RunProjectorAblation executes A1 on a Bézier-generated cloud.
func RunProjectorAblation(n int, alpha order.Direction) (*ProjectorAblationResult, error) {
	xs, latent, _ := dataset.BezierCloud(alpha, n, 0.02, 91)
	res := &ProjectorAblationResult{N: n, D: alpha.Dim()}
	for _, p := range []core.Projector{core.ProjectorNewton, core.ProjectorQuintic} {
		m, err := core.Fit(xs, core.Options{Alpha: alpha, Projector: p})
		if err != nil {
			return nil, fmt.Errorf("projector %v: %w", p, err)
		}
		res.Rows = append(res.Rows, ProjectorAblationRow{
			Projector: p,
			Tau:       order.KendallTau(m.Scores, latent),
			MSE:       m.MSE(),
		})
	}
	return res, nil
}

// Report prints the comparison.
func (r *ProjectorAblationResult) Report(w io.Writer) {
	fmt.Fprintf(w, "A1: projector ablation (n=%d, d=%d, Bezier cloud with known order)\n", r.N, r.D)
	tw := newTable("Projector", "Kendall tau", "MSE")
	for _, row := range r.Rows {
		tw.addRowf("%v\t%.4f\t%.6f", row.Projector, row.Tau, row.MSE)
	}
	tw.writeTo(w)
}

// UpdaterAblationResult is experiment A2: the paper's preconditioned
// Richardson update (Eq. 27–28) versus the exact minimiser of Eq. 26 under
// the box, Anderson-accelerated (the default), with the condition number
// of (MZ)(MZ)ᵀ that motivates the preconditioner (§5).
type UpdaterAblationResult struct {
	N    int
	Rows []UpdaterAblationRow
	// MaxCondition observed across the control steps of both fits.
	MaxCondition float64
}

// UpdaterAblationRow is one updater's outcome.
type UpdaterAblationRow struct {
	Updater    core.Updater
	Tau        float64
	MSE        float64
	Iterations int
}

// RunUpdaterAblation executes A2.
func RunUpdaterAblation(n int, alpha order.Direction) (*UpdaterAblationResult, error) {
	xs, latent, _ := dataset.BezierCloud(alpha, n, 0.02, 92)
	res := &UpdaterAblationResult{N: n}
	for _, upd := range []core.Updater{core.UpdaterRichardson, core.UpdaterPseudoInverse} {
		m, err := core.Fit(xs, core.Options{Alpha: alpha, Updater: upd, KeepTrajectory: true})
		if err != nil {
			return nil, fmt.Errorf("updater %v: %w", upd, err)
		}
		res.Rows = append(res.Rows, UpdaterAblationRow{
			Updater:    upd,
			Tau:        order.KendallTau(m.Scores, latent),
			MSE:        m.MSE(),
			Iterations: m.Iterations,
		})
		for _, c := range m.ConditionNumbers {
			if c > res.MaxCondition {
				res.MaxCondition = c
			}
		}
	}
	return res, nil
}

// Report prints the comparison.
func (r *UpdaterAblationResult) Report(w io.Writer) {
	fmt.Fprintf(w, "A2: updater ablation (n=%d)\n", r.N)
	tw := newTable("Updater", "Kendall tau", "MSE", "Iterations")
	for _, row := range r.Rows {
		tw.addRowf("%v\t%.4f\t%.6f\t%d", row.Updater, row.Tau, row.MSE, row.Iterations)
	}
	tw.writeTo(w)
	fmt.Fprintf(w, "max cond((MZ)(MZ)^T) over both fits: %.3g (the ill-conditioning of §5)\n",
		r.MaxCondition)
}

// DegreeAblationResult is experiment A3: Bézier degree k ∈ {2,3,4} on data
// generated from a cubic, supporting the paper's k=3 argument (§4.2).
type DegreeAblationResult struct {
	N    int
	Rows []DegreeAblationRow
}

// DegreeAblationRow is one degree's outcome.
type DegreeAblationRow struct {
	Degree int
	Tau    float64
	MSE    float64
}

// RunDegreeAblation executes A3.
func RunDegreeAblation(n int, alpha order.Direction) (*DegreeAblationResult, error) {
	xs, latent, _ := dataset.BezierCloud(alpha, n, 0.02, 93)
	res := &DegreeAblationResult{N: n}
	for _, deg := range []int{2, 3, 4} {
		m, err := core.Fit(xs, core.Options{Alpha: alpha, Degree: deg})
		if err != nil {
			return nil, fmt.Errorf("degree %d: %w", deg, err)
		}
		res.Rows = append(res.Rows, DegreeAblationRow{
			Degree: deg,
			Tau:    order.KendallTau(m.Scores, latent),
			MSE:    m.MSE(),
		})
	}
	return res, nil
}

// Report prints the comparison.
func (r *DegreeAblationResult) Report(w io.Writer) {
	fmt.Fprintf(w, "A3: Bezier degree ablation (n=%d, cubic ground truth)\n", r.N)
	tw := newTable("Degree", "Kendall tau", "MSE")
	for _, row := range r.Rows {
		tw.addRowf("%d\t%.4f\t%.6f", row.Degree, row.Tau, row.MSE)
	}
	tw.writeTo(w)
	fmt.Fprintln(w, "paper (§4.2): k<3 is too simple for all monotone shapes, k>3 risks overfitting")
}

// MetaRuleMatrixResult is experiment A4: the five-rule compliance matrix for
// every ranking model in the repository.
type MetaRuleMatrixResult struct {
	Reports []*metarules.Report
}

// RunMetaRuleMatrix executes A4 on an S-curve workload.
func RunMetaRuleMatrix() (*MetaRuleMatrixResult, error) {
	xs, _ := dataset.SCurve(150, 0.02, 94)
	alpha := order.MustDirection(1, 1)
	res := &MetaRuleMatrixResult{}
	for _, r := range metarules.AllRankers() {
		rep, err := metarules.Assess(r, xs, alpha, metarules.Config{})
		if err != nil {
			return nil, fmt.Errorf("assessing %s: %w", r.Name(), err)
		}
		res.Reports = append(res.Reports, rep)
	}
	return res, nil
}

// Report prints the matrix with one row per model.
func (r *MetaRuleMatrixResult) Report(w io.Writer) {
	fmt.Fprintln(w, "A4: meta-rule compliance matrix (pass = the rule's executable test succeeds)")
	if len(r.Reports) == 0 {
		return
	}
	header := []string{"Model"}
	for _, o := range r.Reports[0].Outcomes {
		header = append(header, o.Rule)
	}
	header = append(header, "Total")
	tw := newTable(header...)
	for _, rep := range r.Reports {
		cells := []string{rep.Model}
		for _, o := range rep.Outcomes {
			mark := "no"
			if o.Pass {
				mark = "YES"
			}
			cells = append(cells, mark)
		}
		cells = append(cells, fmt.Sprintf("%d/5", rep.Passed()))
		tw.addRow(cells...)
	}
	tw.writeTo(w)
}
