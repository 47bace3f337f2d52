package core

// Fit telemetry: the per-iteration record of one Algorithm-1 run. The fit
// loop always collects FitDiagnostics onto the returned Model (the cost is
// a few counters per iteration — the iteration itself is a full projection
// pass over the data).

// FitIteration is one outer iteration of the alternating minimisation.
type FitIteration struct {
	// Restart identifies which restart this iteration belongs to when
	// Options.Restarts > 1.
	Restart int `json:"restart,omitempty"`
	// Iter is the 0-based iteration index within the restart.
	Iter int `json:"iter"`
	// Objective is J = Σᵢ‖xᵢ − f(sᵢ)‖², Eq. 24 evaluated after the score
	// step — the quantity Algorithm 1 drives down.
	Objective float64 `json:"objective"`
	// Accepted reports whether the fit adopted this iterate: it improved
	// on the best J so far (the best iterate is what the fit ultimately
	// returns). An Anderson-extrapolated iterate that lowers J by less
	// than ξ is rejected too, and the fit falls back to the plain step.
	Accepted bool `json:"accepted"`
	// WarmRows is the number of rows projected through the warm-started
	// path this iteration (0 on cold passes); WarmHits is how many of them
	// validated their basin and skipped the grid scan.
	WarmRows int `json:"warm_rows,omitempty"`
	WarmHits int `json:"warm_hits,omitempty"`
}

// FitStageNanos is the stage time of a fit run in nanoseconds, each stage
// read from two clock reads per iteration. SeedNs is the wall time of the
// cold, grid-seeded projection passes (the first iteration and the final
// best-curve projection), refinement included; RefineNs is the wall time
// of the warm-started projection passes (every iteration after the first,
// cold fallbacks of single rows included); UpdateNs is the wall time of the
// control-point steps (Eq. 21: basis fill, Gram and X·MZᵀ products, the
// exact box step with Anderson's extrapolation or the Richardson update,
// and the box clamp). GemmNs is never written and stays 0; the field is
// kept so persisted diagnostics and their readers keep their shape.
type FitStageNanos struct {
	GemmNs   int64 `json:"gemm_ns,omitempty"`
	SeedNs   int64 `json:"seed_ns,omitempty"`
	RefineNs int64 `json:"refine_ns,omitempty"`
	UpdateNs int64 `json:"update_ns,omitempty"`
}

// maxFitTrace bounds the retained per-iteration trace so a pathological
// MaxIter cannot bloat the model document; the scalar summary fields are
// exact regardless.
const maxFitTrace = 1024

// FitDiagnostics is the retained telemetry of the fit run that produced a
// model: scalar summary, per-iteration trace, warm-start effectiveness,
// and the projection stage breakdown. It rides on Model.FitDiag and is
// persisted by the registry next to the model's metadata (not inside the
// saved rule document, which stays a pure serving artifact).
type FitDiagnostics struct {
	// Restart is the index of the restart that won (0 for single-start
	// fits); Restarts is how many ran.
	Restart  int `json:"restart"`
	Restarts int `json:"restarts"`
	// Iterations and Converged mirror the model's fields for the winning
	// restart.
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	// InitialObjective is J after the first score step; FinalObjective is
	// J of the returned (best) iterate after the final cold projection.
	InitialObjective float64 `json:"initial_objective"`
	FinalObjective   float64 `json:"final_objective"`
	// WarmStartHitRate is warm hits / warm rows over the whole run
	// (0 when the run projected cold throughout).
	WarmStartHitRate float64 `json:"warm_start_hit_rate"`
	// Stages is the stage time breakdown across the run.
	Stages FitStageNanos `json:"stages"`
	// Trace is the per-iteration record, capped at maxFitTrace entries
	// (TraceTruncated reports the cap fired).
	Trace          []FitIteration `json:"trace,omitempty"`
	TraceTruncated bool           `json:"trace_truncated,omitempty"`
}
