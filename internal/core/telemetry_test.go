package core

import (
	"math"
	"slices"
	"testing"

	"rpcrank/internal/order"
)

func telemetryRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		u := float64(i) / float64(n-1)
		rows[i] = []float64{
			10 * u,
			5*u*u + 1,
			3 - 2*u,
		}
	}
	return rows
}

func TestFitDiagnosticsCollected(t *testing.T) {
	m, err := Fit(telemetryRows(64), Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := m.FitDiag
	if d == nil {
		t.Fatal("FitDiag is nil after Fit")
	}
	if d.Restarts != 1 || d.Restart != 0 {
		t.Errorf("restart bookkeeping = %d/%d, want 0/1", d.Restart, d.Restarts)
	}
	if d.Iterations != m.Iterations {
		t.Errorf("diag iterations %d != model iterations %d", d.Iterations, m.Iterations)
	}
	if d.Converged != m.Converged {
		t.Errorf("diag converged %v != model converged %v", d.Converged, m.Converged)
	}
	if len(d.Trace) != m.Iterations {
		t.Errorf("trace has %d entries, want one per iteration (%d)", len(d.Trace), m.Iterations)
	}
	if d.TraceTruncated {
		t.Error("trace reported truncated on a short fit")
	}
	// The first iteration always improves on +Inf; its J is the initial
	// objective, and the final objective must not be worse than the best
	// trace entry (the fit returns the best iterate).
	if !d.Trace[0].Accepted {
		t.Error("first iteration not accepted")
	}
	if d.Trace[0].Iter != 0 || d.Trace[0].Objective != d.InitialObjective {
		t.Errorf("trace[0] = %+v, initial objective %v", d.Trace[0], d.InitialObjective)
	}
	if d.FinalObjective > d.InitialObjective {
		t.Errorf("final objective %v exceeds initial %v", d.FinalObjective, d.InitialObjective)
	}
	if want := sum(m.ResidualsSq); math.Abs(d.FinalObjective-want) > 1e-12 {
		t.Errorf("final objective %v != sum of residuals %v", d.FinalObjective, want)
	}
	// Warm accounting: iteration 0 is cold; every later iteration projects
	// every row through the warm path.
	if d.Trace[0].WarmRows != 0 {
		t.Errorf("iteration 0 reports %d warm rows, want 0", d.Trace[0].WarmRows)
	}
	for _, it := range d.Trace[1:] {
		if it.WarmRows != 64 {
			t.Errorf("iteration %d warm rows = %d, want 64", it.Iter, it.WarmRows)
		}
		if it.WarmHits < 0 || it.WarmHits > it.WarmRows {
			t.Errorf("iteration %d warm hits = %d out of %d", it.Iter, it.WarmHits, it.WarmRows)
		}
	}
	if d.WarmStartHitRate < 0 || d.WarmStartHitRate > 1 {
		t.Errorf("warm-start hit rate %v out of [0,1]", d.WarmStartHitRate)
	}
	// The stage times must have recorded real time: the run had at least
	// two cold passes (iteration 0 and the final best-curve projection) and
	// warm passes after iteration 0.
	if d.Stages.SeedNs <= 0 || d.Stages.RefineNs <= 0 {
		t.Errorf("stage times %+v, want seed and refine > 0", d.Stages)
	}
}

// TestFitStageTiming pins what the stage times measure: cold passes add to
// SeedNs, warm-started passes to RefineNs, control-point steps to
// UpdateNs, and GemmNs is never written.
func TestFitStageTiming(t *testing.T) {
	alpha := order.MustDirection(1, 1, -1)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"warm", Options{Alpha: alpha, Seed: 5}},
		{"restarts", Options{Alpha: alpha, Seed: 5, Restarts: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Fit(telemetryRows(48), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Iterations < 2 {
				t.Fatalf("fit ran %d iterations; the test needs a warm pass", m.Iterations)
			}
			st := m.FitDiag.Stages
			if st.SeedNs <= 0 {
				t.Errorf("SeedNs = %d, want > 0", st.SeedNs)
			}
			if st.RefineNs <= 0 {
				t.Errorf("RefineNs = %d, want > 0 on a warm-started fit", st.RefineNs)
			}
			if st.UpdateNs <= 0 {
				t.Errorf("UpdateNs = %d, want > 0 on a fit of %d iterations", st.UpdateNs, m.Iterations)
			}
			if st.GemmNs != 0 {
				t.Errorf("GemmNs = %d, want 0", st.GemmNs)
			}
		})
	}
}

// TestFitUpdateSkippedOnLastIteration pins that the last iteration runs no
// control-point step — its curve would never be projected — so a
// single-iteration fit records no update time, while a fit that runs all
// of 3 iterations does. The trace does not count steps; a step taken on
// the last iteration of a longer fit, or after a rejected extrapolation,
// would move a recorded fit and fail TestGoldenFits.
func TestFitUpdateSkippedOnLastIteration(t *testing.T) {
	alpha := order.MustDirection(1, 1, -1)
	for _, iters := range []int{1, 3} {
		m, err := Fit(telemetryRows(48), Options{Alpha: alpha, Seed: 5, MaxIter: iters, Tol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		if m.Iterations != iters || m.Converged {
			t.Fatalf("fit ran %d iterations (converged %v), want all %d", m.Iterations, m.Converged, iters)
		}
		if st := m.FitDiag.Stages; (st.UpdateNs > 0) != (iters > 1) || st.SeedNs <= 0 {
			t.Errorf("MaxIter %d stage times %+v, want UpdateNs > 0 only past one iteration and SeedNs > 0", iters, st)
		}
	}
}

// adoptedObjectives is J of every iterate the fit adopted, in order.
func adoptedObjectives(trace []FitIteration) []float64 {
	var js []float64
	for _, it := range trace {
		if it.Accepted {
			js = append(js, it.Objective)
		}
	}
	return js
}

func TestFitDiagnosticsRestarts(t *testing.T) {
	m, err := Fit(telemetryRows(64), Options{
		Alpha:    order.MustDirection(1, 1, -1),
		Seed:     3,
		Restarts: 3,
		Workers:  -1, // restarts run concurrently
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.FitDiag
	if d == nil {
		t.Fatal("FitDiag is nil")
	}
	if d.Restarts != 3 {
		t.Errorf("diag restarts = %d, want 3", d.Restarts)
	}
	if d.Restart < 0 || d.Restart >= 3 {
		t.Errorf("winning restart index %d out of range", d.Restart)
	}
	for _, it := range d.Trace {
		if it.Restart != d.Restart {
			t.Errorf("trace entry carries restart %d, diag says %d", it.Restart, d.Restart)
		}
	}
}

// TestFitTraceIndependentOfWorkers checks that FitDiag.Trace, the record
// of every iteration of the winning restart, is the same whether restarts
// run serially or concurrently.
func TestFitTraceIndependentOfWorkers(t *testing.T) {
	var traces [2][]FitIteration
	for i, workers := range []int{1, -1} {
		m, err := Fit(telemetryRows(64), Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3, Restarts: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = m.FitDiag.Trace
	}
	if len(traces[0]) == 0 || !slices.Equal(traces[0], traces[1]) {
		t.Errorf("serial trace (%d iterations) differs from concurrent trace (%d)", len(traces[0]), len(traces[1]))
	}
}

func TestFitTraceTruncation(t *testing.T) {
	// A fit cannot realistically run maxFitTrace iterations, so exercise
	// the cap directly the way fitPrepared does.
	d := &FitDiagnostics{Trace: make([]FitIteration, 0, maxFitTrace)}
	for i := 0; i < maxFitTrace+10; i++ {
		if len(d.Trace) < maxFitTrace {
			d.Trace = append(d.Trace, FitIteration{Iter: i})
		} else {
			d.TraceTruncated = true
		}
	}
	if len(d.Trace) != maxFitTrace || !d.TraceTruncated {
		t.Errorf("trace len %d truncated=%v, want %d/true", len(d.Trace), d.TraceTruncated, maxFitTrace)
	}
}
