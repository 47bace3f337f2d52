package experiments

import (
	"bytes"
	"strings"
	"testing"

	"rpcrank/internal/order"
)

// TestTable1ReproducesPaper asserts every qualitative claim of Table 1 /
// §6.1: rank aggregation ties A and B and is blind to the A→A′ move, while
// the RPC distinguishes them and flips the ordering.
func TestTable1ReproducesPaper(t *testing.T) {
	r, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if !r.AggTiesAB {
		t.Errorf("rank aggregation must tie A and B (paper Table 1a)")
	}
	if !r.AggUnchanged {
		t.Errorf("rank aggregation must be unchanged by the A->A' move (paper Table 1b)")
	}
	if !r.RPCOrderChanged {
		t.Errorf("the RPC ordering must change after the A->A' move (paper: ABC -> BA'C)")
	}
	// Variant (a): score order A < B < C.
	if !(r.A[0].RPCScore < r.A[1].RPCScore && r.A[1].RPCScore < r.A[2].RPCScore) {
		t.Errorf("(a) scores not A<B<C: %+v", r.A)
	}
	// Variant (b): B < A' < C.
	if !(r.B[1].RPCScore < r.B[0].RPCScore && r.B[0].RPCScore < r.B[2].RPCScore) {
		t.Errorf("(b) scores not B<A'<C: %+v", r.B)
	}
	// RPC distinguishes A and B where RankAgg cannot.
	if r.A[0].RPCScore == r.A[1].RPCScore {
		t.Errorf("RPC must distinguish A and B")
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "Table 1(a)") {
		t.Errorf("report output malformed")
	}
}

// TestTable2ReproducesPaper asserts the §6.2.1 claims: Luxembourg first with
// score 1, Swaziland last with score 0, RPC explained variance above Elmap
// (paper: 90% vs 86%), and the two models broadly agreeing on the list.
func TestTable2ReproducesPaper(t *testing.T) {
	r, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if r.TopCountry != "Luxembourg" {
		t.Errorf("top country = %s, want Luxembourg", r.TopCountry)
	}
	if r.BottomCountry != "Swaziland" {
		t.Errorf("bottom country = %s, want Swaziland", r.BottomCountry)
	}
	if r.TopScore != 1 || r.BottomScore != 0 {
		t.Errorf("reference scores = %v/%v, want 1/0", r.TopScore, r.BottomScore)
	}
	if r.RPCExplained < 0.80 {
		t.Errorf("RPC explained variance %.3f < 0.80", r.RPCExplained)
	}
	if r.RPCExplained <= r.ElmapExplained-0.02 {
		t.Errorf("RPC explained variance (%.3f) should not trail Elmap (%.3f) — paper reports 90%% vs 86%%",
			r.RPCExplained, r.ElmapExplained)
	}
	if r.Tau < 0.6 {
		t.Errorf("RPC and Elmap rankings should broadly agree, tau = %.3f", r.Tau)
	}
	// Paper's top-5 block: the five named leaders all inside the top 10.
	for _, name := range []string{"Luxembourg", "Norway", "Kuwait", "Singapore", "United States"} {
		i := r.Table.Index(name)
		if r.RPCOrder[i] > 10 {
			t.Errorf("%s ranked %d, expected top-10 (paper: top-5)", name, r.RPCOrder[i])
		}
	}
	// Paper's bottom block: the five named trailers all inside the last 15.
	for _, name := range []string{"South Africa", "Sierra Leone", "Djibouti", "Zimbabwe", "Swaziland"} {
		i := r.Table.Index(name)
		if r.RPCOrder[i] < r.Table.N()-15 {
			t.Errorf("%s ranked %d, expected bottom-15 (paper: bottom-5)", name, r.RPCOrder[i])
		}
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "Luxembourg") {
		t.Errorf("report output malformed")
	}
}

// TestTable3ReproducesPaper asserts the §6.2.2 claims: PAMI on top and the
// TKDE/SMCA inversion.
func TestTable3ReproducesPaper(t *testing.T) {
	r, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if !r.TKDEAboveSMCA {
		t.Errorf("TKDE must outrank SMCA despite the lower IF (paper's headline example)")
	}
	pami := r.Table.Index("IEEE T PATTERN ANAL")
	if r.RPCOrder[pami] > 5 {
		t.Errorf("PAMI ranked %d, expected near the top (paper: 1st)", r.RPCOrder[pami])
	}
	if r.Explained < 0.5 {
		t.Errorf("explained variance %.3f suspiciously low", r.Explained)
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "TKDE") {
		t.Errorf("report output malformed")
	}
}

// TestFig2ReproducesPaper: the unconstrained baselines must violate strict
// monotonicity on the crescent while the RPC never does.
func TestFig2ReproducesPaper(t *testing.T) {
	r, err := RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if r.RPCViolations != 0 {
		t.Errorf("RPC produced %d dominance violations, want 0", r.RPCViolations)
	}
	if r.PolylineViolations+r.HSViolations == 0 {
		t.Errorf("expected the unconstrained baselines to produce violations (Fig. 2)")
	}
	if r.RPCComparable == 0 {
		t.Errorf("no comparable pairs — workload broken")
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Errorf("report output malformed")
	}
}

func TestFig4AllShapesMonotone(t *testing.T) {
	r := RunFig4()
	if len(r.Shapes) != 4 {
		t.Fatalf("want 4 shapes, got %d", len(r.Shapes))
	}
	for i, ok := range r.Monotone {
		if !ok {
			t.Errorf("shape %v not strictly monotone", r.Shapes[i])
		}
	}
	var buf bytes.Buffer
	if err := r.Grid.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Errorf("figure rendering failed")
	}
	buf.Reset()
	r.Report(&buf)
	if !strings.Contains(buf.String(), "convex") {
		t.Errorf("report output malformed")
	}
}

func TestFig6RendersBothCurves(t *testing.T) {
	r, err := RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Grid.Render(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "green") || !strings.Contains(s, "deeppink") {
		t.Errorf("both curves must be rendered")
	}
	buf.Reset()
	r.Report(&buf)
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Errorf("report output malformed")
	}
}

func TestFig7And8ProjectionGrids(t *testing.T) {
	f7, err := RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Grid.Panels) != 16 {
		t.Errorf("Fig. 7 should have 4x4 = 16 panels, got %d", len(f7.Grid.Panels))
	}
	f8, err := RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Grid.Panels) != 25 {
		t.Errorf("Fig. 8 should have 5x5 = 25 panels, got %d", len(f8.Grid.Panels))
	}
	var buf bytes.Buffer
	if err := f7.Grid.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f8.Grid.Render(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	f7.Report(&buf)
	if !strings.Contains(buf.String(), "fig7") {
		t.Errorf("report output malformed")
	}
}

func TestUpdaterAblation(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	r, err := RunUpdaterAblation(150, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 updaters")
	}
	// Richardson must converge well; that is the paper's recommended path.
	if r.Rows[0].Tau < 0.9 {
		t.Errorf("richardson tau %.3f < 0.9", r.Rows[0].Tau)
	}
	if r.MaxCondition < 10 {
		t.Errorf("expected a visibly ill-conditioned (MZ)(MZ)^T, got cond %.3g", r.MaxCondition)
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "richardson") {
		t.Errorf("report output malformed")
	}
}

func TestDegreeAblation(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	r, err := RunDegreeAblation(150, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 degrees")
	}
	var cubicMSE, quadMSE float64
	for _, row := range r.Rows {
		if row.Degree == 3 {
			cubicMSE = row.MSE
		}
		if row.Degree == 2 {
			quadMSE = row.MSE
		}
		if row.Tau < 0.85 {
			t.Errorf("degree %d: tau %.3f", row.Degree, row.Tau)
		}
	}
	// The cubic should fit cubic-generated data at least as well as the
	// quadratic (§4.2's "too simple" argument).
	if cubicMSE > quadMSE*1.2 {
		t.Errorf("cubic MSE %.5f should not be clearly worse than quadratic %.5f", cubicMSE, quadMSE)
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "Degree") {
		t.Errorf("report output malformed")
	}
}

// TestMetaRuleMatrix asserts the paper's central qualitative table: the RPC
// satisfies all five meta-rules and every baseline misses at least one.
func TestMetaRuleMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix assessment is slow")
	}
	r, err := RunMetaRuleMatrix()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]int{}
	for _, rep := range r.Reports {
		byModel[rep.Model] = rep.Passed()
	}
	if byModel["RPC"] != 5 {
		t.Errorf("RPC passed %d/5 meta-rules, want 5", byModel["RPC"])
	}
	for model, passed := range byModel {
		if model == "RPC" {
			continue
		}
		if passed == 5 {
			t.Errorf("%s passed all five meta-rules — the paper argues only the RPC does", model)
		}
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "RPC") {
		t.Errorf("report output malformed")
	}
}

func TestFig5SkeletonGallery(t *testing.T) {
	r, err := RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Grid.Panels) != 4 {
		t.Fatalf("want 4 panels, got %d", len(r.Grid.Panels))
	}
	if !r.MonotoneRPC {
		t.Errorf("panel (d) must be strictly monotone")
	}
	// The line (a) must fit the crescent worse than the curve models.
	if r.Explained[0] >= r.Explained[2] {
		t.Errorf("first PCA (%.3f) should trail the smooth curve (%.3f) on the crescent",
			r.Explained[0], r.Explained[2])
	}
	var buf bytes.Buffer
	if err := r.Grid.Render(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	r.Report(&buf)
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Errorf("report output malformed")
	}
}
