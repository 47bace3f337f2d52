package rpcrank

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus the ablations and scaling studies DESIGN.md indexes.
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment drivers both measure and verify: each bench asserts the
// paper's qualitative claim inside the loop so a regression cannot hide in
// a timing table.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/experiments"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

// BenchmarkTable1 regenerates Table 1: RPC vs median rank aggregation on
// the three toy objects, including the A→A′ sensitivity flip.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if !r.AggTiesAB || !r.RPCOrderChanged {
			b.Fatalf("Table 1 claims regressed: ties=%v changed=%v", r.AggTiesAB, r.RPCOrderChanged)
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the 171-country life-quality ranking
// with the Elmap comparison and explained-variance gap.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		if r.TopCountry != "Luxembourg" || r.BottomCountry != "Swaziland" {
			b.Fatalf("Table 2 extremes regressed: %s / %s", r.TopCountry, r.BottomCountry)
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the 393-journal JCR2012 ranking with
// the TKDE/SMCA inversion.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		if !r.TKDEAboveSMCA {
			b.Fatalf("Table 3 inversion regressed")
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2: monotonicity-violation counts of the
// unconstrained principal-curve baselines vs zero for the RPC.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		if r.RPCViolations != 0 {
			b.Fatalf("RPC violated monotonicity")
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: the four basic monotone cubic shapes
// with exact verification and SVG rendering.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4()
		for _, ok := range r.Monotone {
			if !ok {
				b.Fatalf("Fig. 4 shape lost monotonicity")
			}
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: the two fitted toy RPCs before and
// after moving observation A.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: the 4×4 pairwise projection grid of the
// country RPC.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Grid.Panels) != 16 {
			b.Fatalf("Fig. 7 grid shape regressed")
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8: the 5×5 pairwise projection grid of the
// journal RPC.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Grid.Panels) != 25 {
			b.Fatalf("Fig. 8 grid shape regressed")
		}
	}
}

// BenchmarkAblationUpdater compares the Richardson and pseudo-inverse
// control-point updates (A2).
func BenchmarkAblationUpdater(b *testing.B) {
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _, _ := dataset.BezierCloud(alpha, 300, 0.02, 992)
	for _, upd := range []core.Updater{core.UpdaterRichardson, core.UpdaterPseudoInverse} {
		b.Run(upd.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Fit(xs, core.Options{Alpha: alpha, Updater: upd}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDegree compares Bézier degrees 2/3/4 (A3).
func BenchmarkAblationDegree(b *testing.B) {
	alpha := order.MustDirection(1, 1)
	xs, _, _ := dataset.BezierCloud(alpha, 300, 0.02, 993)
	for _, deg := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", deg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Fit(xs, core.Options{Alpha: alpha, Degree: deg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetaRules runs the five-rule assessment of the RPC (A4's
// diagonal entry; the full matrix lives in rpcexp -exp metarules).
func BenchmarkMetaRules(b *testing.B) {
	r, err := experiments.RunMetaRuleMatrix()
	if err != nil {
		b.Fatal(err)
	}
	_ = r
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMetaRuleMatrix(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitScalingN sweeps the object count (S1): the paper claims the
// per-iteration cost is O(4d + n).
func BenchmarkFitScalingN(b *testing.B) {
	alpha := order.MustDirection(1, 1, -1, -1)
	for _, n := range []int{64, 256, 1024, 4096} {
		xs, _, _ := dataset.BezierCloud(alpha, n, 0.02, int64(1000+n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Fit(xs, core.Options{Alpha: alpha}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitScalingD sweeps the attribute count (S1).
func BenchmarkFitScalingD(b *testing.B) {
	for _, d := range []int{2, 4, 8, 16} {
		alpha := order.Ascending(d)
		xs, _, _ := dataset.BezierCloud(alpha, 512, 0.02, int64(2000+d))
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Fit(xs, core.Options{Alpha: alpha}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitRestarts measures the multi-start fit (Restarts=4): the
// restarts share one normalised frame and run concurrently with a
// deterministic winner, so this tracks the parallel multi-start path
// end-to-end. The result is bit-identical to a serial restart loop (pinned
// by test in internal/core).
func BenchmarkFitRestarts(b *testing.B) {
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _, _ := dataset.BezierCloud(alpha, 512, 0.02, 4001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Workers -1 lets the restarts fan out machine-wide; the fitted
		// model is bit-identical at any width.
		if _, err := core.Fit(xs, core.Options{Alpha: alpha, Restarts: 4, Workers: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitJournals measures the fit rpcd serves for the journals table
// (393×5): three restarts over two projection workers, seed 1. Algorithm
// 1's score step dominates it, almost all of it warm-started passes.
func BenchmarkFitJournals(b *testing.B) {
	ds := dataset.Journals()
	xs := ds.Data.ToRows()
	opts := core.Options{Alpha: ds.Alpha, Restarts: 3, Workers: 2, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fit(xs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreOne measures out-of-sample scoring latency through the
// compiled scorer — the serving hot path (rpcd scores every row this way).
// The alloc report must stay at 0.
func BenchmarkScoreOne(b *testing.B) {
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _, _ := dataset.BezierCloud(alpha, 512, 0.02, 3001)
	m, err := core.Fit(xs, core.Options{Alpha: alpha})
	if err != nil {
		b.Fatal(err)
	}
	sc := m.Compile()
	probe := xs[17]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Score(probe)
	}
}

// BenchmarkScoreFrameRows measures the compiled scorer over 10,000 varied
// rows — the degree-3 countries fit scoring rows drawn uniformly from the
// table's attribute box, as bench/ payloads are — so the branches of the
// grid scan and the Newton tail see a fresh row each time, which
// BenchmarkScoreOne's single probe row hides. It reports ns/row; the alloc
// report must stay at 0.
func BenchmarkScoreFrameRows(b *testing.B) {
	ds := dataset.Countries()
	m, err := core.Fit(ds.Data.ToRows(), core.Options{Alpha: ds.Alpha, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const n = 10_000
	d := ds.Dim()
	lo, hi := make([]float64, d), make([]float64, d)
	var col []float64
	for j := range d {
		col = ds.Data.Col(j, col)
		lo[j], hi[j] = slices.Min(col), slices.Max(col)
	}
	rng := rand.New(rand.NewSource(7))
	fr := frame.WithCapacity(d, n)
	x := make([]float64, d)
	for range n {
		for j := range x {
			x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		fr.AppendRow(x)
	}
	sc := m.Compile()
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = sc.ScoreFrame(dst, fr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}

// BenchmarkScoreOneReference measures the Model.Score convenience path —
// a pooled compiled scorer per call; the gap to BenchmarkScoreOne is the
// pool round-trip a dedicated Scorer avoids.
func BenchmarkScoreOneReference(b *testing.B) {
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _, _ := dataset.BezierCloud(alpha, 512, 0.02, 3001)
	m, err := core.Fit(xs, core.Options{Alpha: alpha})
	if err != nil {
		b.Fatal(err)
	}
	probe := xs[17]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Score(probe)
	}
}

// BenchmarkFig5 regenerates Fig. 5: the four candidate ranking skeletons on
// the crescent cloud.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5()
		if err != nil {
			b.Fatal(err)
		}
		if !r.MonotoneRPC {
			b.Fatalf("Fig. 5 RPC panel lost monotonicity")
		}
	}
}
