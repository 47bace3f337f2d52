package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"rpcrank/internal/bezier"
	"rpcrank/internal/frame"
	"rpcrank/internal/mat"
	"rpcrank/internal/order"
	"rpcrank/internal/stats"
)

// Fit learns an RPC from raw (unnormalised) observations, one row per
// object, following Algorithm 1 of the paper:
//
//  1. normalise X into [0,1]^d (Eq. 29);
//  2. initialise P with pinned end points p₀ = (1−α)/2, p_k = (1+α)/2 and
//     jittered interior control points;
//  3. repeat: project every row onto the curve to get scores (Eq. 22, by
//     grid-seeded safeguarded Newton where the paper uses Golden Section
//     Search; see the package doc), then update the control points: by
//     default the exact minimiser of Eq. 26 under the box [ε, 1−ε] the
//     interior points live in, Anderson-accelerated across iterations
//     with a J safeguard; with UpdaterRichardson the Eq. 27 Richardson
//     step, clamped into the box;
//  4. stop when |ΔJ| < ξ, when J rises by more than ξ, or at MaxIter.
func Fit(xs [][]float64, opts Options) (*Model, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	// Reject ragged tables and NaN/±Inf entries up front: the normaliser
	// catches non-finite values in the default path, but in NoNormalize
	// mode NaN slips through the [0,1] box check (every comparison with
	// NaN is false) and silently poisons the fit.
	if err := order.ValidateRows(xs, len(xs[0])); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f, err := frame.FromRows(xs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return fitValidated(f, opts)
}

// FitFrame is Fit over a contiguous frame — the native entry point of the
// data plane: dataset tables, cross-validation folds, and the server's fit
// endpoint all hold frames already, so no slice-of-slice round trip is
// paid. The frame is read, never modified; the model keeps its own
// normalised copy.
func FitFrame(f *frame.Frame, opts Options) (*Model, error) {
	if f == nil || f.N() == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if err := order.ValidateFrame(f, f.Dim()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return fitValidated(f, opts)
}

// fitValidated is the shared Algorithm-1 driver behind Fit and FitFrame;
// the input frame has passed shape/finiteness validation.
func fitValidated(f *frame.Frame, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	if err := opts.validate(f.N(), f.Dim()); err != nil {
		return nil, err
	}
	// Restart concurrency honours the caller's parallelism grant: Workers
	// is the fit's goroutine budget, so with Workers 0 or 1 the restarts
	// run serially exactly as the projection does, and with Workers = -1
	// they fan out machine-wide. The fitted model is bit-identical for
	// every width (see fitMultiStart), so this only shapes CPU use.
	return fitMultiStart(f, opts, resolveWorkers(opts.Workers))
}

// fitShared is the per-fit-run input every restart shares read-only: the
// fitted normaliser, the normalised working frame, and the d×n observation
// matrix X of Eq. 23–27. Restarts differ only in their initial control
// points, so re-deriving any of this per restart would be pure waste — and
// sharing it is safe because fitPrepared never writes through it.
type fitShared struct {
	norm *stats.Normalizer
	u    *frame.Frame
	X    *mat.Dense
}

// prepFit normalises f into a fresh working frame (one contiguous memcpy;
// the input frame is read, never written) and builds the shared X matrix.
func prepFit(f *frame.Frame, opts Options) (*fitShared, error) {
	var norm *stats.Normalizer
	if opts.NoNormalize {
		d := f.Dim()
		norm = &stats.Normalizer{Min: make([]float64, d), Max: make([]float64, d)}
		for j := 0; j < d; j++ {
			norm.Max[j] = 1
		}
		// Fit already rejected ragged rows and non-finite entries via
		// order.ValidateFrame; only the unit-box constraint is left.
		for i := 0; i < f.N(); i++ {
			for j, v := range f.Row(i) {
				if v < 0 || v > 1 {
					return nil, fmt.Errorf("core: NoNormalize requires data in [0,1]; row %d column %d is %v", i, j, v)
				}
			}
		}
	} else {
		var err error
		norm, err = stats.FitNormalizerFrame(f)
		if err != nil {
			return nil, err
		}
	}
	u := f.Clone()
	norm.ApplyFrame(u)
	n := u.N()
	d := u.Dim()
	X := mat.Zeros(d, n)
	for i := 0; i < n; i++ {
		for j, v := range u.Row(i) {
			X.Set(j, i, v)
		}
	}
	return &fitShared{norm: norm, u: u, X: X}, nil
}

// resolveWorkers maps an Options.Workers value onto a concrete goroutine
// width: -1 means machine-wide, anything below 1 means serial. Every site
// sizing fit parallelism — restart fan-out, the worker split across
// restarts, the projection pool — resolves through here so the semantics
// cannot drift apart.
func resolveWorkers(w int) int {
	if w == -1 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// fitMultiStart runs Algorithm 1 from every initialisation of the fit, at
// most par restarts at a time, and returns the model with the lowest final
// objective: restart 0 is the jittered-diagonal default, restart 1 places
// the interior control points on the rows at the interior quantiles of a
// rough weighted-sum ordering (a deterministic version of Algorithm 1's
// sample-based init), and further restarts draw random data rows. A fit
// with Restarts ≤ 1 is restart 0 alone. The winner scan walks restart
// order with a strict '<', giving the lowest restart index on ties, so the
// returned model is bit-identical for every par ≥ 1 — pinned by test.
func fitMultiStart(f *frame.Frame, opts Options, par int) (*Model, error) {
	models, err := fitRestarts(f, opts, par)
	if err != nil {
		return nil, err
	}
	var best *Model
	for _, m := range models {
		if best == nil || sum(m.ResidualsSq) < sum(best.ResidualsSq) {
			best = m
		}
	}
	return best, nil
}

// fitRestarts runs every restart of a multi-start fit, at most par at a
// time, and returns their models in restart order. The normalised frame and
// X matrix are prepared once and shared read-only by every restart; the
// restart initialisations are drawn serially up front, so rng consumption
// never depends on scheduling.
func fitRestarts(f *frame.Frame, opts Options, par int) ([]*Model, error) {
	restarts := max(opts.Restarts, 1)
	sh, err := prepFit(f, opts)
	if err != nil {
		return nil, err
	}
	ros := make([]Options, restarts)
	for r := range ros {
		o := opts
		o.Restarts = 1
		o.Seed = opts.Seed + int64(r)
		o.restartIndex = r
		o.restartTotal = restarts
		ros[r] = o
	}
	if restarts > 1 {
		u := sh.u
		// Rough ordering by the oriented attribute sum.
		rough := make([]float64, u.N())
		for i := range rough {
			for j, s := range opts.Alpha {
				rough[i] += s * u.At(i, j)
			}
		}
		byRough := order.SortByScoreDesc(rough) // best-first
		quantiles := make([][]float64, opts.Degree-1)
		for i := range quantiles {
			// Interior quantile position, best-first reversed so
			// quantiles[0] is the *low*-score row (near p₀'s corner).
			q := float64(i+1) / float64(opts.Degree)
			pos := byRough[len(byRough)-1-int(q*float64(len(byRough)-1))]
			quantiles[i] = append([]float64{}, u.Row(pos)...)
		}
		ros[1].initInner = quantiles
		rng := rand.New(rand.NewSource(opts.Seed + 1000003))
		for r := 2; r < restarts; r++ {
			inner := make([][]float64, opts.Degree-1)
			for i := range inner {
				inner[i] = append([]float64{}, u.Row(rng.Intn(u.N()))...)
			}
			ros[r].initInner = inner
		}
	}

	if par > restarts {
		par = restarts
	}
	if par < 1 {
		par = 1
	}
	if par > 1 {
		// Concurrent restarts split the projection workers between them so
		// Restarts×Workers cannot oversubscribe the machine; the worker
		// count never changes results (see Options.Workers).
		if w := resolveWorkers(opts.Workers); w > 1 {
			if w = w / par; w < 1 {
				w = 1
			}
			for r := range ros {
				ros[r].Workers = w
			}
		}
	}

	models := make([]*Model, restarts)
	errs := make([]error, restarts)
	if par == 1 {
		for r := range ros {
			models[r], errs[r] = fitPrepared(sh, ros[r])
		}
	} else {
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for r := range ros {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				models[r], errs[r] = fitPrepared(sh, ros[r])
			}(r)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return models, nil
}

// fitPrepared is the Algorithm-1 iteration loop over a prepared (normalised,
// shared, read-only) input. All per-iteration state — the projection worker
// pool with its per-worker engines, the control-point work matrices and
// the eigen scratch — is allocated once up front, so the loop itself is
// allocation-free however many iterations run.
func fitPrepared(sh *fitShared, opts Options) (*Model, error) {
	u := sh.u
	X := sh.X
	n := u.N()
	d := u.Dim()
	k := opts.Degree

	curve := initCurve(opts, d, k)

	m := &Model{
		Alpha:     opts.Alpha,
		Norm:      sh.norm,
		gridCells: defaultGridCells,
		data:      u,
	}

	scores := make([]float64, n)
	resid := make([]float64, n)
	prevJ := math.Inf(1)
	var bestCurve *bezier.Curve
	bestJ := math.Inf(1)
	bestScores := make([]float64, n)
	bestResid := make([]float64, n)

	// The projection worker pool lives for the whole fit run: its engines
	// (and their shared compiled curve coefficients) persist across all
	// iterations. scores carries each row's previous score into the next
	// iteration's warm-started projection, which overwrites it in place.
	pool := newProjPool(curve, u, opts.Workers)
	defer pool.close()

	// Fit telemetry: the per-iteration trace, warm-start deltas and stage
	// times are collected as the loop runs.
	diag := &FitDiagnostics{Restart: opts.restartIndex, Restarts: opts.restartTotal}
	// Pre-sized to its cap so the iteration loop stays allocation-flat
	// (pinned by TestFitAllocsFlatInIterations).
	diag.Trace = make([]FitIteration, 0, min(opts.MaxIter, maxFitTrace))
	var prevWarmRows, prevWarmHits int64

	// Work matrices of the control-point step, allocated once and reused
	// across all Algorithm-1 iterations: every product below has a fixed
	// shape, so re-forming it in place saves (k+1)·n-sized allocations per
	// iteration — on large fits the garbage otherwise dwarfs the model.
	kp1 := k + 1
	M := bezier.BernsteinToMonomial(k)
	mz := make([]float64, kp1*n)
	MZ := mat.NewDense(kp1, n, mz) // Bernstein basis b(sᵢ), one column per observation
	pd := make([]float64, d*kp1)
	P := mat.NewDense(d, kp1, pd) // control points of the current iterate
	A := mat.Zeros(kp1, kp1)
	XMZt := mat.Zeros(d, kp1)
	// Scratch of the updater, so either one stays iteration-flat in
	// allocations. The exact step keeps its image of the last adopted
	// iterate in G: it is the plain step Anderson's safeguard falls back to.
	var rich *richardson
	var exact *boxStep
	var accel *anderson
	var gd []float64
	var G *mat.Dense
	switch opts.Updater {
	case UpdaterPseudoInverse:
		exact = newBoxStep(k, clampEps)
		accel = newAnderson(d * kp1)
		gd = make([]float64, d*kp1)
		G = mat.NewDense(d, kp1, gd)
	case UpdaterRichardson:
		rich = newRichardson(d, kp1)
	default:
		return nil, fmt.Errorf("core: unknown updater %v", opts.Updater)
	}
	// extrapolated marks a curve that came from Anderson's extrapolation
	// rather than from a plain step; plain counts the plain steps still
	// owed after the safeguard fired.
	extrapolated := false
	plain := 0

	for iter := 0; iter < opts.MaxIter; iter++ {
		// Score step (Eq. 22): project every observation onto the curve,
		// warm-started from the previous iteration's scores after the first.
		t0 := time.Now()
		if iter > 0 {
			pool.project(curve, scores, resid, scores)
			diag.Stages.RefineNs += time.Since(t0).Nanoseconds()
		} else {
			pool.project(curve, scores, resid, nil)
			diag.Stages.SeedNs += time.Since(t0).Nanoseconds()
		}
		J := sum(resid)
		// An extrapolated curve is adopted only when it lowers J by at
		// least ξ: a stalled extrapolation is no evidence of convergence,
		// so the plain step decides that.
		accepted := J < bestJ && (!extrapolated || bestJ-J >= opts.Tol)
		wr, wh := pool.warmCounts()
		it := FitIteration{
			Restart:   opts.restartIndex,
			Iter:      iter,
			Objective: J,
			Accepted:  accepted,
			WarmRows:  int(wr - prevWarmRows),
			WarmHits:  int(wh - prevWarmHits),
		}
		prevWarmRows, prevWarmHits = wr, wh
		if iter == 0 {
			diag.InitialObjective = J
		}
		if len(diag.Trace) < maxFitTrace {
			diag.Trace = append(diag.Trace, it)
		} else {
			diag.TraceTruncated = true
		}
		m.Iterations = iter + 1
		if extrapolated && !accepted {
			// Safeguard: the extrapolated curve did not lower J. Discard
			// it, forget the history, and continue from the plain exact
			// step of the last adopted iterate, warm-started from that
			// iterate's scores.
			extrapolated = false
			accel.reset()
			plain = andersonRestart - 1
			matIntoCurve(G, curve)
			copy(scores, bestScores)
			continue
		}
		if accepted {
			bestJ = J
			if bestCurve == nil {
				bestCurve = cloneCurve(curve)
			} else {
				copyCurveInto(bestCurve, curve)
			}
			copy(bestScores, scores)
			copy(bestResid, resid)
		}
		// Stopping rules of Algorithm 1: |ΔJ| < ξ has converged; a rise of
		// J by more than ξ stops the run, which keeps the best iterate.
		if math.Abs(prevJ-J) < opts.Tol {
			m.Converged = true
			break
		}
		if J > prevJ {
			break
		}
		prevJ = J
		// The last iteration's curve is never projected, so its
		// control-point step would be wasted work.
		if iter == opts.MaxIter-1 {
			break
		}

		// Control-point step (Eq. 21).
		t1 := time.Now()
		bernsteinBasisInto(mz, M, scores) // MZ, (k+1)×n
		curveIntoMat(P, curve)            // d×(k+1)
		mat.GramInto(A, MZ)               // (MZ)(MZ)ᵀ, (k+1)×(k+1)
		mat.MulABTInto(XMZt, X, MZ)       // X·MZᵀ, d×(k+1)
		if rich != nil {
			rich.step(P, A, XMZt, rich.nominalGamma(A))
			matIntoCurve(P, curve)
			constrainCurve(curve, opts, d, k)
		} else {
			// Eq. 26 under the box, then Anderson's extrapolation over
			// the adopted iterates unless plain steps are owed.
			exact.step(G, P, A, XMZt)
			accel.push(pd, gd)
			if plain == 0 && accel.extrapolate(pd) {
				extrapolated = true
				matIntoCurve(P, curve)
				constrainCurve(curve, opts, d, k)
			} else {
				extrapolated = false
				plain = max(plain-1, 0)
				matIntoCurve(G, curve)
			}
		}
		diag.Stages.UpdateNs += time.Since(t1).Nanoseconds()
	}

	if bestCurve == nil { // MaxIter == 0 is rejected by validate; defensive
		bestCurve = curve
	}
	// Final projection against the best curve so scores/residuals match it.
	// Deliberately cold (grid-seeded): the model's published scores carry
	// no dependence on the warm-start trajectory, only on the final curve.
	// Serving the model returns them within scoreParityTol (1e-12, held by
	// TestCompiledScoreParityFittedModel), not bit for bit: the compiled
	// cubic path multiplies by 1/range where this divides, so at degree 3
	// 61 of 393 journals rows differ by up to 3.5e-16 and 31 of 171
	// countries rows by up to 1.1e-16; other degrees matched exactly.
	t0 := time.Now()
	pool.project(bestCurve, bestScores, bestResid, nil)
	diag.Stages.SeedNs += time.Since(t0).Nanoseconds()
	finalJ := sum(bestResid)
	m.Curve = bestCurve
	m.Scores = bestScores
	m.ResidualsSq = bestResid
	diag.Iterations = m.Iterations
	diag.Converged = m.Converged
	diag.FinalObjective = finalJ
	if wr, wh := pool.warmCounts(); wr > 0 {
		diag.WarmStartHitRate = float64(wh) / float64(wr)
	}
	m.FitDiag = diag
	return m, nil
}

// Score projects a single raw observation onto the fitted curve and returns
// its score in [0,1]. It scores through the model's shared compiled scorer
// (Model.AcquireScorer), so casual per-row use is fast and safe for
// concurrent callers. The result is Scorer.Score's and meets the
// projection contract stated on Scorer.
func (m *Model) Score(x []float64) float64 {
	return m.AcquireScorer().Score(x)
}

// ScoreAll scores every row through the model's shared compiled scorer, so
// a batch costs one output-slice allocation; the scores are identical to
// per-row Model.Score.
func (m *Model) ScoreAll(xs [][]float64) []float64 {
	return m.AcquireScorer().ScoreInto(make([]float64, len(xs)), xs)
}

// ScoreFrame scores every frame row through the model's shared compiled
// scorer; the batch costs one output-slice allocation and the scores are
// identical to per-row Model.Score.
func (m *Model) ScoreFrame(f *frame.Frame) []float64 {
	return m.AcquireScorer().ScoreFrame(make([]float64, f.N()), f)
}

// Reconstruct returns the point on the curve at score s mapped back into
// the original data space — the denoised observation f(s) of Eq. 11.
func (m *Model) Reconstruct(s float64) []float64 {
	return m.Norm.Invert(m.Curve.Eval(clamp01(s)))
}

// initCurve builds the initial Bézier layout: end points pinned by α, the
// k−1 interior points spaced along the main diagonal with deterministic
// seeded jitter (the paper initialises from random samples; a jittered
// diagonal is its deterministic, reproducible analogue).
func initCurve(opts Options, d, k int) *bezier.Curve {
	rng := rand.New(rand.NewSource(opts.Seed))
	p0 := make([]float64, d)
	pk := make([]float64, d)
	for j, s := range opts.Alpha {
		p0[j] = (1 - s) / 2
		pk[j] = (1 + s) / 2
	}
	pts := make([][]float64, k+1)
	pts[0] = p0
	pts[k] = pk
	for r := 1; r < k; r++ {
		p := make([]float64, d)
		if opts.initInner != nil {
			copy(p, opts.initInner[r-1])
			for j := range p {
				p[j] = clampTo(p[j], clampEps, 1-clampEps)
			}
		} else {
			t := float64(r) / float64(k)
			for j := 0; j < d; j++ {
				p[j] = p0[j] + t*(pk[j]-p0[j]) + 0.05*(rng.Float64()-0.5)
				p[j] = clampTo(p[j], clampEps, 1-clampEps)
			}
		}
		pts[r] = p
	}
	return bezier.MustNew(pts)
}

// constrainCurve re-pins the end points and clamps interior control points
// into [ε, 1−ε]^d after an unconstrained update step.
func constrainCurve(c *bezier.Curve, opts Options, d, k int) {
	for j, s := range opts.Alpha {
		c.Points[0][j] = (1 - s) / 2
		c.Points[k][j] = (1 + s) / 2
	}
	for r := 1; r < k; r++ {
		for j := 0; j < d; j++ {
			c.Points[r][j] = clampTo(c.Points[r][j], clampEps, 1-clampEps)
		}
	}
}

// projJob is one stripe of rows for a pool worker to project.
type projJob struct{ lo, hi int }

// projPool is the persistent projection worker pool of one fit run. It is
// built once per fit: worker goroutines park on per-worker job channels
// across iterations and all project through the pool's one engine, whose
// compiled curve project() rebuilds in place (engine.recompile) each
// iteration. Each worker owns a disjoint stripe of rows and every row's
// projection is independent of its stripe, so the worker count never
// changes a bit of the result.
//
// Lifetimes and synchronisation: the pool is owned by exactly one fit
// goroutine, which must close() it when the run ends (fitPrepared defers
// this) so the workers exit. Between a wg.Wait and the next channel send
// every worker is parked, which is what makes the in-place recompile and
// the caller's writes to scores/resid/warm race-free — channel send/receive
// and WaitGroup publish them. Stripes are disjoint, so no two goroutines
// ever write the same element, and worker w adds its warm hits to hits[w]
// alone.
type projPool struct {
	u        *frame.Frame
	eng      *engine
	chans    []chan projJob // one per extra worker goroutine
	wg       sync.WaitGroup
	scores   []float64
	resid    []float64
	warm     []float64 // previous scores; nil on cold passes
	warmRows int64     // rows of every warm pass so far
	hits     []int64   // validated warm basins, one slot per worker
}

// newProjPool builds the pool for u on the default seed grid, with
// workers resolved as Options.Workers is, spawning the extra goroutines
// immediately. Inputs under four rows per worker stay serial.
func newProjPool(c *bezier.Curve, u *frame.Frame, workers int) *projPool {
	p := &projPool{u: u, eng: newEngine(c, defaultGridCells)}
	workers = resolveWorkers(workers)
	if workers <= 1 || u.N() < 4*workers {
		workers = 1
	}
	p.hits = make([]int64, workers)
	for w := 1; w < workers; w++ {
		ch := make(chan projJob, 1)
		p.chans = append(p.chans, ch)
		go func(w int, ch chan projJob) {
			// The worker label makes pool goroutines identifiable in
			// profiles.
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("worker", "fit-proj")))
			for job := range ch {
				p.runRange(w, job.lo, job.hi)
				p.wg.Done()
			}
		}(w, ch)
	}
	return p
}

// project runs one score step against c: the shared compiled coefficients
// are rebuilt in place, then the rows fan out to the parked workers (the
// calling goroutine takes stripe 0). warm is the previous iteration's score
// per row, or nil for a cold pass; it may be scores itself, since each row
// reads its warm score before writing its new one. Rows whose warm basin
// fails validation fall back to the cold projection individually.
func (p *projPool) project(c *bezier.Curve, scores, resid, warm []float64) {
	p.eng.recompile(c)
	p.scores, p.resid, p.warm = scores, resid, warm
	n := p.u.N()
	if warm != nil {
		p.warmRows += int64(n)
	}
	W := len(p.chans) + 1
	if W == 1 || n < W {
		p.runRange(0, 0, n)
		return
	}
	chunk := (n + W - 1) / W
	for w := 1; w < W; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		p.wg.Add(1)
		p.chans[w-1] <- projJob{lo, hi}
	}
	p.runRange(0, 0, chunk)
	p.wg.Wait()
}

// runRange projects rows [lo, hi) for worker w, trying the warm start
// first when one is available. Cold passes (the first iteration and the
// final best-curve projection) grid-seed every row; warm rows are seeded
// from their previous score and never scan the grid unless the basin check
// fails.
func (p *projPool) runRange(w, lo, hi int) {
	e, warm := p.eng, p.warm
	if warm == nil {
		for i := lo; i < hi; i++ {
			p.scores[i], p.resid[i] = e.project(p.u.Row(i))
		}
		return
	}
	var hits int64
	for i := lo; i < hi; i++ {
		s, r2, hit := e.projectWarm(p.u.Row(i), warm[i])
		p.scores[i], p.resid[i] = s, r2
		if hit {
			hits++
		}
	}
	p.hits[w] += hits
}

// warmCounts reports the rows of every warm pass and their validated
// basins. Callable only between project calls, when every worker is
// parked (the WaitGroup publishes the workers' slots to the fit
// goroutine).
func (p *projPool) warmCounts() (rows, hits int64) {
	for _, h := range p.hits {
		hits += h
	}
	return p.warmRows, hits
}

// close shuts the worker goroutines down. The pool must not be used after.
func (p *projPool) close() {
	for _, ch := range p.chans {
		close(ch)
	}
}

// bernsteinBasisInto fills mz, the row-major (k+1)×n matrix MZ of Eq. 25,
// with the Bernstein basis of the scores: mz[r·n+i] = b_r(sᵢ) =
// Σ_{c≥r} M[r][c]·sᵢᶜ, where M = bezier.BernsteinToMonomial(k). The
// arithmetic is exactly that of the product M·Z over the monomial matrix
// Z[c][i] = sᵢᶜ (mat.MulInto): each sum starts at 0 and adds in c order,
// M's zero entries are skipped, and the powers come from repeated
// multiplication starting at 1. Degree 3, the default, runs straight-line
// with M's ten non-zero entries in registers: about 7× faster than the
// generic loop, which recomputes the powers for every basis row.
func bernsteinBasisInto(mz []float64, M [][]float64, scores []float64) {
	n := len(scores)
	if len(M) == 4 {
		m00, m01, m02, m03 := M[0][0], M[0][1], M[0][2], M[0][3]
		m11, m12, m13 := M[1][1], M[1][2], M[1][3]
		m22, m23 := M[2][2], M[2][3]
		m33 := M[3][3]
		b0, b1, b2, b3 := mz[:n], mz[n:2*n], mz[2*n:3*n], mz[3*n:4*n]
		for i, s := range scores {
			s1 := 1 * s
			s2 := s1 * s
			s3 := s2 * s
			b0[i] = 0 + m00*1 + m01*s1 + m02*s2 + m03*s3
			b1[i] = 0 + m11*s1 + m12*s2 + m13*s3
			b2[i] = 0 + m22*s2 + m23*s3
			b3[i] = 0 + m33*s3
		}
		return
	}
	for r, row := range M {
		br := mz[r*n : (r+1)*n]
		for i, s := range scores {
			var acc float64
			v := 1.0
			for _, mc := range row {
				if mc != 0 {
					acc += mc * v
				}
				v *= s
			}
			br[i] = acc
		}
	}
}

// curveIntoMat fills the pre-sized P (d×(k+1)) with the control points.
func curveIntoMat(P *mat.Dense, c *bezier.Curve) {
	for r, p := range c.Points {
		for j, v := range p {
			P.Set(j, r, v)
		}
	}
}

func matIntoCurve(P *mat.Dense, c *bezier.Curve) {
	for r := range c.Points {
		for j := range c.Points[r] {
			c.Points[r][j] = P.At(j, r)
		}
	}
}

func cloneCurve(c *bezier.Curve) *bezier.Curve {
	pts := make([][]float64, len(c.Points))
	for i, p := range c.Points {
		pts[i] = append([]float64{}, p...)
	}
	return bezier.MustNew(pts)
}

// copyCurveInto copies src's control-point values into dst (same layout),
// so tracking the best iterate never reallocates.
func copyCurveInto(dst, src *bezier.Curve) {
	for i, p := range src.Points {
		copy(dst.Points[i], p)
	}
}

// richardson is the preconditioned Richardson control-point step of
// Eq. 27–28 with its backtracking safeguard, plus the scratch it runs in,
// allocated once per fit run so the iteration loop stays allocation-flat.
type richardson struct {
	dinv []float64  // D⁻¹: reciprocal L2 column norms of A (Eq. 27)
	at   *mat.Dense // D^{-1/2}·A·D^{-1/2}, whose spectrum sets γ
	eigW *mat.Dense // mat.EigenRangeScratch work matrix
	r, g []float64  // backing of R and G
	R    *mat.Dense // residual P·A − B of the normal equations
	G    *mat.Dense // step direction R·D⁻¹
	rg   float64    // ⟨R, G⟩
	gag  float64    // ⟨G·A, G⟩
}

func newRichardson(d, kp1 int) *richardson {
	rc := &richardson{
		dinv: make([]float64, kp1),
		at:   mat.Zeros(kp1, kp1),
		eigW: mat.Zeros(kp1, kp1),
		r:    make([]float64, d*kp1),
		g:    make([]float64, d*kp1),
	}
	rc.R = mat.NewDense(d, kp1, rc.r)
	rc.G = mat.NewDense(d, kp1, rc.g)
	return rc
}

// nominalGamma sets the preconditioner D⁻¹ from A = (MZ)(MZ)ᵀ and returns
// the step size of Eq. 28, 2/(λ_min + λ_max), or 0 when the spectrum is
// degenerate.
//
// The step P ← P − γ(P·A − B)D⁻¹ contracts when γ is chosen from the
// spectrum of the *preconditioned* operator D^{-1/2}·A·D^{-1/2} (similar to
// A·D⁻¹); using the raw eigenvalues of A (the literal reading of Eq. 28)
// overshoots whenever D deviates from identity, so Eq. 28 is applied to
// the preconditioned matrix.
func (rc *richardson) nominalGamma(A *mat.Dense) float64 {
	mat.ColNormsInto(rc.dinv, A)
	for i, v := range rc.dinv {
		if v > 0 {
			rc.dinv[i] = 1 / v
		} else {
			rc.dinv[i] = 1
		}
	}
	for i := 0; i < A.Rows(); i++ {
		for j := 0; j < A.Cols(); j++ {
			rc.at.Set(i, j, A.At(i, j)*math.Sqrt(rc.dinv[i])*math.Sqrt(rc.dinv[j]))
		}
	}
	lo, hi := mat.EigenRangeScratch(rc.at, rc.eigW)
	if lo+hi > 0 {
		return 2 / (lo + hi)
	}
	return 0
}

// direction forms R = P·A − B and the step direction G = R·D⁻¹ (D⁻¹ from
// the last nominalGamma call), and the two inner products deltaJ needs.
func (rc *richardson) direction(P, A, B *mat.Dense) {
	mat.MulInto(rc.R, P, A)
	mat.SubInto(rc.R, rc.R, B)
	rc.G.CopyFrom(rc.R)
	mat.MulDiagRightInPlace(rc.G, rc.dinv)
	rc.rg = mat.Dot(rc.r, rc.g)
	// ⟨G·A, G⟩ = Σᵢ gᵢ·A·gᵢᵀ over the rows gᵢ of G.
	kp1 := A.Rows()
	rc.gag = 0
	for i := 0; i < P.Rows(); i++ {
		gi := rc.g[i*kp1 : (i+1)*kp1]
		for j, gj := range gi {
			var s float64
			for l, gl := range gi {
				s += A.At(j, l) * gl
			}
			rc.gag += gj * s
		}
	}
}

// deltaJ is J(P − γG) − J(P) for the fixed-Z objective of Eq. 24,
// J(P) = ‖X − P·MZ‖²_F, evaluated in Gram form: with A = (MZ)(MZ)ᵀ and
// B = X·MZᵀ, J(P) = ‖X‖²_F − 2⟨P, B⟩ + ⟨P·A, P⟩, so the change along G is
// −2γ⟨R, G⟩ + γ²⟨G·A, G⟩ and costs nothing n-sized.
func (rc *richardson) deltaJ(gamma float64) float64 {
	return gamma * (gamma*rc.gag - 2*rc.rg)
}

// step runs one safeguarded Richardson update of P in place, starting
// from the trial step gamma (nominalGamma in the fit): it halves gamma,
// at most 40 times, until the fixed-Z objective does not rise, so
// Algorithm 1's ΔJ < 0 stop never fires on the step's account. It returns
// the accepted step, or 0 with P untouched when every try rose.
func (rc *richardson) step(P, A, B *mat.Dense, gamma float64) float64 {
	rc.direction(P, A, B)
	for try := 0; try < 40; try++ {
		if rc.deltaJ(gamma) <= 0 || gamma == 0 {
			mat.SubScaledInto(P, P, gamma, rc.G)
			return gamma
		}
		gamma /= 2
	}
	return 0
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp01(v float64) float64 { return clampTo(v, 0, 1) }
