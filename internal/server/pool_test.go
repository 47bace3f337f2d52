package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/faultinject"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

func poolTestModel(t *testing.T) *core.Model {
	t.Helper()
	rows := make([][]float64, 32)
	for i := range rows {
		u := float64(i) / 31
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	m, err := core.Fit(rows, core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScoreFrameAfterCloseReturnsErrPoolClosed(t *testing.T) {
	m := poolTestModel(t)
	rows := make([][]float64, 2*concurrencyThreshold)
	for i := range rows {
		u := float64(i) / float64(len(rows)-1)
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	f := frame.MustFromRows(rows)
	pool := NewPool(2)
	if out, err := pool.ScoreFrame(context.Background(), m, f, nil); err != nil || len(out) != len(rows) {
		t.Fatalf("pre-close batch: err=%v len=%d", err, len(out))
	}
	pool.Close()
	// A batch after Close (e.g. a request landing during shutdown drain)
	// must neither panic on the closed channel nor silently score on the
	// dying node: it fails fast so the server answers 503 + Retry-After.
	out, err := pool.ScoreFrame(context.Background(), m, f, nil)
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close batch: err=%v, want ErrPoolClosed", err)
	}
	if len(out) != 0 {
		t.Fatalf("post-close batch returned %d scores; want none", len(out))
	}
	pool.Close() // idempotent
}

func TestWorkerPanicSurfacesOnCallerNotWorker(t *testing.T) {
	m := poolTestModel(t)
	rows := make([][]float64, 2*concurrencyThreshold)
	for i := range rows {
		rows[i] = []float64{1, 1} // wrong dimension: Model.Score panics
	}
	pool := NewPool(2)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Errorf("panic not re-raised on the calling goroutine")
		}
		// The pool must still work after containing a poison batch.
		good := make([][]float64, 2*concurrencyThreshold)
		for i := range good {
			good[i] = []float64{1, 2, 3}
		}
		if out, err := pool.ScoreFrame(context.Background(), m, frame.MustFromRows(good), nil); err != nil || len(out) != len(good) {
			t.Errorf("pool broken after contained panic (err=%v)", err)
		}
	}()
	pool.ScoreFrame(context.Background(), m, frame.MustFromRows(rows), nil)
}

func TestPoolConcurrentBatchesDuringClose(t *testing.T) {
	m := poolTestModel(t)
	rows := make([][]float64, 4*concurrencyThreshold)
	for i := range rows {
		u := float64(i) / float64(len(rows)-1)
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	f := frame.MustFromRows(rows)
	pool := NewPool(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Racing Close, a batch either completes in full or fails fast
			// with ErrPoolClosed; nothing in between, and no panic.
			out, err := pool.ScoreFrame(context.Background(), m, f, nil)
			if err == nil && len(out) != len(rows) {
				t.Errorf("short result: %d", len(out))
			}
			if err != nil && !errors.Is(err, ErrPoolClosed) {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	pool.Close() // races the batches; must not panic any submitter
	wg.Wait()
}

// TestPoolMatchesSerialAcrossModels: every model kind takes the same
// float64 path through the pool — sharded ScoreFrame must be
// bit-identical to serial Model.ScoreAll for cubic, non-cubic and
// quintic-projector models alike, on rows off the training curve too.
func TestPoolMatchesSerialAcrossModels(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"deg2", core.Options{Degree: 2}},
		{"cubic", core.Options{}},
		{"deg4", core.Options{Degree: 4}},
		{"deg5", core.Options{Degree: 5}},
		{"deg6", core.Options{Degree: 6}},
		{"quintic", core.Options{Projector: core.ProjectorQuintic}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Alpha = order.MustDirection(1, 1, -1)
			opts.Seed = 3
			m, err := core.Fit(trainingRows(24), opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			rows := trainingRows(4 * concurrencyThreshold)
			for _, r := range rows {
				for j := range r {
					r[j] += rng.NormFloat64()
				}
			}
			f, err := frame.FromRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(2)
			defer pool.Close()
			want := m.ScoreAll(rows)
			got, err := pool.ScoreFrame(context.Background(), m, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d scores, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: pooled ScoreFrame %v != serial %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestScoreFrameAlreadyCancelledScoresNothing(t *testing.T) {
	m := poolTestModel(t)
	f, err := frame.FromRows(trainingRows(4 * concurrencyThreshold))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := pool.ScoreFrame(ctx, m, f, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("cancelled batch returned %d scores", len(out))
	}
}

// TestScoreFrameCancelMidBatchLeavesScorersClean cancels a batch between
// row blocks (injected latency holds it open long enough) and then checks
// the cancellation parity contract: the model's scorer pool must come back
// consistent, producing bit-identical scores to the serial path.
func TestScoreFrameCancelMidBatchLeavesScorersClean(t *testing.T) {
	m := poolTestModel(t)
	rows := trainingRows(4096)
	f, err := frame.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	fj := faultinject.New(1)
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{Latency: 10 * time.Millisecond, LatencyProb: 1})
	pool := NewPool(2)
	pool.faults = fj
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	out, err := pool.ScoreFrame(ctx, m, f, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_ = out

	// Disarm the faults and rescore: the recycled scorers must match the
	// serial reference exactly.
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{})
	got, err := pool.ScoreFrame(context.Background(), m, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := m.ScoreAll(rows)
	if len(got) != len(want) {
		t.Fatalf("rescore returned %d scores, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: pooled rescore %v != serial %v", i, got[i], want[i])
		}
	}
}
