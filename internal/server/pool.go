package server

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/faultinject"
	"rpcrank/internal/frame"
	"rpcrank/internal/obs"
)

// concurrencyThreshold is the batch size below which sharding overhead
// outweighs the win and scoring stays on the caller's goroutine. Scoring
// one row costs a fraction of a microsecond, and handing ranges to the
// workers and waking them costs about as much as 100 rows: at -cpu 2,
// BenchmarkPoolScoreBatch splits 128 rows no faster than it scores them
// inline, and 256 rows about 1.35× faster.
const concurrencyThreshold = 256

// ErrPoolClosed is returned by ScoreFrame when the pool has
// been closed — a request racing shutdown. The server maps it to 503 with
// Retry-After so the client retries against a healthy node instead of
// having its batch silently stolen by a dying one.
var ErrPoolClosed = errors.New("scoring pool closed")

// Pool is a fixed-size worker pool that shards batch scoring across
// GOMAXPROCS goroutines. Row projections are independent (Eq. 22), so the
// sharded result is bit-identical to the serial one. One pool is shared by
// all requests. Every stage of a score request — decode, score, encode —
// splits into independent parts (row ranges of one shared frame), and all
// three go through one fan-out (fanOut): each part is one task on a
// channel, and the caller waits on the batch's barrier. Workers share the
// model's one immutable compiled scorer (core.Model.AcquireScorer), so
// steady-state batches allocate neither row storage nor scorers.
//
// Batches carrying a cancellable context (one with a Done channel: every
// HTTP request's has one, and a client deadline arms its timer) are
// cooperatively cancellable: workers poll it every 64 rows, and a
// context's error never clears, so once it ends every shard frees its
// worker at its next poll instead of finishing doomed work. Batches
// without a Done channel skip the polls.
type Pool struct {
	workers int
	tasks   chan poolTask
	wg      sync.WaitGroup
	busy    atomic.Int64 // workers currently inside a task

	// faults, when non-nil, is the fault-injection schedule: worker panics
	// at task pickup and latency between score sub-ranges.
	faults *faultinject.Faults

	// closeMu fences Close against in-flight fan-outs: a batch holds the
	// read side while feeding the channel, so Close cannot close it
	// mid-send (a shutdown that drains slower than its timeout would
	// otherwise panic). After Close, fan-outs report false.
	closeMu sync.RWMutex
	closed  bool
}

// part is one fan-out's work, split into independent parts: *scoreBatch
// scores row chunks, *scoreState decodes or encodes row ranges. runPart
// runs part i, on a pool worker when worker is set and on the caller
// otherwise; parts of one fan-out touch disjoint data, so they need no
// synchronisation beyond the barrier.
type part interface {
	runPart(i int, worker bool)
}

// barrier is a fan-out's completion state: the WaitGroup the caller waits
// on and the first panic value of a worker.
type barrier struct {
	wg   sync.WaitGroup
	fail atomic.Pointer[any]
}

// poolTask is part i of a fan-out.
type poolTask struct {
	part part
	b    *barrier
	i    int
}

// scoreBatch is one ScoreFrame call's state: it scores rows
// [i·chunk, (i+1)·chunk) of f into out as part i. ctx is the context the
// parts poll (nil when the batch cannot be cancelled); tr, when non-nil,
// receives one score span a part; short records that a part stopped before
// the end of its chunk, which only an ended context does. It comes from
// batchPool and goes back only after its fan-out returned, so a
// steady-state batch allocates none of it. A batch whose worker panicked
// is dropped rather than returned: its panic is re-raised on the caller.
type scoreBatch struct {
	barrier
	p     *Pool
	ctx   context.Context
	tr    *obs.Trace
	m     *core.Model
	f     *frame.Frame
	out   []float64
	chunk int
	short atomic.Bool
}

var batchPool = sync.Pool{New: func() any { return new(scoreBatch) }}

// NewPool starts a pool with the given number of workers (≤ 0 selects
// GOMAXPROCS). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan poolTask, 4*workers),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	// Label the worker goroutine so CPU profiles of rpcd separate pool
	// scoring from handler work.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("worker", "score-pool")))
	for t := range p.tasks {
		p.runTask(t)
	}
}

// boxPanic boxes a recovered panic value for a barrier's fail slot. Taking
// the address of recover()'s result in place would move that variable to
// the heap on every task, panic or not; here the box is made only when
// there is something to box.
func boxPanic(r any) *any { return &r }

// runTask runs one part on a worker. A panic in it (a poison model, or an
// injected worker fault) must not kill the worker — and with it the
// process — nor leave the fan-out's WaitGroup hanging: it is captured for
// fanOut to re-raise on the request goroutine, where net/http's recover
// turns it into one failed request instead of a daemon crash.
func (p *Pool) runTask(t poolTask) {
	p.busy.Add(1)
	defer func() {
		if r := recover(); r != nil {
			t.b.fail.CompareAndSwap(nil, boxPanic(r))
		}
		p.busy.Add(-1)
		t.b.wg.Done()
	}()
	t.part.runPart(t.i, true)
}

// fanOut runs parts 0 … n-1 of pt and returns when all are done. One part,
// or a nil pool, runs inline on the caller. Otherwise each part is one task
// on the workers, and a worker's panic is re-raised here, on the caller,
// once every part has finished. fanOut reports false, having run nothing,
// when the pool is closed.
func (p *Pool) fanOut(pt part, b *barrier, n int) bool {
	if p == nil || n == 1 {
		for i := 0; i < n; i++ {
			pt.runPart(i, false)
		}
		return true
	}
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return false
	}
	b.wg.Add(n)
	for i := 0; i < n; i++ {
		p.tasks <- poolTask{part: pt, b: b, i: i}
	}
	p.closeMu.RUnlock()
	b.wg.Wait()
	if r := b.fail.Swap(nil); r != nil {
		panic(*r)
	}
	return true
}

// runRanges runs one decode or encode stage over every range of st. With
// the pool closed the ranges run inline on the caller (the score that
// follows a decode then fails with ErrPoolClosed anyway).
func (p *Pool) runRanges(st *scoreState, kind rangeKind) {
	st.kind = kind
	if !p.fanOut(st, &st.barrier, len(st.ranges)) {
		for i := range st.ranges {
			st.runPart(i, false)
		}
	}
}

// runPart scores part i of the batch with the model's shared scorer and
// records its span: shard i on a worker, -1 inline. A part picked up after
// the batch's context ended skips the scorer entirely, still recording its
// (empty) span and marking the batch short; otherwise cancellation lands
// between rows.
func (b *scoreBatch) runPart(i int, worker bool) {
	var t0 time.Time
	if b.tr != nil {
		t0 = time.Now()
	}
	lo := i * b.chunk
	hi, n := min(lo+b.chunk, len(b.out)), 0
	if b.ctx == nil || b.ctx.Err() == nil {
		if worker {
			b.p.faults.Fire(faultinject.PointWorker)
		}
		n = b.p.scoreRange(b.ctx, b.m.AcquireScorer(), b.out, b.f, lo, hi)
		b.tr.AddRowsDone(n)
	}
	if n < hi-lo {
		b.short.Store(true)
	}
	if b.tr != nil {
		shard := -1
		if worker {
			shard = i
		}
		b.tr.AddSpan(obs.StageScore, shard, t0, time.Now())
	}
}

// scoreRange scores [lo, hi) through the cancellable range scorer. With a
// fault schedule configured it splits the range into sub-ranges with a
// PointScoreBlock firing between them, so injected latency lands inside a
// shard — the window deadline cancellation must close. Without one (the
// production path) it is a single call.
func (p *Pool) scoreRange(ctx context.Context, sc *core.Scorer, out []float64, f *frame.Frame, lo, hi int) int {
	if p == nil || p.faults == nil {
		return sc.ScoreFrameRangeCtx(ctx, out, f, lo, hi)
	}
	const faultChunk = 256
	total := 0
	for b := lo; b < hi; b += faultChunk {
		e := min(b+faultChunk, hi)
		p.faults.Fire(faultinject.PointScoreBlock)
		n := sc.ScoreFrameRangeCtx(ctx, out, f, b, e)
		total += n
		if n < e-b {
			break
		}
	}
	return total
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Stats reports the pool's live state: tasks waiting in the queue, workers
// currently scoring, and the pool size. Queue depth and busy count are
// instantaneous reads for gauges, not a consistent snapshot.
func (p *Pool) Stats() (queue, busy, workers int) {
	return len(p.tasks), int(p.busy.Load()), p.workers
}

// Close stops the workers after in-flight batches finish submitting.
// ScoreFrame calls that race with (or follow) Close fail with
// ErrPoolClosed, which the server answers 503 + Retry-After — shutdown
// neither panics a handler nor silently serves from a dying node.
func (p *Pool) Close() {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.closeMu.Unlock()
	p.wg.Wait()
}

// ScoreFrame scores every row of f with m into dst (reused when it has the
// capacity, allocated otherwise) and returns the slice of f.N() scores.
// Batches of at least concurrencyThreshold rows are split into row chunks
// scored by the pool over the shared frame; smaller ones are one part, run
// inline on the shared scorer. The scores are identical either way, and —
// beyond a possible dst growth — the steady-state batch performs no per-row
// allocation at all. When ctx carries an obs.Trace, each part records a
// score span on it (worker index = shard, -1 inline); by return, all spans
// are visible.
//
// When ctx has a Done channel, the batch is cooperatively cancelled at
// row-block granularity: a batch its context stopped short fails with
// ctx.Err(), the returned slice holds only partially valid scores, and the
// trace's RowsDone reports how far the batch got. A batch that scored every
// row returns them, even if its context ended after the last poll.
// A batch of more than one part fails with ErrPoolClosed after Close. The
// batch's own state (scoreBatch) is pooled, so with a dst of capacity
// f.N() a steady-state call allocates nothing, cancellable or not, inline
// or sharded.
func (p *Pool) ScoreFrame(ctx context.Context, m *core.Model, f *frame.Frame, dst []float64) ([]float64, error) {
	tr := obs.FromContext(ctx)
	n := f.N()
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // nothing can cancel the batch: skip the polls
	}
	if ctx != nil && ctx.Err() != nil {
		return dst[:0], ctx.Err()
	}
	chunk, parts := n, 1
	if p != nil && n >= concurrencyThreshold {
		// Aim for a few chunks per worker so an uneven row mix still
		// balances, but never chunks so small the channel hops dominate.
		chunk = max((n+4*p.workers-1)/(4*p.workers), concurrencyThreshold/2)
		parts = (n + chunk - 1) / chunk
	}
	b := batchPool.Get().(*scoreBatch)
	b.p, b.ctx, b.tr, b.m, b.f, b.out, b.chunk = p, ctx, tr, m, f, dst, chunk
	ok := p.fanOut(b, &b.barrier, parts)
	short := b.short.Swap(false)
	b.p, b.ctx, b.tr, b.m, b.f, b.out = nil, nil, nil, nil, nil, nil
	batchPool.Put(b)
	if !ok {
		return dst[:0], ErrPoolClosed
	}
	if short {
		return dst, ctx.Err()
	}
	return dst, nil
}
