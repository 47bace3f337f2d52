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
// all requests; tasks are row ranges of a batch's shared frame, fanned out
// over a channel. Workers borrow compiled scorers from the model's internal
// pool (core.Model.AcquireScorer), so steady-state batches allocate neither
// row storage nor scorer scratch. The same workers decode a large score
// request's body and encode its answer, one row range a task (runRanges).
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

	// closeMu fences Close against in-flight ScoreFrame submitters: a
	// batch holds the read side while feeding the channel, so Close
	// cannot close it mid-send (a shutdown that drains slower than its
	// timeout would otherwise panic). After Close, submissions fail with
	// ErrPoolClosed.
	closeMu sync.RWMutex
	closed  bool
}

// poolTask is one shard of a batch. A score task (the zero kind) scores
// rows [lo, hi) of f into out[lo:hi]; the frame and output slice are
// shared across the batch's tasks, the ranges are disjoint, so no
// synchronisation beyond b.done is needed. tr, when non-nil, receives a
// score span for the shard; b carries the batch's context, barrier and
// panic slot. A decode or encode task runs range lo of st (see
// runRanges) and carries nothing else.
type poolTask struct {
	kind   taskKind
	st     *scoreState
	model  *core.Model
	f      *frame.Frame
	out    []float64
	lo, hi int
	shard  int32
	tr     *obs.Trace
	b      *scoreBatch
}

// scoreBatch is the per-batch state ScoreFrame shares with its shard
// tasks: ctx is the context the shards poll (nil when the batch cannot be
// cancelled), done the barrier the caller waits on, fail the first panic
// value of a worker.
// It comes from batchPool and goes back only after the batch's last task
// has called done.Done, so a steady-state batch allocates none of it. A
// batch whose worker panicked is dropped rather than returned: its panic
// is re-raised on the caller.
type scoreBatch struct {
	ctx  context.Context
	done sync.WaitGroup
	fail atomic.Pointer[any]
}

var batchPool = sync.Pool{New: func() any { return new(scoreBatch) }}

// release resets b and returns it to batchPool. The caller must be the
// batch's only remaining user: every task of it has finished.
func (b *scoreBatch) release() {
	b.ctx = nil
	batchPool.Put(b)
}

// taskKind says what a poolTask does.
type taskKind uint8

const (
	taskScore taskKind = iota
	taskDecode
	taskEncode
)

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
		if t.kind == taskScore {
			p.runTask(t)
		} else {
			p.runRangeTask(t)
		}
	}
}

// boxPanic boxes a recovered panic value for a batch's fail slot. Taking
// the address of recover()'s result in place would move that variable to
// the heap on every task, panic or not; here the box is made only when
// there is something to box.
func boxPanic(r any) *any { return &r }

// runTask scores one row range. A panic in Scorer.Score (a poison model,
// or an injected worker fault) must not kill the worker — and with it the
// process — nor leave the batch's WaitGroup hanging: it is captured for
// the submitter to re-raise on the request goroutine, where net/http's
// recover turns it into one failed request instead of a daemon crash. The
// borrowed scorer is dropped on panic rather than released, so a poisoned
// scratch never re-enters the model's pool. The trace span is recorded
// before done.Done(), so the submitter's Wait is the barrier that makes
// every shard span visible.
//
// Cancellation: when the batch is cancellable, the scorer polls its
// context every 64 rows, and a shard picked up after the context ended
// skips scoring entirely. Cancellation lands between rows only, so the
// borrowed scorer is released back to the model's pool in a clean state.
func (p *Pool) runTask(t poolTask) {
	p.busy.Add(1)
	var t0 time.Time
	if t.tr != nil {
		t0 = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			t.b.fail.CompareAndSwap(nil, boxPanic(r))
		}
		if t.tr != nil {
			t.tr.AddSpan(obs.StageScore, int(t.shard), t0, time.Now())
		}
		p.busy.Add(-1)
		t.b.done.Done()
	}()
	ctx := t.b.ctx
	if ctx != nil && ctx.Err() != nil {
		// The batch is already dead: free this worker without touching a
		// scorer. The shard still records its (empty) span.
		return
	}
	p.faults.Fire(faultinject.PointWorker)
	sc := t.model.AcquireScorer()
	n := p.scoreRange(ctx, sc, t.out, t.f, t.lo, t.hi)
	t.model.ReleaseScorer(sc)
	t.tr.AddRowsDone(n)
}

// runRangeTask decodes or encodes one range of a score request, with the
// same containment as runTask: a panic is captured for runRanges to
// re-raise on the request goroutine.
func (p *Pool) runRangeTask(t poolTask) {
	p.busy.Add(1)
	defer func() {
		if r := recover(); r != nil {
			t.st.fail.CompareAndSwap(nil, boxPanic(r))
		}
		p.busy.Add(-1)
		t.st.done.Done()
	}()
	t.st.runRange(t.kind, t.lo)
}

// runRanges runs one decode or encode stage over every range of st and
// returns when all are done. A single range runs inline on the caller, as
// does every range when there is no pool to run them or it has closed
// (the score that follows a decode then fails with ErrPoolClosed anyway).
// Otherwise each range is one task on the workers, and a worker's panic
// is re-raised here, on the request goroutine, as ScoreFrame does.
func (p *Pool) runRanges(st *scoreState, kind taskKind) {
	if p != nil && len(st.ranges) > 1 {
		p.closeMu.RLock()
		if !p.closed {
			st.done.Add(len(st.ranges))
			for i := range st.ranges {
				p.tasks <- poolTask{kind: kind, st: st, lo: i}
			}
			p.closeMu.RUnlock()
			st.done.Wait()
			if r := st.fail.Swap(nil); r != nil {
				panic(*r)
			}
			return
		}
		p.closeMu.RUnlock()
	}
	for i := range st.ranges {
		st.runRange(kind, i)
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
		e := b + faultChunk
		if e > hi {
			e = hi
		}
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
// Batches of at least concurrencyThreshold rows are split into row ranges
// scored by the pool over the shared frame; smaller ones run inline on a
// borrowed scorer. The scores are identical either way, and — beyond a
// possible dst growth — the steady-state batch performs no per-row
// allocation at all. When ctx carries an obs.Trace, each shard records a
// score span on it (worker index = shard); by return, all spans are
// visible.
//
// When ctx has a Done channel, the batch is cooperatively cancelled at
// row-block granularity: the error is ctx.Err(), the returned slice holds
// only partially valid scores, and the trace's RowsDone reports how far
// the batch got.
// After Close, ErrPoolClosed. The batch's own state (scoreBatch) is
// pooled, so with a dst of capacity f.N() a steady-state call allocates
// nothing, cancellable or not, inline or sharded.
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
	if p == nil || n < concurrencyThreshold {
		return p.scoreInline(ctx, tr, m, f, dst)
	}
	// Aim for a few chunks per worker so an uneven row mix still
	// balances, but never chunks so small the channel hops dominate.
	chunk := (n + 4*p.workers - 1) / (4 * p.workers)
	if chunk < concurrencyThreshold/2 {
		chunk = concurrencyThreshold / 2
	}
	b := batchPool.Get().(*scoreBatch)
	b.ctx = ctx
	dst, err := p.scoreSharded(b, tr, m, f, dst, chunk)
	b.release()
	return dst, err
}

// scoreSharded is the large-batch path: rows go to the workers in ranges
// of chunk rows over the shared frame, and the caller waits on b for them
// all. A worker's panic is re-raised here, so b is never released after
// one.
func (p *Pool) scoreSharded(b *scoreBatch, tr *obs.Trace, m *core.Model, f *frame.Frame, dst []float64, chunk int) ([]float64, error) {
	n := f.N()
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return dst[:0], ErrPoolClosed
	}
	shard := int32(0)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		b.done.Add(1)
		p.tasks <- poolTask{model: m, f: f, out: dst, lo: lo, hi: hi, shard: shard, tr: tr, b: b}
		shard++
	}
	p.closeMu.RUnlock()
	b.done.Wait()
	if r := b.fail.Load(); r != nil {
		// Re-raise the worker's panic on the request goroutine, where the
		// HTTP server's per-connection recover contains it.
		panic(*r)
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// scoreInline is the small-batch path: one borrowed scorer on the
// caller's goroutine, with the same cancellation contract as the sharded
// path.
func (p *Pool) scoreInline(ctx context.Context, tr *obs.Trace, m *core.Model, f *frame.Frame, dst []float64) ([]float64, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	sc := m.AcquireScorer()
	n := p.scoreRange(ctx, sc, dst, f, 0, f.N())
	m.ReleaseScorer(sc)
	tr.AddRowsDone(n)
	if tr != nil {
		tr.AddSpan(obs.StageScore, -1, t0, time.Now())
	}
	if n < f.N() {
		// Only an ended context stops the range scorer short.
		return dst, ctx.Err()
	}
	return dst, nil
}
