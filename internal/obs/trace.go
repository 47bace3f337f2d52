// Package obs is the dependency-free observability plane of the serving
// system: request traces with per-stage spans, request-ID generation,
// sharded lock-free metric primitives, a bounded ring of recent slow
// traces, and build identification. Everything here is written for the
// serving hot path's zero-allocation discipline — traces are pooled,
// spans live in a fixed in-trace buffer, counters are padded atomics —
// so instrumentation never shows up in an allocation profile. A trace
// keeps no deadline of its own: it is a context.Context over the request
// context it was started from, and a client deadline is that context's.
package obs

import (
	"context"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of a request's lifecycle. The stages mirror
// the serving pipeline: admit (admission-control wait — zero when the
// request took a free slot immediately), decode the body, validate shape
// and finiteness, normalize (resolve the model and stage the batch — the
// per-row min–max normalisation itself is fused into the score kernels
// and accounted under StageScore), score (one span per pool shard), and
// encode the response.
type Stage uint8

const (
	StageAdmit Stage = iota
	StageDecode
	StageValidate
	StageNormalize
	StageScore
	StageEncode
	numStages
)

// NumStages is the number of lifecycle stages.
const NumStages = int(numStages)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageAdmit:
		return "admit"
	case StageDecode:
		return "decode"
	case StageValidate:
		return "validate"
	case StageNormalize:
		return "normalize"
	case StageScore:
		return "score"
	case StageEncode:
		return "encode"
	}
	return "unknown"
}

// Span is one timed phase of a trace. Offsets are nanoseconds from the
// trace start, so a span is 24 bytes and the whole buffer sits inside the
// pooled Trace.
type Span struct {
	Stage   Stage
	Worker  int32 // shard index for concurrent score spans, -1 otherwise
	StartNs int64
	EndNs   int64
}

// MaxSpans bounds the per-trace span buffer. A scoring request records one
// span per sequential stage plus one per pool shard; shards beyond the
// buffer are counted in Dropped rather than grown onto the heap.
const MaxSpans = 48

// Trace is the per-request record: a monotonic ID, the wall-clock start,
// and a fixed buffer of stage spans. It doubles as a context.Context that
// answers for its own key and delegates everything else — deadline,
// cancellation, values — to the parent it was started from, which is how
// it travels through the scoring pool without a per-request context
// allocation.
// Sequential stages are recorded with EndStage; concurrent shards append
// with AddSpan, which is safe from multiple goroutines.
type Trace struct {
	parent context.Context
	id     uint64
	idStr  string
	start  time.Time
	cursor time.Time // end of the previous sequential stage

	// rowsDone accumulates rows actually scored across pool shards, so a
	// cancelled batch can report how much work it completed before its
	// workers were freed.
	rowsDone atomic.Int64

	nspans  atomic.Int32
	dropped atomic.Int32
	spans   [MaxSpans]Span
}

var tracePool sync.Pool

// StartTrace returns a pooled trace bound to parent, with a fresh request
// ID and the clock started. Steady state performs one allocation: the ID's
// string form (the trace itself is recycled). Release the trace when the
// request is done.
func StartTrace(parent context.Context) *Trace {
	t, _ := tracePool.Get().(*Trace)
	if t == nil {
		t = &Trace{}
	}
	t.parent = parent
	t.id, t.idStr = nextID()
	t.start = time.Now()
	t.cursor = t.start
	t.rowsDone.Store(0)
	t.nspans.Store(0)
	t.dropped.Store(0)
	return t
}

// AddRowsDone accumulates rows completed by one score shard, for the
// partial-work accounting of a cancelled batch.
func (t *Trace) AddRowsDone(n int) {
	if t == nil {
		return
	}
	t.rowsDone.Add(int64(n))
}

// RowsDone returns the rows completed so far across shards.
func (t *Trace) RowsDone() int {
	if t == nil {
		return 0
	}
	return int(t.rowsDone.Load())
}

// Release returns the trace to the pool. The caller must not use it — nor
// any context derived from it — afterwards.
func (t *Trace) Release() {
	t.parent = nil
	t.idStr = ""
	tracePool.Put(t)
}

// ID returns the monotonic numeric request ID.
func (t *Trace) ID() uint64 { return t.id }

// IDString returns the request-ID string sent in X-Request-Id headers and
// error bodies. It is formatted once at StartTrace.
func (t *Trace) IDString() string { return t.idStr }

// Start returns the wall-clock start of the trace.
func (t *Trace) Start() time.Time { return t.start }

// EndStage records a span for stage covering the time since the previous
// sequential mark (the trace start, or the last EndStage) and advances the
// mark. Only the goroutine owning the request may call it; concurrent
// shards use AddSpan.
func (t *Trace) EndStage(stage Stage) {
	if t == nil {
		return
	}
	now := time.Now()
	t.AddSpan(stage, -1, t.cursor, now)
	t.cursor = now
}

// SkipStage advances the sequential mark without recording a span, so a
// phase that should not be attributed to the next stage (idle waits,
// bookkeeping) stays out of the timings.
func (t *Trace) SkipStage() {
	if t == nil {
		return
	}
	t.cursor = time.Now()
}

// AddSpan appends a span for stage from start to end, attributed to the
// given worker shard (-1 for none). Safe for concurrent use; spans past
// MaxSpans are dropped and counted.
func (t *Trace) AddSpan(stage Stage, worker int, start, end time.Time) {
	if t == nil {
		return
	}
	i := t.nspans.Add(1) - 1
	if int(i) >= MaxSpans {
		t.nspans.Add(-1)
		t.dropped.Add(1)
		return
	}
	t.spans[i] = Span{
		Stage:   stage,
		Worker:  int32(worker),
		StartNs: start.Sub(t.start).Nanoseconds(),
		EndNs:   end.Sub(t.start).Nanoseconds(),
	}
}

// Spans returns the recorded spans as a read-only view. Only call once all
// concurrent recorders are done (after the scoring barrier).
func (t *Trace) Spans() []Span { return t.spans[:t.nspans.Load()] }

// Dropped reports how many spans did not fit the buffer.
func (t *Trace) Dropped() int { return int(t.dropped.Load()) }

// StageMillis aggregates span durations by stage, in milliseconds, and the
// number of pool shards the score stage ran on (0 when scoring was inline,
// recorded with worker -1). Concurrent score shards overlap in wall time,
// so the score figure is CPU-time-like (the sum across shards).
func (t *Trace) StageMillis() (ms [NumStages]float64, scoreShards int) {
	for _, sp := range t.Spans() {
		if sp.Stage < numStages {
			ms[sp.Stage] += float64(sp.EndNs-sp.StartNs) / 1e6
		}
		if sp.Stage == StageScore && sp.Worker >= 0 {
			scoreShards++
		}
	}
	return ms, scoreShards
}

// traceKey is the context key Trace answers to.
type traceKey struct{}

// Deadline implements context.Context by delegating to the parent.
func (t *Trace) Deadline() (time.Time, bool) { return t.parent.Deadline() }

// Done implements context.Context by delegating to the parent.
func (t *Trace) Done() <-chan struct{} { return t.parent.Done() }

// Err implements context.Context by delegating to the parent.
func (t *Trace) Err() error { return t.parent.Err() }

// Value implements context.Context: the trace answers for its own key and
// delegates everything else to the parent.
func (t *Trace) Value(key any) any {
	if _, ok := key.(traceKey); ok {
		return t
	}
	return t.parent.Value(key)
}

// FromContext returns the trace carried by ctx, or nil. Because a Trace is
// itself the context it is carried in, the lookup is one Value call with a
// zero-size key — no allocation on either side.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// LogAttrs renders the trace as structured log attributes: the request ID,
// per-stage millisecond timings (all five stages, zero when a stage did
// not run), the shard count of the score stage, and the dropped-span count
// when the buffer overflowed. The slice is freshly allocated — slow-path
// only.
func (t *Trace) LogAttrs() []slog.Attr {
	ms, shards := t.StageMillis()
	attrs := []slog.Attr{
		slog.String("request_id", t.idStr),
		slog.Float64("admit_ms", ms[StageAdmit]),
		slog.Float64("decode_ms", ms[StageDecode]),
		slog.Float64("validate_ms", ms[StageValidate]),
		slog.Float64("normalize_ms", ms[StageNormalize]),
		slog.Float64("score_ms", ms[StageScore]),
		slog.Float64("encode_ms", ms[StageEncode]),
		slog.Int("score_shards", shards),
	}
	if d := t.Dropped(); d > 0 {
		attrs = append(attrs, slog.Int("spans_dropped", d))
	}
	if n := t.RowsDone(); n > 0 {
		attrs = append(attrs, slog.Int("rows_done", n))
	}
	return attrs
}

// Request-ID generation: a per-process prefix (start time mixed with the
// pid, so restarts and concurrent processes produce distinct ID spaces)
// plus a monotonic sequence number.
var (
	idSeq    atomic.Uint64
	idPrefix = func() [4]byte {
		seed := uint64(time.Now().UnixNano()) * 0x9e3779b97f4a7c15
		seed ^= uint64(os.Getpid()) * 0xbf58476d1ce4e5b9
		seed ^= seed >> 29
		const hex = "0123456789abcdef"
		var p [4]byte
		for i := range p {
			p[i] = hex[(seed>>(4*i))&0xf]
		}
		return p
	}()
)

// nextID returns the next request ID and its string form ("r<prefix>-<seq>").
// One string allocation; the digits are built on the stack.
func nextID() (uint64, string) {
	seq := idSeq.Add(1)
	var buf [28]byte
	n := 0
	buf[n] = 'r'
	n++
	n += copy(buf[n:], idPrefix[:])
	buf[n] = '-'
	n++
	// Decimal digits of seq, written backwards then reversed.
	ds := n
	v := seq
	for {
		buf[n] = byte('0' + v%10)
		n++
		v /= 10
		if v == 0 {
			break
		}
	}
	for i, j := ds, n-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return seq, string(buf[:n])
}
