package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/internal/obs"
)

// Shed reasons label the admission-control rejection counters, so /metrics
// tells apart a full queue from an infeasible deadline from a draining
// node.
const (
	shedQueueFull = iota // per-model wait queue at capacity
	shedBytes            // server-wide in-flight byte budget exhausted
	shedRows             // server-wide in-flight row budget exhausted
	shedDeadline         // deadline cannot cover the model's p50, or passed while queued
	shedExpired          // deadline passed before admission or mid-batch, or the client went away
	shedDraining         // node is draining
	shedClosed           // scoring pool already closed (shutdown race)
	numShedReasons
)

var shedReasonNames = [numShedReasons]string{
	"queue_full", "bytes", "rows", "deadline", "expired", "draining", "closed",
}

// admitWaitBucketsMs is the wait-time histogram ladder for admission
// queueing — finer at the low end than the request-latency ladder, because
// a healthy queue wait is sub-millisecond.
var admitWaitBucketsMs = []float64{0.1, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

var admitWaitBucketsUs = func() []int64 {
	us := make([]int64, len(admitWaitBucketsMs))
	for i, ms := range admitWaitBucketsMs {
		us[i] = int64(ms * 1000)
	}
	return us
}()

// errShed is the sentinel family for admission rejections; writeError maps
// the embedded status (429 or 503) and stamps Retry-After.
type shedError struct {
	status int
	reason int
	msg    string
}

func (e *shedError) Error() string { return e.msg }

// budget is a server-wide in-flight resource budget (bytes or rows):
// acquire adds and checks, release subtracts. Add-then-check keeps the
// fast path one atomic RMW; the transient overshoot between Add and the
// rollback is bounded by one request's charge.
type budget struct {
	cur atomic.Int64
	max int64 // <= 0 disables the budget
}

func (b *budget) tryAcquire(n int64) bool {
	if b.max <= 0 || n <= 0 {
		return true
	}
	if b.cur.Add(n) > b.max {
		b.cur.Add(-n)
		return false
	}
	return true
}

func (b *budget) release(n int64) {
	if b.max <= 0 || n <= 0 {
		return
	}
	b.cur.Add(-n)
}

func (b *budget) load() int64 { return b.cur.Load() }

// limiter bounds one model's concurrent scoring requests plus a bounded
// wait queue. slots is a buffered channel used as a counting semaphore,
// its length the active count; waiting counts requests holding a queue
// place (reading their body or parked for a slot) — one past the cap is
// shed immediately instead of queued.
type limiter struct {
	slots   chan struct{}
	waiting atomic.Int64
	maxWait int64
}

func newLimiter(concurrency, queue int) *limiter {
	return &limiter{slots: make(chan struct{}, concurrency), maxWait: int64(queue)}
}

// reserve takes a free slot (held is true) or, with every slot taken, a
// place in the wait queue, without blocking, and sheds the request when
// the queue is full. A queued request goes on to wait, or gives its place
// back with unreserve.
func (l *limiter) reserve() (held bool, err error) {
	select {
	case l.slots <- struct{}{}:
		return true, nil
	default:
	}
	if l.waiting.Add(1) > l.maxWait {
		l.waiting.Add(-1)
		return false, &shedError{status: http.StatusTooManyRequests, reason: shedQueueFull,
			msg: "model queue full; retry later"}
	}
	return false, nil
}

// wait parks a request reserve queued until a slot frees, giving up the
// queue place either way. It returns the time spent waiting, and an error
// when ctx ended while parked: shedDeadline when its deadline passed,
// shedExpired when the client went away.
func (l *limiter) wait(ctx context.Context) (time.Duration, error) {
	defer l.waiting.Add(-1)
	t0 := time.Now()
	select {
	case l.slots <- struct{}{}:
		return time.Since(t0), nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return time.Since(t0), &shedError{status: http.StatusServiceUnavailable, reason: shedDeadline,
				msg: "deadline expired while queued for admission"}
		}
		return time.Since(t0), &shedError{status: http.StatusServiceUnavailable, reason: shedExpired,
			msg: "request cancelled while queued for admission"}
	}
}

// unreserve gives back what reserve took, for a request that fails before
// it waits: the slot when held, the queue place otherwise.
func (l *limiter) unreserve(held bool) {
	if held {
		l.release()
	} else {
		l.waiting.Add(-1)
	}
}

func (l *limiter) release() { <-l.slots }

// stats returns the limiter's instantaneous active and queued counts.
func (l *limiter) stats() (active, queued int64) {
	return int64(len(l.slots)), l.waiting.Load()
}

// admission is the server's overload-protection state: global byte/row
// budgets and the per-model limiter table. The table is capped like the
// per-model metric series — models past the cap share one overflow
// limiter, so a client minting model names can neither grow the map
// unboundedly nor dodge the brakes.
type admission struct {
	bytes budget
	rows  budget

	concurrency int
	queue       int

	mu       sync.RWMutex
	limiters map[string]*limiter
	overflow *limiter

	shed     [numShedReasons]obs.Counter
	waitHist *obs.Histogram
}

func newAdmission(o Options) *admission {
	return &admission{
		bytes:       budget{max: o.MaxInFlightBytes},
		rows:        budget{max: o.MaxInFlightRows},
		concurrency: o.ModelConcurrency,
		queue:       o.ModelQueue,
		limiters:    make(map[string]*limiter),
		waitHist:    obs.NewHistogram(admitWaitBucketsUs),
	}
}

// limiter returns the model's limiter, creating it on first use; past
// maxModelSeries distinct models the shared overflow limiter is returned.
func (a *admission) limiter(id string) *limiter {
	a.mu.RLock()
	l := a.limiters[id]
	a.mu.RUnlock()
	if l != nil {
		return l
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if l := a.limiters[id]; l != nil {
		return l
	}
	if len(a.limiters) >= maxModelSeries {
		if a.overflow == nil {
			a.overflow = newLimiter(a.concurrency, a.queue)
		}
		return a.overflow
	}
	l = newLimiter(a.concurrency, a.queue)
	a.limiters[id] = l
	return l
}

// recordShed counts one rejection under its reason.
func (a *admission) recordShed(key uint64, reason int) {
	a.shed[reason].Add(key, 1)
}

// each calls fn on every limiter, the shared overflow one as "_overflow".
func (a *admission) each(fn func(id string, l *limiter)) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for id, l := range a.limiters {
		fn(id, l)
	}
	if a.overflow != nil {
		fn("_overflow", a.overflow)
	}
}

// totals sums active and queued requests across every limiter, for the
// scrape-time gauges.
func (a *admission) totals() (active, queued int64) {
	a.each(func(_ string, l *limiter) {
		act, q := l.stats()
		active += act
		queued += q
	})
	return active, queued
}

// admissionModelState is one model's live limiter state, for /statusz.
type admissionModelState struct {
	Model  string `json:"model"`
	Active int64  `json:"active"`
	Queued int64  `json:"queued"`
}

// snapshotModels returns the non-idle limiters, for /statusz.
func (a *admission) snapshotModels() []admissionModelState {
	var out []admissionModelState
	a.each(func(id string, l *limiter) {
		if active, queued := l.stats(); active != 0 || queued != 0 {
			out = append(out, admissionModelState{Model: id, Active: active, Queued: queued})
		}
	})
	return out
}

// parseDeadline extracts the client deadline from the X-Deadline-Ms header
// or the deadline_ms query parameter (header wins), capped by maxDeadline.
// It returns 0 when no deadline was requested. The header path allocates
// nothing; the query path only parses when the raw query mentions the
// parameter.
func parseDeadline(r *http.Request, maxDeadline time.Duration) (time.Duration, error) {
	v := r.Header.Get("X-Deadline-Ms")
	if v == "" && strings.Contains(r.URL.RawQuery, "deadline_ms=") {
		v = r.URL.Query().Get("deadline_ms")
	}
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, badRequest("invalid deadline %q: want a positive integer of milliseconds", v)
	}
	// More milliseconds than a Duration holds would wrap negative and
	// silently drop the deadline; saturate instead, so the cap applies.
	d := time.Duration(math.MaxInt64)
	if ms <= int64(d/time.Millisecond) {
		d = time.Duration(ms) * time.Millisecond
	}
	if maxDeadline > 0 && d > maxDeadline {
		d = maxDeadline
	}
	return d, nil
}
