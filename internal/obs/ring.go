package obs

import (
	"sync"
	"time"
)

// TraceSummary is the retained form of a slow request: everything /statusz
// needs, copied out of the pooled Trace before it is recycled.
type TraceSummary struct {
	RequestID string    `json:"request_id"`
	Route     string    `json:"route"`
	Model     string    `json:"model,omitempty"`
	Status    int       `json:"status"`
	Rows      int       `json:"rows,omitempty"`
	Start     time.Time `json:"start"`
	TotalMs   float64   `json:"total_ms"`

	AdmitMs     float64 `json:"admit_ms"`
	DecodeMs    float64 `json:"decode_ms"`
	ValidateMs  float64 `json:"validate_ms"`
	NormalizeMs float64 `json:"normalize_ms"`
	ScoreMs     float64 `json:"score_ms"`
	EncodeMs    float64 `json:"encode_ms"`
	ScoreShards int     `json:"score_shards,omitempty"`
	// PartialRows is the rows a cancelled batch completed before its
	// workers were freed (0 for requests that ran to completion).
	PartialRows int `json:"partial_rows,omitempty"`
	// UpstreamRequestID is the forwarding node's request ID when the
	// request crossed one cluster hop (set by the server, not Summarize).
	UpstreamRequestID string `json:"upstream_request_id,omitempty"`
}

// Summarize fills a TraceSummary from the trace's spans plus the
// request-level fields the server knows (route, model, status, rows).
func Summarize(t *Trace, route, model string, status, rows int, total time.Duration) TraceSummary {
	ms, shards := t.StageMillis()
	partial := 0
	if rows == 0 {
		// A completed request reports its rows directly; a cancelled one
		// has none, so the shard-accumulated progress is the story.
		partial = t.RowsDone()
	}
	return TraceSummary{
		RequestID:   t.IDString(),
		Route:       route,
		Model:       model,
		Status:      status,
		Rows:        rows,
		Start:       t.Start(),
		TotalMs:     float64(total.Nanoseconds()) / 1e6,
		AdmitMs:     ms[StageAdmit],
		DecodeMs:    ms[StageDecode],
		ValidateMs:  ms[StageValidate],
		NormalizeMs: ms[StageNormalize],
		ScoreMs:     ms[StageScore],
		EncodeMs:    ms[StageEncode],
		ScoreShards: shards,
		PartialRows: partial,
	}
}

// Ring is a bounded, mutex-guarded buffer of the most recent slow-request
// summaries. It sits strictly off the hot path (only requests over the slow
// threshold enter), so a plain mutex is the right tool.
type Ring struct {
	mu   sync.Mutex
	buf  []TraceSummary
	next int
	full bool
}

// NewRing returns a ring retaining the last n summaries (n ≥ 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]TraceSummary, n)}
}

// Push records a summary, evicting the oldest when full.
func (r *Ring) Push(s TraceSummary) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained summaries, newest first.
func (r *Ring) Snapshot() []TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceSummary, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the slot before next, wrapping.
		j := r.next - 1 - i
		if j < 0 {
			j += len(r.buf)
		}
		out = append(out, r.buf[j])
	}
	return out
}

// Len returns the number of retained summaries.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
