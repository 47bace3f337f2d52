// Package load sends HTTP request streams to rpcd and classifies every
// answer. It provides closed-loop senders, a paced open-loop stream, the
// failure taxonomy the benchmark reports, and exact nearest-rank quantiles
// over raw samples.
package load

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// Outcome classifies one request.
type Outcome int

const (
	// OK is a 2xx answer whose body passed its check.
	OK Outcome = iota
	// Error is a transport failure: no complete response arrived.
	Error
	// Shed is a 429 or 503: the server refused the work.
	Shed
	// Non2xx is any other status outside 2xx.
	Non2xx
	// Mismatch is a 2xx answer whose body failed its check.
	Mismatch
	// NumOutcomes sizes arrays indexed by Outcome.
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{"ok", "error", "shed", "non_2xx", "mismatch"}

func (o Outcome) String() string {
	if o < 0 || o >= NumOutcomes {
		return fmt.Sprintf("outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// Classify maps one exchange onto the taxonomy. check runs only on a 2xx
// body; a nil check accepts every body. The returned error explains any
// outcome other than OK.
func Classify(status int, err error, body []byte, check func([]byte) error) (Outcome, error) {
	switch {
	case err != nil:
		return Error, err
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return Shed, fmt.Errorf("status %d: %.200s", status, body)
	case status < 200 || status > 299:
		return Non2xx, fmt.Errorf("status %d: %.200s", status, body)
	case check != nil:
		if cerr := check(body); cerr != nil {
			return Mismatch, cerr
		}
	}
	return OK, nil
}

// Request is one request a stream sends: a POST of Body to URL.
type Request struct {
	URL  string
	Body []byte
	// Rows is the work the request carries; it is added to Stats.Rows when
	// the request succeeds.
	Rows int
	// Header, when non-nil, is added to the request's headers.
	Header http.Header
	// Check verifies a 2xx body; nil accepts every body.
	Check func(body []byte) error
}

// Stats is what one or more streams observed in one window.
type Stats struct {
	// Counts holds the number of requests per Outcome.
	Counts [NumOutcomes]int64
	// Latencies holds one sample in milliseconds per OK request, in
	// completion order per stream.
	Latencies []float64
	// Lags holds, for paced streams, how late each request was sent
	// relative to its due time, in milliseconds.
	Lags []float64
	// Rows sums Request.Rows over OK requests.
	Rows int64
	// Elapsed is the window's wall time, until its last request completed.
	Elapsed time.Duration
	// FirstErr describes the first request that was not OK.
	FirstErr error
}

// Attempted is the number of requests sent.
func (s *Stats) Attempted() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Failed is the number of requests that were not OK.
func (s *Stats) Failed() int64 { return s.Attempted() - s.Counts[OK] }

// Merge adds o's requests to s. Elapsed becomes the longer of the two,
// because merged streams run side by side.
func (s *Stats) Merge(o *Stats) {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Latencies = append(s.Latencies, o.Latencies...)
	s.Lags = append(s.Lags, o.Lags...)
	s.Rows += o.Rows
	s.Elapsed = max(s.Elapsed, o.Elapsed)
	if s.FirstErr == nil {
		s.FirstErr = o.FirstErr
	}
}

// Append adds o, a later window of the same streams, to s: unlike Merge,
// it adds the two windows' Elapsed.
func (s *Stats) Append(o *Stats) {
	elapsed := s.Elapsed + o.Elapsed
	s.Merge(o)
	s.Elapsed = elapsed
}

func (s *Stats) record(req Request, out Outcome, lat time.Duration, err error) {
	s.Counts[out]++
	if out == OK {
		s.Latencies = append(s.Latencies, ms(lat))
		s.Rows += int64(req.Rows)
		return
	}
	if s.FirstErr == nil {
		s.FirstErr = fmt.Errorf("%s %s: %w", out, req.URL, err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Client is one sender holding at most one connection, so a stream of N
// clients never opens more than N connections at a time.
type Client struct {
	tr  *http.Transport
	hc  *http.Client
	buf bytes.Buffer
}

// NewClient returns a client with its own transport.
func NewClient() *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &Client{tr: tr, hc: &http.Client{Transport: tr}}
}

// Close drops the client's idle connection.
func (c *Client) Close() { c.tr.CloseIdleConnections() }

// Do sends req, reads the whole answer and classifies it. The latency runs
// from the send to the last response byte. The returned body is valid
// until the next call of Do.
func (c *Client) Do(ctx context.Context, req Request) (Outcome, time.Duration, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, req.URL, bytes.NewReader(req.Body))
	if err != nil {
		return Error, 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, vs := range req.Header {
		hreq.Header[k] = vs
	}
	start := time.Now()
	status, err := c.send(hreq)
	lat := time.Since(start)
	if err != nil {
		// A broken connection is not reused: the next send reconnects.
		c.tr.CloseIdleConnections()
		return Error, lat, nil, err
	}
	body := c.buf.Bytes()
	out, err := Classify(status, nil, body, req.Check)
	return out, lat, body, err
}

func (c *Client) send(hreq *http.Request) (int, error) {
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// ClosedLoop runs one goroutine per client for d, or until ctx ends. Each
// sends its next request only after the previous one completed, as callers
// that wait for every reply do. next(client, i) gives the i-th request of
// that client. A request that starts inside the window is waited for.
func ClosedLoop(ctx context.Context, clients []*Client, d time.Duration, next func(client, i int) Request) Stats {
	start := time.Now()
	stop := start.Add(d)
	per := make([]Stats, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[ci]
			for i := 0; time.Now().Before(stop) && ctx.Err() == nil; i++ {
				req := next(ci, i)
				out, lat, _, err := c.Do(ctx, req)
				if out != OK && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
					break // cancelled, not failed
				}
				st.record(req, out, lat, err)
			}
		}()
	}
	wg.Wait()
	var total Stats
	for i := range per {
		total.Merge(&per[i])
	}
	total.Elapsed = time.Since(start)
	return total
}

// Paced sends the i-th request at start + i·interval on one client for d,
// or until ctx ends: an open loop whose schedule does not wait for the
// server. When a request overruns its successors' due times they are sent
// at once. Latency runs from the due time, so a stall counts against every
// request it delayed; Stats.Lags records how late each send was.
func Paced(ctx context.Context, c *Client, interval, d time.Duration, next func(i int) Request) Stats {
	var st Stats
	start := time.Now()
	// Reset on a fired timer is safe from go 1.23 on: no stale tick remains.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(start.Add(d)) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				st.Elapsed = time.Since(start)
				return st
			case <-timer.C:
			}
		}
		st.Lags = append(st.Lags, ms(time.Since(due)))
		req := next(i)
		out, _, _, err := c.Do(ctx, req)
		if out != OK && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			break
		}
		st.record(req, out, time.Since(due), err)
	}
	st.Elapsed = time.Since(start)
	return st
}

// Quantile returns the nearest-rank p-th percentile of sorted, for
// 0 < p ≤ 100: the smallest sample that at least p% of the samples do not
// exceed. It interpolates nothing, so the result is always a sample. It
// returns NaN when there are no samples.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps p·n that is integral in exact arithmetic, such as
	// 99·300/100, from rounding up to the next rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}
