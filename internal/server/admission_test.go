package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"rpcrank/internal/faultinject"
	"rpcrank/internal/registry"
)

func newTestServerOpts(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// scoreReq posts a score request, optionally with a client deadline.
func scoreReq(t *testing.T, ts *httptest.Server, model string, rows [][]float64, deadlineMs int) *http.Response {
	t.Helper()
	raw, err := json.Marshal(ScoreRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/"+model+"/score", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(deadlineMs))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParseDeadline(t *testing.T) {
	mk := func(header, query string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/models/m/score"+query, nil)
		if header != "" {
			r.Header.Set("X-Deadline-Ms", header)
		}
		return r
	}
	if d, err := parseDeadline(mk("", ""), time.Minute); err != nil || d != 0 {
		t.Fatalf("no deadline: d=%v err=%v", d, err)
	}
	if d, err := parseDeadline(mk("250", ""), time.Minute); err != nil || d != 250*time.Millisecond {
		t.Fatalf("header deadline: d=%v err=%v", d, err)
	}
	if d, err := parseDeadline(mk("", "?deadline_ms=40"), time.Minute); err != nil || d != 40*time.Millisecond {
		t.Fatalf("query deadline: d=%v err=%v", d, err)
	}
	// Header wins over query.
	if d, _ := parseDeadline(mk("10", "?deadline_ms=99999"), time.Minute); d != 10*time.Millisecond {
		t.Fatalf("header should win: d=%v", d)
	}
	// Values above the cap clamp silently.
	if d, err := parseDeadline(mk("500000", ""), time.Second); err != nil || d != time.Second {
		t.Fatalf("cap: d=%v err=%v", d, err)
	}
	// A count past what a Duration holds saturates, so the cap still
	// applies instead of the value wrapping negative.
	if d, err := parseDeadline(mk("9223372036854775807", ""), time.Second); err != nil || d != time.Second {
		t.Fatalf("overflowing deadline: d=%v err=%v", d, err)
	}
	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		if _, err := parseDeadline(mk(bad, ""), time.Minute); err == nil {
			t.Fatalf("deadline %q accepted", bad)
		}
	}
}

func TestBadDeadlineRejected400(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "m")
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/m/score", strings.NewReader(`{"rows":[[1,2,3]]}`))
	req.Header.Set("X-Deadline-Ms", "soon")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
}

func TestModelQueueFullSheds429(t *testing.T) {
	s, ts := newTestServerOpts(t, t.TempDir(), Options{ModelConcurrency: 1, ModelQueue: -1})
	id := fitModel(t, ts, "q").Model.ID
	// Occupy the model's only concurrency slot so the next request must
	// queue — and with no queue configured, it sheds immediately.
	lim := s.adm.limiter(id)
	if held, err := lim.reserve(); !held || err != nil {
		t.Fatalf("reserve = %v, %v; want the free slot", held, err)
	}
	resp := scoreReq(t, ts, id, [][]float64{{1, 2, 3}}, 0)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if n := s.adm.shed[shedQueueFull].Load(); n != 1 {
		t.Fatalf("shed[queue_full] = %d, want 1", n)
	}
	lim.release()
	// With the slot free the same request is served.
	resp = scoreReq(t, ts, id, [][]float64{{1, 2, 3}}, 0)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d, want 200", resp.StatusCode)
	}
}

// readCounter counts the bytes read from its reader.
type readCounter struct {
	r io.Reader
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestQueueFullShedsBeforeReadingBody: a request its model's full queue
// sheds is answered 429 without a byte of its body read, so shedding
// stays cheap under overload. A queued request whose body read fails
// gives its queue place back.
func TestQueueFullShedsBeforeReadingBody(t *testing.T) {
	for _, queue := range []int{-1, 1} {
		s, ts := newTestServerOpts(t, t.TempDir(), Options{ModelConcurrency: 1, ModelQueue: queue})
		id := fitModel(t, ts, "qb").Model.ID
		lim := s.adm.limiter(id)
		if held, err := lim.reserve(); !held || err != nil {
			t.Fatalf("reserve = %v, %v; want the free slot", held, err)
		}
		body := &readCounter{r: io.MultiReader(strings.NewReader(`{"rows":[[1,2,3]`), iotest.ErrReader(errors.New("connection reset")))}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/"+id+"/score", body))
		lim.release()
		if queue < 0 {
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("no queue: status %d, want 429; body %s", rec.Code, rec.Body)
			}
			if body.n != 0 {
				t.Fatalf("no queue: the shed request's body was read (%d bytes)", body.n)
			}
			continue
		}
		if rec.Code != http.StatusBadRequest || body.n == 0 {
			t.Fatalf("queue 1: status %d after reading %d bytes, want 400 after reading; body %s", rec.Code, body.n, rec.Body)
		}
		if _, queued := lim.stats(); queued != 0 {
			t.Fatalf("queue 1: %d requests still queued after the body read failed", queued)
		}
	}
}

// TestQueuedDeadlineSheds503: a request parked behind a model's only slot
// wakes when its deadline passes, not when the slot frees, and is shed 503
// under reason "deadline". A parked request whose client goes away is
// shed under "expired".
func TestQueuedDeadlineSheds503(t *testing.T) {
	s, ts := newTestServerOpts(t, t.TempDir(), Options{ModelConcurrency: 1})
	id := fitModel(t, ts, "qd").Model.ID
	lim := s.adm.limiter(id)
	if held, err := lim.reserve(); !held || err != nil {
		t.Fatalf("reserve = %v, %v; want the free slot", held, err)
	}
	defer lim.release()

	start := time.Now()
	resp := scoreReq(t, ts, id, [][]float64{{1, 2, 3}}, 50)
	elapsed := time.Since(start)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "deadline expired while queued for admission") {
		t.Fatalf("body %s, want the queued-deadline message", body)
	}
	if elapsed < 50*time.Millisecond || elapsed >= 75*time.Millisecond {
		t.Fatalf("answered after %v, want within [50ms, 75ms)", elapsed)
	}
	if n := s.adm.shed[shedDeadline].Load(); n != 1 {
		t.Fatalf("shed[deadline] = %d, want 1", n)
	}

	// The client leaving is its request context ending, here driven
	// through ServeHTTP directly; TestQueuedClientLeaves sends it over a
	// real connection.
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/models/"+id+"/score", strings.NewReader(`{"rows":[[1,2,3]]}`))
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		s.ServeHTTP(rec, req)
		close(served)
	}()
	waitForCondition(t, 2*time.Second, "the request to queue", func() bool {
		_, queued := lim.stats()
		return queued == 1
	})
	cancel()
	<-served
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "request cancelled while queued for admission") {
		t.Fatalf("cancelled request: status %d body %s", rec.Code, rec.Body)
	}
	if n := s.adm.shed[shedExpired].Load(); n != 1 {
		t.Fatalf("shed[expired] = %d, want 1", n)
	}
	if n := s.adm.shed[shedDeadline].Load(); n != 1 {
		t.Fatalf("shed[deadline] = %d after the cancel, want still 1", n)
	}
	if _, queued := lim.stats(); queued != 0 {
		t.Fatalf("%d requests still queued", queued)
	}
}

// TestQueuedClientLeaves: a real HTTP/1.1 client that gives up while its
// request is parked behind a model's only slot gets no answer, and the
// server sheds the request under "expired" at once rather than scoring it
// when the slot frees. net/http cancels the request context on a
// disconnect only once the body has been read, so the body must be read
// before the request queues.
func TestQueuedClientLeaves(t *testing.T) {
	var logs syncBuffer
	s, ts := newTestServerOpts(t, t.TempDir(), Options{ModelConcurrency: 1, TraceSample: 1,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	id := fitModel(t, ts, "ql").Model.ID
	lim := s.adm.limiter(id)
	if held, err := lim.reserve(); !held || err != nil {
		t.Fatalf("reserve = %v, %v; want the free slot", held, err)
	}
	held := true
	defer func() {
		if held {
			lim.release()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/models/"+id+"/score", strings.NewReader(`{"rows":[[1,2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		answered <- err
	}()
	waitForCondition(t, 2*time.Second, "the request to queue", func() bool {
		_, queued := lim.stats()
		return queued == 1
	})
	cancel()
	if err := <-answered; err == nil {
		t.Fatal("the cancelled request was answered")
	}
	waitForCondition(t, 2*time.Second, "the parked request to be shed", func() bool {
		_, queued := lim.stats()
		return queued == 0 && s.adm.shed[shedExpired].Load() == 1
	})
	lim.release()
	held = false
	waitForCondition(t, 2*time.Second, "the handler to finish", func() bool {
		return strings.Contains(logs.String(), "route=score")
	})
	if n := s.adm.shed[shedExpired].Load(); n != 1 {
		t.Fatalf("shed[expired] = %d, want 1", n)
	}
	if strings.Contains(logs.String(), "status=200") {
		t.Fatalf("the cancelled request was scored:\n%s", logs.String())
	}
}

func TestByteBudgetSheds429(t *testing.T) {
	s, ts := newTestServerOpts(t, t.TempDir(), Options{MaxInFlightBytes: 16})
	// The byte budget is charged from Content-Length at admission, before
	// routing — even a request for a model that does not exist is shed
	// first rather than allowed to occupy memory.
	resp := scoreReq(t, ts, "none", trainingRows(8), 0)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if n := s.adm.shed[shedBytes].Load(); n != 1 {
		t.Fatalf("shed[bytes] = %d, want 1", n)
	}
	if got := s.adm.bytes.load(); got != 0 {
		t.Fatalf("byte budget not released: %d", got)
	}
}

// TestByteBudgetChargesEveryFraming: a score body over the in-flight byte
// budget is shed 429 whether it declares its Content-Length, charged at
// admission, or comes chunked, charged as it is read; a chunked body within
// the budget is served; and every charge is released.
func TestByteBudgetChargesEveryFraming(t *testing.T) {
	s, ts := newTestServerOpts(t, t.TempDir(), Options{MaxInFlightBytes: 2048})
	id := fitModel(t, ts, "b").Model.ID
	post := func(rows int, chunked bool) (int, string) {
		raw, err := json.Marshal(ScoreRequest{Rows: trainingRows(rows)})
		if err != nil {
			t.Fatal(err)
		}
		var body io.Reader = bytes.NewReader(raw)
		if chunked {
			body = io.MultiReader(body) // no length known: sent chunked
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/"+id+"/score", body)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := req.ContentLength > 0, !chunked; got != want {
			t.Fatalf("Content-Length %d on a chunked=%v request", req.ContentLength, chunked)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}
	for i, chunked := range []bool{false, true} {
		status, body := post(100, chunked)
		if status != http.StatusTooManyRequests || !strings.Contains(body, "in-flight byte budget") {
			t.Fatalf("chunked=%v: status %d, want 429; body %s", chunked, status, body)
		}
		if n := s.adm.shed[shedBytes].Load(); n != int64(i+1) {
			t.Fatalf("chunked=%v: shed[bytes] = %d, want %d", chunked, n, i+1)
		}
		waitForCondition(t, 2*time.Second, "the byte budget to be released", func() bool {
			return s.adm.bytes.load() == 0
		})
	}
	if status, body := post(10, true); status != http.StatusOK {
		t.Fatalf("small chunked body: status %d, want 200; body %s", status, body)
	}
	waitForCondition(t, 2*time.Second, "the byte budget to be released", func() bool {
		return s.adm.bytes.load() == 0
	})
}

func TestRowBudgetSheds429(t *testing.T) {
	s, ts := newTestServerOpts(t, t.TempDir(), Options{MaxInFlightRows: 4})
	id := fitModel(t, ts, "r").Model.ID
	resp := scoreReq(t, ts, id, trainingRows(8), 0)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if n := s.adm.shed[shedRows].Load(); n != 1 {
		t.Fatalf("shed[rows] = %d, want 1", n)
	}
	// Within the budget the same model serves.
	resp = scoreReq(t, ts, id, trainingRows(4), 0)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch status %d, want 200", resp.StatusCode)
	}
	if got := s.adm.rows.load(); got != 0 {
		t.Fatalf("row budget not released: %d", got)
	}
}

// TestDeadlineExpiredMidBatchFreesWorkers is the cooperative-cancellation
// acceptance test: injected latency between score blocks stretches a batch
// far past its deadline, the request must come back 503 with the partial
// row count the trace recorded, and the pool's workers must all be free
// shortly after — not still grinding through the doomed batch.
func TestDeadlineExpiredMidBatchFreesWorkers(t *testing.T) {
	fj := faultinject.New(11)
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{Latency: 25 * time.Millisecond, LatencyProb: 1})
	s, ts := newTestServerOpts(t, t.TempDir(), Options{Faults: fj})
	id := fitModel(t, ts, "slow").Model.ID
	resp := scoreReq(t, ts, id, trainingRows(8192), 40)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if !strings.Contains(body, "of 8192 rows") {
		t.Fatalf("error body does not report partial work: %s", body)
	}
	if n := s.adm.shed[shedExpired].Load(); n == 0 {
		t.Fatal("shed[expired] not counted")
	}
	// The workers must free themselves at the next block boundary instead
	// of finishing the cancelled batch (~800ms of injected latency remain
	// at expiry if they don't).
	deadline := time.Now().Add(2 * time.Second)
	for {
		queue, busy, _ := s.pool.Stats()
		if queue == 0 && busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool not idle after cancelled batch: queue=%d busy=%d", queue, busy)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The pool — and its scorers — must still serve exact results.
	resp = scoreReq(t, ts, id, trainingRows(4), 0)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel score status %d, want 200", resp.StatusCode)
	}
}

// TestInfeasibleDeadlineShedsBeforeScoring: once a model has an observed
// p50 score time, a request whose remaining deadline cannot cover it is
// shed at admission, before the body is decoded or a slot consumed.
func TestInfeasibleDeadlineShedsBeforeScoring(t *testing.T) {
	fj := faultinject.New(5)
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{Latency: 20 * time.Millisecond, LatencyProb: 1})
	s, ts := newTestServerOpts(t, t.TempDir(), Options{Faults: fj})
	id := fitModel(t, ts, "p").Model.ID
	// Prime the model's score-latency histogram with genuinely slow batches.
	for i := 0; i < 3; i++ {
		resp := scoreReq(t, ts, id, trainingRows(512), 0)
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("priming score %d: status %d", i, resp.StatusCode)
		}
	}
	resp := scoreReq(t, ts, id, trainingRows(512), 5)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "p50") {
		t.Fatalf("error body does not mention the feasibility check: %s", body)
	}
	if n := s.adm.shed[shedDeadline].Load(); n != 1 {
		t.Fatalf("shed[deadline] = %d, want 1", n)
	}
}

func TestDrainLifecycle(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	id := fitModel(t, ts, "d").Model.ID

	resp, err := http.Post(ts.URL+"/controlz/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	state := decodeBody[ControlState](t, resp)
	if !state.Draining {
		t.Fatal("drain response reports draining=false")
	}
	if !s.Draining() {
		t.Fatal("server not draining after /controlz/drain")
	}

	// New API work is shed with 503 + Retry-After + Connection: close.
	resp = scoreReq(t, ts, id, [][]float64{{1, 2, 3}}, 0)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("score during drain: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if !resp.Close && resp.Header.Get("Connection") != "close" {
		t.Fatal("drained response does not close the connection")
	}
	if n := s.adm.shed[shedDraining].Load(); n == 0 {
		t.Fatal("shed[draining] not counted")
	}

	// Health reports unhealthy so load balancers route away; statusz and
	// controlz keep answering.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[Health](t, hresp)
	if hresp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz during drain: status %d body %+v", hresp.StatusCode, h)
	}
	cresp, err := http.Get(ts.URL + "/controlz")
	if err != nil {
		t.Fatal(err)
	}
	if state := decodeBody[ControlState](t, cresp); !state.Draining {
		t.Fatal("controlz reports draining=false during drain")
	}
	zresp, err := http.Get(ts.URL + "/statusz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(zresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	zresp.Body.Close()
	if !snap.Draining {
		t.Fatal("statusz reports draining=false during drain")
	}

	// Resume restores service.
	resp, err = http.Post(ts.URL+"/controlz/resume", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if state := decodeBody[ControlState](t, resp); state.Draining {
		t.Fatal("resume response still draining")
	}
	resp = scoreReq(t, ts, id, [][]float64{{1, 2, 3}}, 0)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after resume: status %d, want 200", resp.StatusCode)
	}
	hresp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, hresp)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after resume: status %d, want 200", hresp.StatusCode)
	}
}

// TestDrainWaitsOutInFlight is the zero-dropped-requests acceptance test:
// a batch already admitted when the drain begins runs to completion and
// returns its full result, while the drain call (with ?wait_ms=) blocks
// until the node is idle.
func TestDrainWaitsOutInFlight(t *testing.T) {
	fj := faultinject.New(3)
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{Latency: 10 * time.Millisecond, LatencyProb: 1})
	s, ts := newTestServerOpts(t, t.TempDir(), Options{Faults: fj})
	id := fitModel(t, ts, "w").Model.ID

	rows := trainingRows(4096)
	type result struct {
		status int
		count  int
	}
	done := make(chan result, 1)
	go func() {
		resp := scoreReq(t, ts, id, rows, 0)
		defer resp.Body.Close()
		var sr ScoreResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		done <- result{resp.StatusCode, len(sr.Scores)}
	}()
	// Wait until the batch is admitted and scoring.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if active, _ := s.adm.totals(); active > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never started scoring")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/controlz/drain?wait_ms=10000", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	state := decodeBody[ControlState](t, resp)
	if !state.Draining {
		t.Fatal("drain response reports draining=false")
	}
	// The drain request itself is the one remaining in-flight request.
	if state.InFlight != 1 {
		t.Fatalf("in_flight after drain wait = %d, want 1", state.InFlight)
	}
	r := <-done
	if r.status != http.StatusOK || r.count != len(rows) {
		t.Fatalf("in-flight batch dropped by drain: status=%d scores=%d/%d", r.status, r.count, len(rows))
	}
}

// TestConcurrentCancelsKeepPoolsClean extends the concurrent -race
// coverage with mid-batch cancels: doomed short-deadline batches race
// full batches and observability scrapes, and afterwards the frame,
// scorer, and response pools must still produce exact scores.
func TestConcurrentCancelsKeepPoolsClean(t *testing.T) {
	fj := faultinject.New(9)
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{Latency: 5 * time.Millisecond, LatencyProb: 1})
	s, ts := newTestServerOpts(t, t.TempDir(), Options{Faults: fj})
	id := fitModel(t, ts, "c").Model.ID
	rows := trainingRows(2048)

	// Baseline scores before any cancellation storm.
	base := decodeBody[ScoreResponse](t, scoreReq(t, ts, id, rows, 0))
	if len(base.Scores) != len(rows) {
		t.Fatalf("baseline scored %d rows, want %d", len(base.Scores), len(rows))
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch g % 3 {
				case 0: // doomed: a deadline far below the injected latency
					resp := scoreReq(t, ts, id, rows, 10)
					resp.Body.Close()
					if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusOK {
						t.Errorf("short-deadline batch: status %d", resp.StatusCode)
					}
				case 1: // full batch, must not be corrupted by neighbours
					resp := scoreReq(t, ts, id, rows, 0)
					var sr ScoreResponse
					json.NewDecoder(resp.Body).Decode(&sr)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || len(sr.Scores) != len(rows) {
						t.Errorf("full batch: status %d scores %d", resp.StatusCode, len(sr.Scores))
					}
				case 2: // observability scrapes race the cancels
					for _, path := range []string{"/metrics", "/statusz?format=json", "/healthz"} {
						resp, err := http.Get(ts.URL + path)
						if err != nil {
							t.Errorf("%s: %v", path, err)
							continue
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()

	// Exact-score parity after the storm: pooled frames, scorers, and
	// response buffers recycled through cancelled batches must not leak
	// state into later results.
	after := decodeBody[ScoreResponse](t, scoreReq(t, ts, id, rows, 0))
	if len(after.Scores) != len(base.Scores) {
		t.Fatalf("post-storm scored %d rows, want %d", len(after.Scores), len(base.Scores))
	}
	for i := range base.Scores {
		if after.Scores[i] != base.Scores[i] {
			t.Fatalf("row %d: post-storm score %v != baseline %v", i, after.Scores[i], base.Scores[i])
		}
	}
	if got := s.adm.rows.load(); got != 0 {
		t.Fatalf("row budget leaked: %d", got)
	}
	if active, queued := s.adm.totals(); active != 0 || queued != 0 {
		t.Fatalf("limiters leaked: active=%d queued=%d", active, queued)
	}
}
