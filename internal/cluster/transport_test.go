package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// connCounter counts a test server's connections through its ConnState
// hook: every connection ever accepted, and those still open.
type connCounter struct {
	accepted atomic.Int64
	open     atomic.Int64
}

func (c *connCounter) hook(_ net.Conn, s http.ConnState) {
	switch s {
	case http.StateNew:
		c.accepted.Add(1)
		c.open.Add(1)
	case http.StateClosed, http.StateHijacked:
		c.open.Add(-1)
	}
}

// newCountedServer starts h behind a connCounter.
func newCountedServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *connCounter) {
	t.Helper()
	cc := &connCounter{}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = cc.hook
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, cc
}

// newPeerlessCluster builds a cluster without peers, so its loops send
// nothing and every connection a test server sees comes from the test's
// own requests through c.do, over the client New builds.
func newPeerlessCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Options{
		Self:                "http://self:1",
		Registry:            newTestRegistry(t),
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// send issues one request through c.do and returns the answer's status and
// whole body.
func send(t *testing.T, c *Cluster, method, url string, body io.Reader) (int, string, error) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw), err
}

// TestPeerTransportRetriesStaleConnection: a peer that drops a pooled
// connection as a request arrives on it (an idle connection it closed
// while the request was on its way) fails the request before any answer
// byte; the POST is replayed once on a fresh connection, body included. A
// failure on a fresh connection is not retried.
func TestPeerTransportRetriesStaleConnection(t *testing.T) {
	var mu sync.Mutex
	served := map[string]int{} // requests per client connection
	var bodies []string
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		served[r.RemoteAddr]++
		n := served[r.RemoteAddr]
		mu.Unlock()
		if n == 2 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.Write(body)
	})
	c := newPeerlessCluster(t)
	for _, body := range []string{"first", "second"} {
		if code, got, err := send(t, c, http.MethodPost, ts.URL+"/echo", strings.NewReader(body)); err != nil || code != http.StatusOK || got != body {
			t.Fatalf("POST %q = %d %q, %v; want it echoed", body, code, got, err)
		}
	}
	if n := cc.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2 (the original and one fresh retry)", n)
	}
	if want := []string{"first", "second", "second"}; fmt.Sprint(bodies) != fmt.Sprint(want) {
		t.Fatalf("the peer read bodies %q, want %q", bodies, want)
	}

	// A fresh connection that fails is returned as an error at once.
	abort, ac := newCountedServer(t, func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	if _, _, err := send(t, c, http.MethodPost, abort.URL+"/x", strings.NewReader("x")); err == nil {
		t.Fatal("aborted answer reported success")
	}
	if n := ac.accepted.Load(); n != 1 {
		t.Fatalf("a failure on a fresh connection opened %d connections, want 1 (no retry)", n)
	}
}

// TestPeerTransportEarlyAnswerToUnreadBody: a peer that answers 429 to a
// large body without reading it (as rpcd does at its byte budget) stops
// reading and closes the connection. The answer is still returned, and the
// body is not sent again.
func TestPeerTransportEarlyAnswerToUnreadBody(t *testing.T) {
	var posts atomic.Int64
	ts, _ := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			return
		}
		posts.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "over budget", http.StatusTooManyRequests)
	})
	c := newPeerlessCluster(t)
	// Pool a connection, so the POST runs on a reused one.
	if code, _, err := send(t, c, http.MethodGet, ts.URL, nil); err != nil || code != http.StatusOK {
		t.Fatalf("GET = %d, %v", code, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body := bytes.Repeat([]byte("x"), 16<<20) // more than loopback socket buffers hold
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/score", bytes.NewReader(body))
	resp, err := c.do(req)
	if err != nil {
		t.Fatalf("the peer's early answer was lost: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("answer %d %q, want the peer's 429", resp.StatusCode, raw)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("the peer saw the POST %d times, want 1 (no replay)", n)
	}
}

// TestPeerTransportChunkedAnswer: an answer too large for net/http to
// give a Content-Length goes out chunked; it reads back intact, and
// Forward relays it with the Content-Length of the whole body.
func TestPeerTransportChunkedAnswer(t *testing.T) {
	big := make([]string, 400)
	for i := range big {
		big[i] = fmt.Sprintf("row-%04d", i)
	}
	want, _ := json.Marshal(map[string]any{"rows": big})
	ts, _ := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == HealthPath {
			w.Write([]byte(`{"status":"ok","draining":false}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"rows": big})
	})
	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{ts.URL},
		Registry:            newTestRegistry(t),
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	resp, err := c.do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("answer transfer encoding %v, want chunked", resp.TransferEncoding)
	}
	if string(raw) != string(want)+"\n" {
		t.Fatalf("chunked answer of %d bytes differs from the %d sent", len(raw), len(want)+1)
	}

	id := pickModelID(t, c.Self(), ts.URL)
	w := httptest.NewRecorder()
	if !c.Forward(w, httptest.NewRequest(http.MethodPost, "/v1/models/"+id+"/score", nil), id, []byte(`{}`), 0, false) {
		t.Fatal("Forward did not relay the chunked answer")
	}
	if w.Body.String() != string(want)+"\n" {
		t.Fatalf("relayed answer of %d bytes differs from the %d sent", w.Body.Len(), len(want)+1)
	}
	if got := w.Header().Get("Content-Length"); got != fmt.Sprint(len(want)+1) {
		t.Fatalf("relayed Content-Length = %q, want %d", got, len(want)+1)
	}
}

// TestPeerTransportDeadlineMidBody: a body that stalls past the request
// context's deadline fails the read at the deadline, and its connection
// is closed.
func TestPeerTransportDeadlineMidBody(t *testing.T) {
	release := make(chan struct{})
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "10")
		w.Write([]byte("12345"))
		w.(http.Flusher).Flush()
		<-release
		w.Write([]byte("67890"))
	})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	c := newPeerlessCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	resp, err := c.do(req)
	if err != nil {
		t.Fatalf("the answer's head arrived in time, yet: %v", err)
	}
	start := time.Now()
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("read a stalled body to the end: %q", raw)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-body error %v, want the context deadline's", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the deadline fired after %v", d)
	}
	unblock() // the handler returns, then finds the connection closed
	waitFor(t, 2*time.Second, "the server to see the connection close", func() bool { return cc.open.Load() == 0 })
}

// TestClusterCloseReleasesConnections: the cluster's probes and forwards
// keep peer connections alive between requests; Close closes every one of
// them and leaves no transport goroutine behind.
func TestClusterCloseReleasesConnections(t *testing.T) {
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == HealthPath {
			w.Write([]byte(`{"status":"ok","draining":false}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"answered":true}`))
	})
	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{ts.URL},
		Registry:            newTestRegistry(t),
		ProbeInterval:       5 * time.Millisecond,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "a few probes", func() bool { return c.Snapshot().Probes >= 5 })
	id := pickModelID(t, c.Self(), ts.URL)
	for i := 0; i < 3; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/models/"+id+"/score", nil)
		w := httptest.NewRecorder()
		if !c.Forward(w, r, id, []byte(`{"rows":[[1,2,3]]}`), 0, false) || w.Body.String() != `{"answered":true}` {
			t.Fatalf("forward %d: %d %q", i, w.Code, w.Body.String())
		}
	}
	if cc.open.Load() == 0 {
		t.Fatal("no keep-alive connection open before Close")
	}
	c.Close()
	waitFor(t, 2*time.Second, "every peer connection to close", func() bool { return cc.open.Load() == 0 })
	// A closed connection's read and write loops exit on their own
	// goroutines, just after the close.
	buf := make([]byte, 1<<20)
	waitFor(t, 2*time.Second, "every net/http.(*persistConn) goroutine to exit", func() bool {
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "net/http.(*persistConn)")
	})
}

// TestPeerRequestsSendNoIdempotencyKey: c.do marks each request idempotent
// with a nil Idempotency-Key, which net/http reads but never writes; the
// peer sees a plain HTTP/1.1 request without the header.
func TestPeerRequestsSendNoIdempotencyKey(t *testing.T) {
	type seen struct {
		proto string
		keys  []string
		ok    bool
	}
	got := make(chan seen, 1)
	ts, _ := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		keys, ok := r.Header["Idempotency-Key"]
		got <- seen{r.Proto, keys, ok}
	})
	c := newPeerlessCluster(t)
	if code, _, err := send(t, c, http.MethodPost, ts.URL+"/x", strings.NewReader("{}")); err != nil || code != http.StatusOK {
		t.Fatalf("POST = %d, %v", code, err)
	}
	s := <-got
	if s.ok {
		t.Fatalf("the peer received Idempotency-Key %q", s.keys)
	}
	if s.proto != "HTTP/1.1" {
		t.Fatalf("the peer received %s, want HTTP/1.1", s.proto)
	}
}

// TestPeerTransportIgnoresProxyEnvironment: peer traffic goes straight to
// the peer whatever HTTP_PROXY says; the transport New builds consults no
// proxy function at all.
func TestPeerTransportIgnoresProxyEnvironment(t *testing.T) {
	t.Setenv("HTTP_PROXY", "http://proxy.example:3128")
	t.Setenv("http_proxy", "http://proxy.example:3128")
	c := newPeerlessCluster(t)
	tr, ok := c.client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("peer client transport is %T, want *http.Transport", c.client.Transport)
	}
	if tr.Proxy != nil {
		t.Fatal("the peer transport consults a proxy function")
	}
}

// TestPeerTransportNoReplayAfterAnswerBegins: once the peer has begun its
// answer, a failure is returned rather than replayed, even on a reused
// connection; only a failure before the first answer byte is replayed.
func TestPeerTransportNoReplayAfterAnswerBegins(t *testing.T) {
	var posts atomic.Int64
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			return
		}
		io.ReadAll(r.Body)
		posts.Add(1)
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-")
		buf.Flush()
		conn.Close()
	})
	c := newPeerlessCluster(t)
	// Pool a connection, so the POST runs on a reused one.
	if code, _, err := send(t, c, http.MethodGet, ts.URL, nil); err != nil || code != http.StatusOK {
		t.Fatalf("GET = %d, %v", code, err)
	}
	if _, _, err := send(t, c, http.MethodPost, ts.URL+"/score", strings.NewReader("{}")); err == nil {
		t.Fatal("a truncated answer head reported success")
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("the peer saw the POST %d times, want 1 (no replay)", n)
	}
	if n := cc.accepted.Load(); n != 1 {
		t.Fatalf("%d connections accepted, want 1", n)
	}
}

// TestDrainBodyReusesConnection: a short answer drained to its end leaves
// its connection in the pool for the next request.
func TestDrainBodyReusesConnection(t *testing.T) {
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 64<<10))
	})
	c := newPeerlessCluster(t)
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
		resp, err := c.do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
	}
	if n := cc.accepted.Load(); n != 1 {
		t.Fatalf("%d connections accepted for three drained answers, want 1", n)
	}
}

// TestDrainBodyCapsLongAnswer: drainBody reads at most 1 MiB; an answer
// longer than that is cut off and its connection closed rather than read
// to the end, and the next request opens a fresh one.
func TestDrainBodyCapsLongAnswer(t *testing.T) {
	var written atomic.Int64
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		const size = 64 << 20
		w.Header().Set("Content-Length", fmt.Sprint(size))
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for n := 0; n < size; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			written.Add(int64(len(chunk)))
		}
	})
	c := newPeerlessCluster(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	resp, err := c.do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	waitFor(t, 2*time.Second, "the long answer's connection to close", func() bool { return cc.open.Load() == 0 })
	if n := written.Load(); n >= 64<<20 {
		t.Fatalf("the peer wrote all %d bytes; drainBody read past its cap", n)
	}
	if code, _, err := send(t, c, http.MethodGet, ts.URL+"/again", nil); err != nil || code != http.StatusOK {
		t.Fatalf("GET after the cut = %d, %v", code, err)
	}
	if n := cc.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2 (the cut one and a fresh one)", n)
	}
}
