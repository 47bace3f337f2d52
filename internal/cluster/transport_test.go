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
	"os"
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

// idleConns counts the transport's pooled connections.
func idleConns(pt *peerTransport) int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	n := 0
	for _, conns := range pt.idle {
		n += len(conns)
	}
	return n
}

// get issues one GET through pt and returns the whole answer body.
func get(t *testing.T, pt *peerTransport, url string) string {
	t.Helper()
	resp, err := (&http.Client{Transport: pt}).Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestPeerTransportReusesConnections: sequential requests share one
// keep-alive connection, with or without a request body, and a small
// answer without a body returns its connection at once.
func TestPeerTransportReusesConnections(t *testing.T) {
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/empty" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %s", r.URL.Path, body)
	})
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	client := &http.Client{Transport: pt}
	for i := 0; i < 5; i++ {
		if got, want := get(t, pt, ts.URL+fmt.Sprintf("/get/%d", i)), fmt.Sprintf("/get/%d ", i); got != want {
			t.Fatalf("GET answer %q, want %q", got, want)
		}
		resp, err := client.Post(ts.URL+"/post", "text/plain", strings.NewReader(fmt.Sprint("body-", i)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprint("/post body-", i); string(raw) != want {
			t.Fatalf("POST answer %q, want %q", raw, want)
		}
		resp, err = client.Get(ts.URL + "/empty")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("empty answer status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if n := cc.accepted.Load(); n != 1 {
		t.Fatalf("15 sequential requests opened %d connections, want 1", n)
	}
	if n := idleConns(pt); n != 1 {
		t.Fatalf("%d idle connections pooled, want 1", n)
	}
}

// TestPeerTransportRetriesStaleConnection: a pooled connection the peer
// has since closed fails before any answer byte; the request is replayed
// once on a fresh connection, body included. A failure on a fresh
// connection is not retried.
func TestPeerTransportRetriesStaleConnection(t *testing.T) {
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	})
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	client := &http.Client{Transport: pt}
	post := func(body string) (string, error) {
		resp, err := client.Post(ts.URL+"/echo", "text/plain", bytes.NewReader([]byte(body)))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return string(raw), err
	}
	if got, err := post("first"); err != nil || got != "first" {
		t.Fatalf("first POST = %q, %v", got, err)
	}
	ts.CloseClientConnections() // the pooled connection is now stale
	waitFor(t, 2*time.Second, "the server to close the idle connection", func() bool { return cc.open.Load() == 0 })
	if got, err := post("second"); err != nil || got != "second" {
		t.Fatalf("POST over a stale connection = %q, %v; want one successful retry", got, err)
	}
	if n := cc.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2 (the original and one fresh retry)", n)
	}

	// A fresh connection that fails is returned as an error at once.
	abort, ac := newCountedServer(t, func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	if _, err := client.Post(abort.URL+"/x", "text/plain", strings.NewReader("x")); err == nil {
		t.Fatal("aborted answer reported success")
	}
	if n := ac.accepted.Load(); n != 1 {
		t.Fatalf("a failure on a fresh connection opened %d connections, want 1 (no retry)", n)
	}
}

// TestPeerTransportEarlyAnswerToUnreadBody: a peer that answers 429 to a
// large body without reading it (as rpcd does at its byte budget) stops
// reading and drops the connection, which fails the write. The answer is
// still returned, the body is not sent again, and the connection is not
// pooled.
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
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	get(t, pt, ts.URL) // pool a connection, so the POST runs on a reused one
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body := bytes.Repeat([]byte("x"), 16<<20) // more than loopback socket buffers hold
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/score", bytes.NewReader(body))
	resp, err := (&http.Client{Transport: pt}).Do(req)
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
	if n := idleConns(pt); n != 0 {
		t.Fatalf("a connection whose body was cut short was pooled (%d idle)", n)
	}
}

// TestPeerTransportChunkedAnswer: an answer too large for net/http to
// give a Content-Length goes out chunked; it reads back intact, its
// connection is reused after the final chunk, and Forward relays it with
// the Content-Length of the whole body.
func TestPeerTransportChunkedAnswer(t *testing.T) {
	big := make([]string, 400)
	for i := range big {
		big[i] = fmt.Sprintf("row-%04d", i)
	}
	want, _ := json.Marshal(map[string]any{"rows": big})
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"rows": big})
	})
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		resp, err := (&http.Client{Transport: pt}).Get(ts.URL)
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
	}
	if n := cc.accepted.Load(); n != 1 {
		t.Fatalf("two chunked answers opened %d connections, want 1", n)
	}

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

// TestPeerTransportHonoursConnectionClose: an answer carrying
// Connection: close is never pooled.
func TestPeerTransportHonoursConnectionClose(t *testing.T) {
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Connection", "close")
		w.Write([]byte("bye"))
	})
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		if got := get(t, pt, ts.URL); got != "bye" {
			t.Fatalf("answer %q", got)
		}
		if n := idleConns(pt); n != 0 {
			t.Fatalf("Connection: close answer left %d pooled connections", n)
		}
	}
	if n := cc.accepted.Load(); n != 3 {
		t.Fatalf("3 Connection: close answers came over %d connections, want 3", n)
	}
	waitFor(t, 2*time.Second, "every connection to close", func() bool { return cc.open.Load() == 0 })
}

// TestPeerTransportDeadlineMidBody: the context deadline is the
// connection's deadline, so a body that stalls past it fails the read,
// and the connection is closed rather than pooled.
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
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	resp, err := (&http.Client{Transport: pt}).Do(req)
	if err != nil {
		t.Fatalf("the answer's head arrived in time, yet: %v", err)
	}
	start := time.Now()
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("read a stalled body to the end: %q", raw)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("mid-body error %v, want the connection deadline's", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the deadline fired after %v", d)
	}
	if n := idleConns(pt); n != 0 {
		t.Fatalf("a connection that missed its deadline was pooled (%d idle)", n)
	}
	unblock() // the handler returns, then finds the connection closed
	waitFor(t, 2*time.Second, "the server to see the connection close", func() bool { return cc.open.Load() == 0 })
}

// TestPeerTransportCancelledConnectionNotPooled: once a request's
// cancellation hook has fired, its connection carries a deadline in the
// past (or is about to), so it is closed even after a body read in full.
func TestPeerTransportCancelledConnectionNotPooled(t *testing.T) {
	ts, _ := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("done"))
	})
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	resp, err := (&http.Client{Transport: pt}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil || string(raw) != "done" {
		t.Fatalf("answer = %q, %v", raw, err)
	}
	cancel()
	resp.Body.Close()
	if n := idleConns(pt); n != 0 {
		t.Fatalf("a cancelled request pooled its connection (%d idle)", n)
	}
}

// TestPeerTransportEarlyCloseClosesConnection: closing a body before EOF
// closes its connection at once, without reading the rest.
func TestPeerTransportEarlyCloseClosesConnection(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1<<20)
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write(payload)
	})
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	resp, err := (&http.Client{Transport: pt}).Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := resp.Body.Read(buf); !errors.Is(err, http.ErrBodyReadAfterClose) {
		t.Fatalf("read after Close: %v, want ErrBodyReadAfterClose", err)
	}
	if n := idleConns(pt); n != 0 {
		t.Fatalf("a body closed before EOF pooled its connection (%d idle)", n)
	}
	waitFor(t, 2*time.Second, "the server to see the connection close", func() bool { return cc.open.Load() == 0 })
	if got := get(t, pt, ts.URL); len(got) != len(payload) {
		t.Fatalf("next answer %d bytes, want %d", len(got), len(payload))
	}
	if n := cc.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2", n)
	}
}

// TestPeerTransportClosedPoolTakesNoConnection: a request in flight when
// the idle connections are closed closes its own connection when done,
// instead of pooling it after the transport was released.
func TestPeerTransportClosedPoolTakesNoConnection(t *testing.T) {
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("late"))
	})
	pt := newPeerTransport()
	resp, err := (&http.Client{Transport: pt}).Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	pt.CloseIdleConnections()
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(raw) != "late" {
		t.Fatalf("in-flight answer = %q, %v", raw, err)
	}
	if n := idleConns(pt); n != 0 {
		t.Fatalf("%d connections pooled after CloseIdleConnections", n)
	}
	waitFor(t, 2*time.Second, "the in-flight connection to close", func() bool { return cc.open.Load() == 0 })
}

// TestPeerTransportConcurrentCallers: eight callers sharing the transport
// each get their own answer, never a neighbour's.
func TestPeerTransportConcurrentCallers(t *testing.T) {
	ts, cc := newCountedServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		time.Sleep(time.Duration(len(body)%3) * time.Millisecond)
		fmt.Fprintf(w, "%s|%s", r.URL.Query().Get("caller"), body)
	})
	pt := newPeerTransport()
	defer pt.CloseIdleConnections()
	client := &http.Client{Transport: pt}
	const callers, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				body := strings.Repeat(fmt.Sprint(c), i+1)
				resp, err := client.Post(fmt.Sprintf("%s/?caller=%d", ts.URL, c), "text/plain", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if want := fmt.Sprintf("%d|%s", c, body); err != nil || string(raw) != want {
					errs <- fmt.Errorf("caller %d call %d: got %q (%v), want %q", c, i, raw, err, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := cc.accepted.Load(); n > callers {
		t.Fatalf("%d callers opened %d connections", callers, n)
	}
	if n := idleConns(pt); n > maxIdlePerPeer {
		t.Fatalf("%d idle connections pooled, cap %d", n, maxIdlePerPeer)
	}
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
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, frame := range []string{"net/http.(*persistConn)", "internal/cluster.(*peerTransport)"} {
		if strings.Contains(stacks, frame) {
			t.Fatalf("a transport goroutine outlived Close (%s):\n%s", frame, stacks)
		}
	}
}
