package cluster

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// maxIdlePerPeer caps the idle keep-alive connections pooled for one peer
// host. A connection returned beyond the cap is closed. The value is not
// measured: it sits above the benchmark's forward concurrency of 2, where
// any cap of 2 or more behaves the same.
const maxIdlePerPeer = 8

// peerTransport is the http.RoundTripper behind all peer traffic. It writes
// the request and reads the answer's head on the caller's goroutine, over
// HTTP/1.1 keep-alive connections pooled per peer host, so a forward hop
// hands nothing to another goroutine. (net/http.Transport runs a read loop
// and a write loop per connection and hands every request and answer
// between them.) It speaks plain http only (New admits no other member
// URL) and honours no proxy settings.
//
// A connection goes back to the pool only when its answer's body was read
// to EOF and closed, neither side asked to close it, and the request's
// cancellation hook never fired. The request context's deadline is the
// connection's deadline; cancelling the context sets a deadline in the
// past, which fails any blocked read or write at once.
type peerTransport struct {
	dialer net.Dialer

	mu     sync.Mutex
	idle   map[string][]*peerConn
	closed bool
}

// peerConn is one keep-alive connection to a peer host.
type peerConn struct {
	nc   net.Conn
	addr string
	br   *bufio.Reader
	bw   *bufio.Writer // writes through Write
	werr error         // the connection's last write failure
}

// Write writes to the connection and keeps its failure, which req.Write
// reports no differently from a failing request body.
func (pc *peerConn) Write(p []byte) (int, error) {
	n, err := pc.nc.Write(p)
	if err != nil {
		pc.werr = err
	}
	return n, err
}

func newPeerTransport() *peerTransport {
	return &peerTransport{idle: make(map[string][]*peerConn)}
}

// RoundTrip implements http.RoundTripper. A request on a reused connection
// that fails before the first answer byte — typically the peer closed an
// idle connection as it was taken from the pool — is retried once on a
// fresh connection when its body can be replayed (no body, or GetBody
// set). net/http.Transport does the same only for requests it knows to be
// idempotent (GET, HEAD, OPTIONS, TRACE, or an Idempotency-Key header);
// here every peer request is: a score is a pure function of its body,
// installs apply once, and a drain notice sets a flag. Every other failure
// is returned.
func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	pc, reused, err := t.get(req.Context(), addr)
	if err != nil {
		closeBody(req)
		return nil, err
	}
	resp, replay, err := t.roundTrip(pc, req)
	if err == nil || !reused || !replay || req.Context().Err() != nil {
		return resp, err
	}
	retry := req
	if req.Body != nil && req.Body != http.NoBody {
		if req.GetBody == nil {
			return nil, err
		}
		body, gerr := req.GetBody()
		if gerr != nil {
			return nil, err
		}
		retry = req.Clone(req.Context())
		retry.Body = body
	}
	if pc, err = t.dial(req.Context(), addr); err != nil {
		closeBody(retry)
		return nil, err
	}
	resp, _, err = t.roundTrip(pc, retry)
	return resp, err
}

// roundTrip sends req over pc and reads the answer's head. replay reports
// that the failure came before any answer byte arrived. On failure pc is
// closed; on success it belongs to the answer's body (or, for an answer
// without one, is already back in the pool).
//
// A peer may answer before it has read the whole body — a 429 on its byte
// budget, a 503 while draining — and then stop reading and drop the
// connection, which fails the write. The answer is already in the socket,
// so a failed write still reads it (within the same deadline) and returns
// it, on a connection that is never reused.
func (t *peerTransport) roundTrip(pc *peerConn, req *http.Request) (resp *http.Response, replay bool, err error) {
	ctx := req.Context()
	deadline, _ := ctx.Deadline() // the zero time clears a reused connection's old deadline
	pc.nc.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { pc.nc.SetDeadline(time.Unix(1, 0)) })
	fail := func(e error, beforeAnswer bool) (*http.Response, bool, error) {
		stop()
		pc.nc.Close()
		if ctx.Err() != nil {
			e = ctx.Err()
		}
		return nil, beforeAnswer, e
	}
	werr := req.Write(pc.bw)
	if werr == nil {
		werr = pc.bw.Flush()
	}
	if werr != nil && pc.werr == nil {
		return fail(werr, true) // the request body failed, not the connection
	}
	if _, err := pc.br.Peek(1); err != nil {
		if werr != nil {
			err = werr
		}
		return fail(err, true)
	}
	resp, err = http.ReadResponse(pc.br, req)
	if err != nil {
		return fail(err, false)
	}
	keep := werr == nil && !req.Close && !resp.Close
	if resp.Body == http.NoBody {
		t.release(pc, stop, keep)
		return resp, false, nil
	}
	resp.Body = &peerBody{t: t, pc: pc, rc: resp.Body, stop: stop, keep: keep}
	return resp, false, nil
}

// peerBody is an answer body that owns its connection until Close.
type peerBody struct {
	t    *peerTransport
	pc   *peerConn
	rc   io.ReadCloser
	stop func() bool
	keep bool
	eof  bool
	done bool
}

func (b *peerBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close releases the connection: back to the pool after a body read to
// EOF, closed otherwise. The connection is closed before the inner body,
// which would otherwise read an unread remainder to its end.
func (b *peerBody) Close() error {
	if b.done {
		return nil
	}
	b.done = true
	if !b.eof {
		b.stop()
		b.pc.nc.Close()
		b.rc.Close()
		return nil
	}
	b.rc.Close()
	b.t.release(b.pc, b.stop, b.keep)
	return nil
}

// release pools pc after an answer was read in full, or closes it when it
// may not be reused: either side asked to close it, or its cancellation
// hook has fired (stop reports false), leaving a deadline in the past.
func (t *peerTransport) release(pc *peerConn, stop func() bool, keep bool) {
	if !stop() || !keep {
		pc.nc.Close()
		return
	}
	t.mu.Lock()
	if t.closed || len(t.idle[pc.addr]) >= maxIdlePerPeer {
		t.mu.Unlock()
		pc.nc.Close()
		return
	}
	t.idle[pc.addr] = append(t.idle[pc.addr], pc)
	t.mu.Unlock()
}

// get takes the most recently pooled connection to addr, or dials one.
func (t *peerTransport) get(ctx context.Context, addr string) (pc *peerConn, reused bool, err error) {
	t.mu.Lock()
	if conns := t.idle[addr]; len(conns) > 0 {
		pc = conns[len(conns)-1]
		conns[len(conns)-1] = nil
		t.idle[addr] = conns[:len(conns)-1]
		t.mu.Unlock()
		return pc, true, nil
	}
	t.mu.Unlock()
	pc, err = t.dial(ctx, addr)
	return pc, false, err
}

func (t *peerTransport) dial(ctx context.Context, addr string) (*peerConn, error) {
	nc, err := t.dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	pc := &peerConn{nc: nc, addr: addr, br: bufio.NewReader(nc)}
	pc.bw = bufio.NewWriter(pc)
	return pc, nil
}

// CloseIdleConnections closes every pooled connection and stops pooling:
// a request still in flight, or issued afterwards, closes its connection
// when done. http.Client.CloseIdleConnections calls it.
func (t *peerTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.closed = true
	t.mu.Unlock()
	for _, conns := range idle {
		for _, pc := range conns {
			pc.nc.Close()
		}
	}
}

// closeBody closes a request body the transport will not send, as the
// RoundTripper contract requires.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
