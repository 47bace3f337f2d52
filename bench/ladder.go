package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/bench/load"
	"rpcrank/internal/cluster"
	"rpcrank/internal/dataset"
	"rpcrank/internal/registry"
)

// spanHeader carries a client span's id to the stack process, so the
// server span recorded there names its parent.
const spanHeader = "X-Bench-Span"

// span is one timed call into a layer. Times are nanoseconds since the
// ladder started; Parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The bench program
// and its stack process each have one; both count time from the same
// epoch, in Unix nanoseconds, so their spans share one clock.
type recorder struct {
	epoch int64
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) now() int64 { return time.Now().UnixNano() - r.epoch }

func (r *recorder) begin() (id uint64, start int64) { return r.next.Add(1), r.now() }

// end records the span that began at start and returns its end time.
func (r *recorder) end(id, parent uint64, name string, start int64) int64 {
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.End
}

// wrap records a server span around every request that names its parent
// span; other requests pass through untouched.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		name := "server.serve_http"
		if req.URL.Path == "/v1/models" {
			name = "server.fit_serve"
		}
		id, start := r.begin()
		h.ServeHTTP(w, req)
		r.end(id, parent, name, start)
	})
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, by span id.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total, reach int64 = 0, math.MinInt64
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			total += v.hi - lo
		}
		reach = max(reach, v.hi)
	}
	return total
}

// ladderCalls is how many calls every score rung makes per round.
func ladderCalls(w workload) int {
	if w.rows >= 10_000 {
		return 8
	}
	return 64
}

// ladder is the client side of the traced run. It sends the workload's
// payloads to a serving stack in a child process and to the real daemon,
// forwards them to the stack through a cluster of its own, and has the
// stack call each layer's functions directly.
type ladder struct {
	w        workload
	rec      *recorder
	srv      *child
	payloads []payload
	// stack and daemon are where the client rungs send the payloads.
	stack, daemon target
	fwd           *cluster.Cluster
	// fwdReg is the forwarding cluster's registry; it stays empty.
	fwdReg    *registry.Registry
	clients   []*load.Client
	fitClient *load.Client
	fits      fitChecker
	fitBody   []byte

	// mu guards the fields below, which rung goroutines write.
	mu sync.Mutex
	// offMs and daemonMs hold the latencies of the client rungs that
	// record no spans: to the stack, and to the daemon.
	offMs, daemonMs   []float64
	attempted, failed int64
	firstErr          error
}

// target is a server the client rungs send the payloads to, with its
// verified answer to each.
type target struct {
	url     string
	answers [][]byte
}

// runLadder sets w's daemon up as runWorkload does and starts the stack
// process, then replays w's payloads through every rung, round after
// round, for tm.measure, and reports the per-layer metrics. Each round
// also sends the payloads to the daemon, so the daemon and the stack are
// compared over the same seconds. The spans go to spansPath.
func runLadder(ctx context.Context, w workload, seed int64, tm timing, start starter, dir, spansPath string) (*report, error) {
	payloads := scorePayloads(dataset.Countries(), w.rows, payloadCount, seed)
	daemon, times, err := setUps(ctx, start, w, payloads[0], tm.setups)
	if err != nil {
		return nil, err
	}
	defer daemon.stop()
	l, err := newLadder(ctx, w, seed, payloads, daemon, filepath.Join(dir, "ladder"))
	if err != nil {
		return nil, err
	}
	defer l.close()
	deadline := time.Now().Add(tm.measure)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l.round(ctx, round)
	}
	served, err := stopStack(l.srv)
	l.srv = nil
	if err != nil {
		return nil, err
	}
	spans := append(l.rec.spans, served.Spans...)
	rep := &report{
		attempted: l.attempted + served.Attempted,
		failed:    l.failed + served.Failed,
		firstErr:  l.firstErr,
	}
	if rep.firstErr == nil && served.FirstErr != "" {
		rep.firstErr = errors.New(served.FirstErr)
	}
	l.report(rep, spans, served.Stages)
	times.report(rep)
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	return rep, nil
}

func newLadder(ctx context.Context, w workload, seed int64, payloads []payload, daemon *env, dir string) (*ladder, error) {
	l := &ladder{w: w, rec: &recorder{epoch: time.Now().UnixNano()}, payloads: payloads}
	if err := l.init(ctx, seed, daemon, dir); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// init starts the stack process, fits the served model through it and
// verifies every payload's answer from the stack and from the daemon.
func (l *ladder) init(ctx context.Context, seed int64, daemon *env, dir string) error {
	var err error
	if l.fwdReg, err = registry.Open(filepath.Join(dir, "forwarder"), registry.DefaultMaxLoaded); err != nil {
		return err
	}
	ln, fwd, err := newForwarder(l.fwdReg)
	if err != nil {
		return err
	}
	l.fwd = fwd
	l.srv, err = startStack(ln, filepath.Join(dir, "served"), l.rec.epoch, l.w, seed)
	ln.Close()
	if err != nil {
		return err
	}
	e := &env{nodes: []*node{{url: l.srv.url}}}
	if err := e.prepare(ctx, time.Now(), l.payloads[0]); err != nil {
		// A stack process that failed says why when it is stopped.
		_, serr := stopStack(l.srv)
		l.srv = nil
		return errors.Join(err, serr)
	}
	l.stack.url, l.daemon.url = l.srv.url, daemon.target
	if l.stack.answers, err = verifyPayloads(ctx, l.stack.url, l.payloads, e.ref); err != nil {
		return err
	}
	if l.daemon.answers, err = verifyPayloads(ctx, l.daemon.url, l.payloads, daemon.ref); err != nil {
		return err
	}
	for range l.w.clients {
		l.clients = append(l.clients, load.NewClient())
	}
	l.fitClient = load.NewClient()
	l.fitBody = fitBody("journals", dataset.Journals())
	return nil
}

// newForwarder returns a listener for the stack process and a cluster
// whose only peer is that listener's address and which does not own the
// served model itself, so every Forward crosses to the stack. Rendezvous
// ownership follows from the peer's address, so it listens anew until the
// peer owns the model; each try succeeds with even odds. Probing and
// anti-entropy are left idle so they add no work to the rung.
func newForwarder(reg *registry.Registry) (net.Listener, *cluster.Cluster, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for range 64 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		cl, err := cluster.New(cluster.Options{
			Self:                "http://forwarder.invalid",
			Peers:               []string{"http://" + ln.Addr().String()},
			Registry:            reg,
			ProbeInterval:       time.Hour,
			AntiEntropyInterval: time.Hour,
			Logger:              quiet,
		})
		if err != nil {
			ln.Close()
			return nil, nil, err
		}
		if cl.ShouldForward(servedModel) {
			return ln, cl, nil
		}
		cl.Close()
		ln.Close()
	}
	return nil, nil, errors.New("no loopback address made the peer own the served model")
}

func (l *ladder) close() {
	for _, c := range l.clients {
		c.Close()
	}
	if l.fitClient != nil {
		l.fitClient.Close()
	}
	if l.srv != nil {
		l.srv.stop()
	}
	if l.fwd != nil {
		l.fwd.Close()
	}
	if l.fwdReg != nil {
		l.fwdReg.Close()
	}
}

// note counts one call of a rung and its error, if any.
func (l *ladder) note(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// parallel makes calls calls of f spread over n goroutines; f(c, i) is
// goroutine c's i-th call.
func parallel(n, calls int, f func(c, i int)) {
	var wg sync.WaitGroup
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls / n {
				f(c, i)
			}
		}()
	}
	wg.Wait()
}

// clientRung names the three client rungs.
type clientRung int

const (
	stackOff  clientRung = iota // to the stack, spans off
	stackOn                     // to the stack, spans on
	daemonOff                   // to the daemon, spans off
)

// round makes one pass over every rung. The client rungs take turns at
// going first, and so do the two fits, so drift over the run cancels out
// of the differences between them.
func (l *ladder) round(ctx context.Context, i int) {
	for j := range 3 {
		l.clientRung(ctx, clientRung((i+j)%3))
	}
	l.forwardRung(ctx)
	// The direct rungs run in the stack process, where rpcd would run
	// them; the request that starts them is not timed. The first round
	// fits through the client first: the direct fit is checked against it.
	direct := func() {
		_, _, _, err := l.fitClient.Do(ctx, load.Request{URL: l.stack.url + directPath})
		l.note(err)
	}
	if i%2 == 0 {
		l.fitRung(ctx)
		direct()
	} else {
		direct()
		l.fitRung(ctx)
	}
}

func (l *ladder) clientRung(ctx context.Context, r clientRung) {
	to := &l.stack
	if r == daemonOff {
		to = &l.daemon
	}
	n := len(l.clients)
	parallel(n, ladderCalls(l.w), func(c, i int) {
		k := (i*n + c) % len(l.payloads)
		req := load.Request{URL: scorePath(to.url), Body: l.payloads[k].body, Check: sameBytes(to.answers[k])}
		var err error
		if r == stackOn {
			id, start := l.rec.begin()
			req.Header = http.Header{spanHeader: {strconv.FormatUint(id, 10)}}
			_, _, _, err = l.clients[c].Do(ctx, req)
			l.rec.end(id, 0, "client.request", start)
		} else {
			t0 := time.Now()
			_, _, _, err = l.clients[c].Do(ctx, req)
			d := msSince(t0)
			l.mu.Lock()
			if r == stackOff {
				l.offMs = append(l.offMs, d)
			} else {
				l.daemonMs = append(l.daemonMs, d)
			}
			l.mu.Unlock()
		}
		l.note(err)
	})
}

func (l *ladder) forwardRung(ctx context.Context) {
	n := len(l.clients)
	parallel(n, ladderCalls(l.w), func(c, i int) {
		k := (i*n + c) % len(l.payloads)
		body := l.payloads[k].body
		r := httptest.NewRequest(http.MethodPost, scorePath(""), bytes.NewReader(body)).WithContext(ctx)
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		id, start := l.rec.begin()
		ok := l.fwd.Forward(w, r, servedModel, body, 0, false)
		l.rec.end(id, 0, "cluster.forward", start)
		var err error
		switch {
		case !ok:
			err = errors.New("cluster.Forward did not reach the owner")
		case w.Code != http.StatusOK:
			err = fmt.Errorf("forwarded score: status %d", w.Code)
		default:
			err = sameBytes(l.stack.answers[k])(w.Body.Bytes())
		}
		l.note(err)
	})
}

// fitRung makes one journals fit through the client.
func (l *ladder) fitRung(ctx context.Context) {
	id, start := l.rec.begin()
	req := load.Request{
		URL:    l.stack.url + "/v1/models",
		Body:   l.fitBody,
		Header: http.Header{spanHeader: {strconv.FormatUint(id, 10)}},
		Check:  l.fits.check,
	}
	_, _, _, err := l.fitClient.Do(ctx, req)
	l.rec.end(id, 0, "client.fit", start)
	l.note(err)
}

// report adds the per-layer metrics. Rung metrics are medians over every
// call. A derived self time subtracts the medians of the rungs beneath,
// except the fit's, which pairs the fits of each round.
func (l *ladder) report(rep *report, spans []span, stages []fitStages) {
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	self := selfTimes(spans)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], durMs(time.Duration(s.End-s.Start)))
		selfs[s.Name] = append(selfs[s.Name], durMs(time.Duration(self[s.ID])))
	}
	med := func(name string) float64 { return median(durs[name]) }
	add := func(name string, v float64, unit, span string) {
		rep.add(name, v, unit, len(durs[span]))
	}
	pick := func(f func(fitStages) float64) float64 {
		var xs []float64
		for _, s := range stages {
			xs = append(xs, f(s))
		}
		return median(xs)
	}

	clientMs, serveMs := med("client.request"), med("server.serve_http")
	poolMs, coreMs, lookupMs := med("pool.score_frame"), med("core.score_frame"), med("registry.lookup")
	add("client.request_ms", clientMs, "ms", "client.request")
	add("server.serve_http_ms", serveMs, "ms", "server.serve_http")
	rep.add("net.self_ms", median(selfs["client.request"]), "ms", len(selfs["client.request"]))
	add("registry.lookup_us", lookupMs*1000, "us", "registry.lookup")
	add("pool.score_frame_ms", poolMs, "ms", "pool.score_frame")
	add("core.score_frame_ms", coreMs, "ms", "core.score_frame")
	rep.add("core.ns_per_row", coreMs*1e6/float64(l.w.rows), "ns", 0)
	rep.add("pool.speedup", coreMs/poolMs, "ratio", 0)
	rep.add("server.self_ms", serveMs-poolMs-lookupMs, "ms", 0)
	var req, resp int
	for k, p := range l.payloads {
		req, resp = req+len(p.body), resp+len(l.stack.answers[k])
	}
	rep.add("http.req_bytes", float64(req)/float64(len(l.payloads)), "bytes", 0)
	rep.add("http.resp_bytes", float64(resp)/float64(len(l.payloads)), "bytes", 0)
	fwdMs := med("cluster.forward")
	add("cluster.forward_ms", fwdMs, "ms", "cluster.forward")
	rep.add("cluster.forward_self_ms", fwdMs-clientMs, "ms", 0)

	add("client.fit_ms", med("client.fit"), "ms", "client.fit")
	add("server.fit_serve_ms", med("server.fit_serve"), "ms", "server.fit_serve")
	add("core.fit_ms", med("core.fit"), "ms", "core.fit")
	rep.add("core.fit_iterations", pick(func(s fitStages) float64 { return s.Iterations }), "count", len(stages))
	rep.add("core.fit_warm_hit_rate", pick(func(s fitStages) float64 { return s.HitRate }), "ratio", len(stages))
	rep.add("core.fit_gemm_ms", pick(func(s fitStages) float64 { return s.Gemm }), "ms", len(stages))
	rep.add("core.fit_seed_ms", pick(func(s fitStages) float64 { return s.Seed }), "ms", len(stages))
	rep.add("core.fit_refine_ms", pick(func(s fitStages) float64 { return s.Refine }), "ms", len(stages))
	rep.add("core.fit_other_ms", pick(func(s fitStages) float64 { return s.Other }), "ms", len(stages))
	add("registry.put_ms", med("registry.put"), "ms", "registry.put")
	// One fit varies more from call to call than the server's own part of
	// it is long, so the fits of each round, made within a fraction of a
	// second, are subtracted pairwise. Each round makes one of each, one
	// after another, so the spans of each name are in round order.
	serves, fits, puts := durs["server.fit_serve"], durs["core.fit"], durs["registry.put"]
	var fitSelf []float64
	for i := range min(len(serves), len(fits), len(puts)) {
		fitSelf = append(fitSelf, serves[i]-fits[i]-puts[i])
	}
	rep.add("server.fit_self_ms", median(fitSelf), "ms", len(fitSelf))
	rep.add("net.fit_self_ms", median(selfs["client.fit"]), "ms", len(selfs["client.fit"]))

	offMs := median(l.offMs)
	rep.add("trace.overhead_pct", (clientMs-offMs)/offMs*100, "%", len(l.offMs))
	daemonMs := median(l.daemonMs)
	rep.add("untraced.p50_ms", daemonMs, "ms", len(l.daemonMs))
	rep.add("ladder.residual_pct", (daemonMs-clientMs)/daemonMs*100, "%", 0)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
