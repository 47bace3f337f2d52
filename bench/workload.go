package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"

	"rpcrank/bench/load"
	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
)

// workload is one traffic mix. README.md gives the reason for each.
type workload struct {
	name string
	// nodes is the number of rpcd processes; two form a serving group and
	// the clients talk to the one that does not own the served model.
	nodes int
	// clients is the number of closed-loop score clients.
	clients int
	// rows is the number of rows per score request.
	rows int
	// fitEvery, when non-zero, adds a paced stream of journals fits.
	fitEvery time.Duration
}

var workloads = []workload{
	{name: "score-small", nodes: 1, clients: 2, rows: 100},
	{name: "score-bulk", nodes: 1, clients: 1, rows: 10_000},
	{name: "fit-mixed", nodes: 1, clients: 1, rows: 100, fitEvery: 200 * time.Millisecond},
	{name: "forwarded", nodes: 2, clients: 2, rows: 100},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timing sets how long each phase of a run lasts.
type timing struct {
	warmup, measure time.Duration
	// setups is how many times a run sets the nodes up; set-up time is
	// reported as their median and the last set-up serves the workload.
	setups int
}

// entry is one reported number.
type entry struct {
	name  string
	value float64
	unit  string
	// samples is the sample count behind a percentile or median, 0 for
	// other numbers.
	samples int
}

// report is what one run measured.
type report struct {
	entries           []entry
	attempted, failed int64
	// firstErr describes the first failed request.
	firstErr error
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.entries = append(r.entries, entry{name, value, unit, samples})
}

func (r *report) get(name string) (entry, bool) {
	for _, e := range r.entries {
		if e.name == name {
			return e, true
		}
	}
	return entry{}, false
}

func (r *report) count(st *load.Stats) {
	r.attempted += st.Attempted()
	r.failed += st.Failed()
	if r.firstErr == nil {
		r.firstErr = st.FirstErr
	}
}

// env is a set-up group of nodes serving the countries model.
type env struct {
	nodes []*node
	// target is the base URL the workload's clients send to.
	target string
	// ref is the served model, loaded from its rule document.
	ref *core.Model
	// readyMs and fitMs time the set-up's first two steps.
	readyMs, fitMs float64
}

func (e *env) pids() []int {
	var p []int
	for _, n := range e.nodes {
		p = append(p, n.pid)
	}
	return p
}

// setUp starts w's nodes and fits the countries model on them, then scores
// first through the node the workload will target and checks the answer
// against the model's rule document. It returns the time all of that took.
func setUp(ctx context.Context, start starter, w workload, first payload) (*env, time.Duration, error) {
	t0 := time.Now()
	nodes, err := start(w.nodes)
	if err != nil {
		return nil, 0, err
	}
	e := &env{nodes: nodes}
	if err := e.prepare(ctx, t0, first); err != nil {
		for _, n := range nodes {
			if tail := logTail(n); tail != "" {
				err = fmt.Errorf("%w\nrpcd log of %s:\n%s", err, n.url, tail)
			}
		}
		stopAll(nodes)
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

func (e *env) prepare(ctx context.Context, t0 time.Time, first payload) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	for _, n := range e.nodes {
		if err := waitFor(ctx, hc, n.url+"/healthz"); err != nil {
			return err
		}
	}
	e.readyMs = msSince(t0)
	t1 := time.Now()
	body, _, err := call(ctx, hc, http.MethodPost, e.nodes[0].url+"/v1/models", fitBody("countries", dataset.Countries()))
	if err != nil {
		return fmt.Errorf("fitting %s: %w", servedModel, err)
	}
	if !bytes.Contains(body, []byte(`"id":"`+servedModel+`"`)) {
		return fmt.Errorf("fit answered a model other than %s: %.200s", servedModel, body)
	}
	e.fitMs = msSince(t1)
	for _, n := range e.nodes {
		if err := waitFor(ctx, hc, n.url+"/v1/models/"+servedModel); err != nil {
			return err
		}
	}
	rule, _, err := call(ctx, hc, http.MethodGet, e.nodes[0].url+"/v1/models/"+servedModel+"/rule", nil)
	if err != nil {
		return err
	}
	if e.ref, err = core.Load(bytes.NewReader(rule)); err != nil {
		return fmt.Errorf("loading the rule document: %w", err)
	}
	// In a group, the workload targets a node that forwards every request.
	// Rendezvous routing makes exactly one node the owner, so the first
	// node that answers through a peer is the target.
	for _, n := range e.nodes {
		body, hdr, err := call(ctx, hc, http.MethodPost, scorePath(n.url), first.body)
		if err != nil {
			return err
		}
		if len(e.nodes) > 1 && hdr.Get("X-Rpc-Served-By") == "" {
			continue
		}
		if err := checkScores(body, first.rows, e.ref); err != nil {
			return err
		}
		e.target = n.url
		return nil
	}
	return errors.New("no node forwards the served model to a peer")
}

func (e *env) stop() { stopAll(e.nodes) }

func scorePath(base string) string { return base + "/v1/models/" + servedModel + "/score" }

// call sends one request and returns the body and headers of a 2xx answer.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, raw)
	}
	return raw, resp.Header, err
}

// waitFor polls url until it answers 200, for at most ten seconds.
func waitFor(ctx context.Context, hc *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, err := call(ctx, hc, http.MethodGet, url, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("waiting for %s: %w", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func msSince(t time.Time) float64 { return durMs(time.Since(t)) }

// runWorkload sets w's nodes up tm.setups times, warms the last set-up up
// and measures it in slices interleaved with slices against the reference
// server, and reports the end-to-end metrics over the whole measured
// window.
func runWorkload(ctx context.Context, w workload, seed int64, tm timing, start starter) (*report, error) {
	payloads := scorePayloads(dataset.Countries(), w.rows, payloadCount, seed)
	e, times, err := setUps(ctx, start, w, payloads[0], tm.setups)
	if err != nil {
		return nil, err
	}
	defer e.stop()

	answers, err := verifyPayloads(ctx, e.target, payloads, e.ref)
	if err != nil {
		return nil, err
	}
	checks := make([]func([]byte) error, len(answers))
	for k, a := range answers {
		checks[k] = sameBytes(a)
	}
	clients := make([]*load.Client, w.clients)
	for i := range clients {
		clients[i] = load.NewClient()
		defer clients[i].Close()
	}
	next := func(c, i int) load.Request {
		k := (i*len(clients) + c) % len(payloads)
		return load.Request{URL: scorePath(e.target), Body: payloads[k].body, Rows: w.rows, Check: checks[k]}
	}
	var fc fitChecker
	fitClient := load.NewClient()
	defer fitClient.Close()
	fitReq := load.Request{URL: e.target + "/v1/models", Body: fitBody("journals", dataset.Journals()), Check: fc.check}
	window := func(d time.Duration) (score, fit load.Stats) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if w.fitEvery > 0 {
				fit = load.Paced(ctx, fitClient, w.fitEvery, d, func(int) load.Request { return fitReq })
			}
		}()
		score = load.ClosedLoop(ctx, clients, d, next)
		<-done
		return score, fit
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	refProc, err := startChild(ln, referenceArg)
	ln.Close()
	if err != nil {
		return nil, err
	}
	defer refProc.stop()
	// Each window ends by dropping the clients' idle connections, so that
	// they hold no more connections than there are clients when they turn
	// from rpcd to the reference and back.
	dropConns := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	refNext := func(c, i int) load.Request {
		k := (i*len(clients) + c) % len(payloads)
		return load.Request{URL: refProc.url, Body: payloads[k].body, Rows: w.rows, Check: sameBytes(payloads[k].body)}
	}

	rep := &report{}
	score, fit := window(tm.warmup)
	dropConns()
	ref := load.ClosedLoop(ctx, clients, tm.warmup/4, refNext)
	dropConns()
	rep.count(&score)
	rep.count(&fit)
	rep.count(&ref)
	// The measured window alternates slices against rpcd with slices a
	// quarter as long against the reference server, so that both see the
	// host in the same state.
	n := max(1, int(tm.measure/time.Second))
	rpcdLen, refLen := tm.measure*4/5/time.Duration(n), tm.measure/5/time.Duration(n)
	score, fit, ref = load.Stats{}, load.Stats{}, load.Stats{}
	var cpu, refCPU time.Duration
	for range n {
		c0, err := cpuTime(e.pids())
		if err != nil {
			return nil, err
		}
		s, f := window(rpcdLen)
		dropConns()
		c1, err := cpuTime(e.pids())
		if err != nil {
			return nil, err
		}
		r0, err := cpuTime([]int{refProc.pid})
		if err != nil {
			return nil, err
		}
		r := load.ClosedLoop(ctx, clients, refLen, refNext)
		dropConns()
		r1, err := cpuTime([]int{refProc.pid})
		if err != nil {
			return nil, err
		}
		cpu, refCPU = cpu+c1-c0, refCPU+r1-r0
		score.Append(&s)
		fit.Append(&f)
		ref.Append(&r)
	}
	hwm, err := peakRSS(e.pids())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.count(&score)
	rep.count(&fit)
	rep.count(&ref)

	rep.add("setup_s", median(times.total), "s", len(times.total))
	rpcd := serving(&score, score.Counts[load.OK]+fit.Counts[load.OK], cpu)
	base := serving(&ref, ref.Counts[load.OK], refCPU)
	rep.add("rows_per_s_rel", rpcd.rowsPerS/base.rowsPerS, "ratio", 0)
	rep.add("p50_rel", rpcd.p50/base.p50, "ratio", 0)
	rep.add("p99_rel", rpcd.p99/base.p99, "ratio", 0)
	rep.add("cpu_per_req_rel", rpcd.cpuPerReq/base.cpuPerReq, "ratio", 0)
	rpcd.report(rep, "")
	base.report(rep, "ref.")
	rep.add("rss_peak_mb", float64(hwm)/1024, "MiB", 0)
	if w.fitEvery > 0 {
		fl := slices.Sorted(slices.Values(fit.Latencies))
		lags := slices.Sorted(slices.Values(fit.Lags))
		rep.add("fit_p50_ms", load.Quantile(fl, 50), "ms", len(fl))
		rep.add("fit_p90_ms", load.Quantile(fl, 90), "ms", len(fl))
		rep.add("fit_late_max_ms", load.Quantile(lags, 100), "ms", len(lags))
	}
	attempted := score.Attempted() + fit.Attempted() + ref.Attempted()
	rep.add("requests", float64(attempted), "count", 0)
	rep.add("fail_ratio", float64(score.Failed()+fit.Failed()+ref.Failed())/float64(max(attempted, 1)), "ratio", 0)
	times.report(rep)
	return rep, nil
}

// served is what one server did in a measured window.
type served struct {
	rowsPerS, p50, p99, cpuPerReq float64
	samples                       int
}

// serving summarizes the score stream st, with done requests completed in
// all and cpu the server's CPU time.
func serving(st *load.Stats, done int64, cpu time.Duration) served {
	lat := slices.Sorted(slices.Values(st.Latencies))
	return served{
		rowsPerS:  float64(st.Rows) / st.Elapsed.Seconds(),
		p50:       load.Quantile(lat, 50),
		p99:       load.Quantile(lat, 99),
		cpuPerReq: durMs(cpu) / float64(done),
		samples:   len(lat),
	}
}

func (s served) report(rep *report, prefix string) {
	rep.add(prefix+"rows_per_s", s.rowsPerS, "rows/s", 0)
	rep.add(prefix+"p50_ms", s.p50, "ms", s.samples)
	rep.add(prefix+"p99_ms", s.p99, "ms", s.samples)
	rep.add(prefix+"cpu_ms_per_req", s.cpuPerReq, "ms", 0)
}

// setupTimes holds the times of repeated set-ups: the whole set-up in
// seconds, and its first two steps in milliseconds.
type setupTimes struct {
	total, ready, fit []float64
}

// report adds the medians of the first two steps.
func (t *setupTimes) report(rep *report) {
	rep.add("setup.ready_ms", median(t.ready), "ms", len(t.ready))
	rep.add("setup.fit_ms", median(t.fit), "ms", len(t.fit))
}

// setUps sets w's nodes up n times, stopping each set-up but the last,
// and returns the last one, running, with the times of all of them.
func setUps(ctx context.Context, start starter, w workload, first payload, n int) (*env, *setupTimes, error) {
	times := &setupTimes{}
	var e *env
	for range n {
		if e != nil {
			e.stop()
		}
		var d time.Duration
		var err error
		if e, d, err = setUp(ctx, start, w, first); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times.total = append(times.total, d.Seconds())
		times.ready = append(times.ready, e.readyMs)
		times.fit = append(times.fit, e.fitMs)
	}
	return e, times, nil
}

// verifyPayloads sends every payload once to target, checks each answer
// against ref and returns the answers. Every later answer to a payload
// must repeat its verified answer byte for byte.
func verifyPayloads(ctx context.Context, target string, payloads []payload, ref *core.Model) ([][]byte, error) {
	c := load.NewClient()
	defer c.Close()
	answers := make([][]byte, len(payloads))
	for k, p := range payloads {
		out, _, body, err := c.Do(ctx, load.Request{
			URL:   scorePath(target),
			Body:  p.body,
			Check: func(b []byte) error { return checkScores(b, p.rows, ref) },
		})
		if out != load.OK {
			return nil, fmt.Errorf("payload %d: %s: %w", k, out, err)
		}
		answers[k] = bytes.Clone(body)
	}
	return answers, nil
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 {
	return load.Quantile(slices.Sorted(slices.Values(xs)), 50)
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
