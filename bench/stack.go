package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/frame"
	"rpcrank/internal/registry"
	"rpcrank/internal/server"
)

// stackArg, as the first argument, makes the bench program run the
// ladder's serving stack instead of a benchmark: see serveStack.
const stackArg = "ladder-stack"

// directPath is the stack process's route that runs one round of the
// direct rungs.
const directPath = "/bench/direct"

// stackSpanBase is where the stack process starts numbering its spans,
// far above the ids the bench program hands out, so ids stay unique.
const stackSpanBase = 1 << 40

// fitStages is the stage breakdown of one fit, in milliseconds.
type fitStages struct {
	Iterations, HitRate, Gemm, Seed, Refine, Other float64
}

// stackResult is what the stack process reports when it stops.
type stackResult struct {
	Spans     []span      `json:"spans"`
	Stages    []fitStages `json:"stages"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	FirstErr  string      `json:"first_err,omitempty"`
}

// startStack starts the ladder's serving stack in a child process, so that
// a request crosses from one process to another as it does with rpcd. It
// serves on ln, with its registry in dir, spans timed from epoch, and w's
// payloads for seed as the inputs of its direct rungs.
func startStack(ln net.Listener, dir string, epoch int64, w workload, seed int64) (*child, error) {
	return startChild(ln, stackArg, dir, strconv.FormatInt(epoch, 10), w.name, strconv.FormatInt(seed, 10))
}

// stopStack stops the stack process and returns what it recorded.
func stopStack(c *child) (*stackResult, error) {
	out, err := c.stop()
	if err != nil {
		return nil, err
	}
	var res stackResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("ladder stack result: %w", err)
	}
	return &res, nil
}

// serveStack is the stack process: rpcd's serving stack behind the
// span-recording handler, on the listener inherited as file descriptor 3,
// until its standard input closes. It then writes a stackResult to out as
// JSON. args are the registry directory, the epoch in Unix nanoseconds,
// the workload and the seed.
func serveStack(args []string, in io.Reader, out, errOut io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintln(errOut, "bench: ladder-stack:", err)
		return code
	}
	if len(args) != 4 {
		return fail(2, errors.New("want a directory, an epoch, a workload and a seed"))
	}
	epoch, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return fail(2, err)
	}
	w, err := findWorkload(args[2])
	if err != nil {
		return fail(2, err)
	}
	seed, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return fail(2, err)
	}
	ln, err := inheritedListener()
	if err != nil {
		return fail(1, err)
	}
	rec := &recorder{epoch: epoch}
	rec.next.Store(stackSpanBase)
	d := &direct{w: w, seed: seed, rec: rec, pool: server.NewPool(0)}
	defer d.pool.Close()
	st, err := newStack(args[0], ln, nil, func(api http.Handler) http.Handler {
		traced := rec.wrap(api)
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == directPath {
				d.serveRound(rw, r)
				return
			}
			traced.ServeHTTP(rw, r)
		})
	})
	if err != nil {
		ln.Close()
		return fail(1, err)
	}
	d.mu.Lock()
	d.reg = st.reg
	d.mu.Unlock()
	io.Copy(io.Discard, in)
	st.close()

	d.mu.Lock()
	defer d.mu.Unlock()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	d.res.Spans = rec.spans
	if err := json.NewEncoder(out).Encode(&d.res); err != nil {
		return fail(1, err)
	}
	return 0
}

// direct calls each layer's functions in the stack process, on the model
// the stack serves, one round per request to directPath.
type direct struct {
	w    workload
	seed int64
	rec  *recorder
	pool *server.Pool

	// mu serializes rounds and guards the fields below.
	mu  sync.Mutex
	reg *registry.Registry
	// model, frames and want are set by the first round: the served model,
	// the payloads as frames, and the reference score of every row.
	model    *core.Model
	frames   []*frame.Frame
	want     [][]float64
	journals [][]float64
	fitOpts  core.Options
	dst      []float64
	res      stackResult
}

func (d *direct) serveRound(rw http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.model == nil {
		if err := d.prepare(); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	d.registryRung()
	d.poolRung(r.Context())
	d.coreRung()
	d.fitRung()
}

// prepare loads the served model and the reference that checks every
// rung's output: the model's rule document, loaded with core.Load.
func (d *direct) prepare() error {
	model, _, err := d.reg.Get(servedModel)
	if err != nil {
		return err
	}
	rule, err := d.reg.RuleDocument(servedModel)
	if err != nil {
		return err
	}
	ref, err := core.Load(bytes.NewReader(rule))
	if err != nil {
		return err
	}
	for _, p := range scorePayloads(dataset.Countries(), d.w.rows, payloadCount, d.seed) {
		f, err := frame.FromRows(p.rows)
		if err != nil {
			return err
		}
		want := make([]float64, len(p.rows))
		for i, row := range p.rows {
			want[i] = ref.Score(row)
		}
		d.frames, d.want = append(d.frames, f), append(d.want, want)
	}
	journals := dataset.Journals()
	d.journals = journals.Data.ToRows()
	// The options the fit handler uses: three restarts, one worker per
	// scoring worker, the request's seed.
	d.fitOpts = core.Options{Alpha: journals.Alpha, Restarts: 3, Seed: fitSeed, Workers: d.pool.Workers()}
	d.model = model
	return nil
}

// note counts one call of a rung and its error, if any.
func (d *direct) note(err error) {
	d.res.Attempted++
	if err != nil {
		d.res.Failed++
		if d.res.FirstErr == "" {
			d.res.FirstErr = err.Error()
		}
	}
}

func (d *direct) registryRung() {
	for range ladderCalls(d.w) {
		id, start := d.rec.begin()
		_, err := d.reg.GetMeta(servedModel)
		if err == nil {
			_, _, err = d.reg.Get(servedModel)
		}
		d.rec.end(id, 0, "registry.lookup", start)
		d.note(err)
	}
}

func (d *direct) poolRung(ctx context.Context) {
	for i := range ladderCalls(d.w) {
		k := i % len(d.frames)
		id, start := d.rec.begin()
		out, err := d.pool.ScoreFrame(ctx, d.model, d.frames[k], d.dst)
		d.rec.end(id, 0, "pool.score_frame", start)
		d.dst = out
		if err == nil {
			err = sameScores(out, d.want[k])
		}
		d.note(err)
	}
}

func (d *direct) coreRung() {
	sc := d.model.AcquireScorer()
	defer d.model.ReleaseScorer(sc)
	for i := range ladderCalls(d.w) {
		k := i % len(d.frames)
		f := d.frames[k]
		d.dst = slices.Grow(d.dst[:0], f.N())[:f.N()]
		id, start := d.rec.begin()
		sc.ScoreFrameRange(d.dst, f, 0, f.N())
		d.rec.end(id, 0, "core.score_frame", start)
		d.note(sameScores(d.dst, d.want[k]))
	}
}

// fitRung makes one core.Fit of the journals table with the handler's
// options and one registry.Put of the result, as the fit handler does.
// The fit must match the one the client's first fit request stored.
func (d *direct) fitRung() {
	id, start := d.rec.begin()
	m, err := core.Fit(d.journals, d.fitOpts)
	end := d.rec.end(id, 0, "core.fit", start)
	if err == nil {
		var served registry.Meta
		served, err = d.reg.GetMeta("journals-v1")
		if err == nil && m.ExplainedVariance() != served.ExplainedVariance {
			err = errors.New("direct fit differs from the served fit")
		}
	}
	d.note(err)
	if err != nil {
		return
	}
	fd := m.FitDiag
	st := fitStages{
		Iterations: float64(fd.Iterations),
		HitRate:    fd.WarmStartHitRate,
		Gemm:       durMs(time.Duration(fd.Stages.GemmNs)),
		Seed:       durMs(time.Duration(fd.Stages.SeedNs)),
		Refine:     durMs(time.Duration(fd.Stages.RefineNs)),
	}
	st.Other = durMs(time.Duration(end-start)) - st.Gemm - st.Seed - st.Refine
	d.res.Stages = append(d.res.Stages, st)

	id, start = d.rec.begin()
	_, err = d.reg.Put("journals", m, len(d.journals), m.ExplainedVariance())
	d.rec.end(id, 0, "registry.put", start)
	d.note(err)
}

// sameScores checks scores against the reference scores want.
func sameScores(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d scores for %d rows", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > scoreTolerance {
			return fmt.Errorf("row %d scored %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}
