package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"rpcrank/internal/core"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
	"rpcrank/internal/registry"
)

func benchServer(b *testing.B) *Server {
	b.Helper()
	reg, err := registry.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	train := make([][]float64, 64)
	for i := range train {
		u := float64(i) / 63
		train[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	m, err := core.Fit(train, core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Put("bench", m, len(train), 0); err != nil {
		b.Fatal(err)
	}
	return New(reg, Options{})
}

func benchRows(size int) [][]float64 {
	rows := make([][]float64, size)
	for i := range rows {
		u := float64(i%997) / 996
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	return rows
}

// replayBody is a resettable io.ReadCloser over one request body, so the
// benchmark loop re-serves the same bytes without per-iteration reader
// allocations.
type replayBody struct{ r bytes.Reader }

func (rb *replayBody) Read(p []byte) (int, error) { return rb.r.Read(p) }
func (rb *replayBody) Close() error               { return nil }

// discardWriter is a reusable ResponseWriter that counts body bytes and
// keeps the status, adding no per-request allocations of its own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}
func (d *discardWriter) WriteHeader(code int) { d.status = code }

// sixDigitBody is the score request body of rows with every value written
// to six significant digits, as bench/ payloads and typical clients send
// them.
func sixDigitBody(rows [][]float64) []byte {
	body := []byte(`{"rows":[`)
	for i, row := range rows {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '[')
		for j, v := range row {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, v, 'g', 6, 64)
		}
		body = append(body, ']')
	}
	return append(body, "]}"...)
}

// BenchmarkServerScoreBatch measures the server data plane of the score
// path — mux routing, frame decode, validation, worker-pool scoring over
// the shared frame, response encode — by driving ServeHTTP directly, at
// batch sizes spanning the serial path (1), the threshold region (100), and
// the sharded path (10k). Transport cost is excluded (see
// BenchmarkServerScoreHTTP for the socket-level number), so allocs/op here
// is the data plane's own footprint: pooled body, frame, scores, and
// response buffers make it independent of the row count. The rows=N bodies
// come from json.Marshal, whose shortest round-trip numbers run to 17
// significant digits and all take the decoder's slow number path;
// digits=6/rows=10000 sends the same 10k rows at six significant digits,
// the decode path bench/ payloads take.
func BenchmarkServerScoreBatch(b *testing.B) {
	s := benchServer(b)
	defer s.Close()

	cases := []struct {
		name      string
		size      int
		sixDigits bool
	}{
		{"rows=1", 1, false},
		{"rows=100", 100, false},
		{"rows=10000", 10_000, false},
		{"digits=6/rows=10000", 10_000, true},
	}
	for _, c := range cases {
		size := c.size
		body, err := json.Marshal(ScoreRequest{Rows: benchRows(size)})
		if err != nil {
			b.Fatal(err)
		}
		if c.sixDigits {
			body = sixDigitBody(benchRows(size))
		}
		b.Run(c.name, func(b *testing.B) {
			rb := &replayBody{}
			req := httptest.NewRequest("POST", "/v1/models/bench-v1/score", nil)
			req.Header.Set("Content-Type", "application/json")
			req.ContentLength = int64(len(body))
			w := &discardWriter{h: make(http.Header)}

			// One warm-up round trip, checked for correctness outside the
			// timed loop.
			rb.r.Reset(body)
			req.Body = rb
			s.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}

			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.r.Reset(body)
				req.Body = rb
				w.status, w.n = http.StatusOK, 0
				s.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkServerScoreHTTP measures the same path end to end over a real
// TCP connection — HTTP client, transport, server goroutine, response
// decode — anchoring the number a remote caller actually sees.
func BenchmarkServerScoreHTTP(b *testing.B) {
	s := benchServer(b)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, size := range []int{1, 10_000} {
		body, err := json.Marshal(ScoreRequest{Rows: benchRows(size)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", size), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/v1/models/bench-v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var out ScoreResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if out.Count != size {
					b.Fatalf("scored %d rows, want %d", out.Count, size)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkPoolScoreBatch isolates the worker pool from HTTP and JSON.
// Each batch size from 64 to 1024 rows scores once inline on the caller's
// goroutine and once split into one row range per worker; the size where
// the split starts to win is the crossover concurrencyThreshold is set
// from (run it at -cpu 2). rows=10000 goes through Pool.ScoreFrame with
// its own chunking, the bulk case.
func BenchmarkPoolScoreBatch(b *testing.B) {
	train := make([][]float64, 64)
	for i := range train {
		u := float64(i) / 63
		train[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	m, err := core.Fit(train, core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	pool := NewPool(0)
	defer pool.Close()
	for _, rows := range []int{64, 128, 256, 512, 1024} {
		f, err := frame.FromRows(benchRows(rows))
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]float64, rows)
		// The split mode fans one chunk a worker out through the pool, and
		// at least two chunks, since fanOut runs a single part inline.
		parts := max(2, pool.Workers())
		chunk := (rows + parts - 1) / parts
		split := &scoreBatch{p: pool, m: m, f: f, out: dst, chunk: chunk}
		for _, mode := range []string{"inline", "split"} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out := dst
					if mode == "inline" {
						out, err = (*Pool)(nil).ScoreFrame(context.Background(), m, f, dst)
					} else if !pool.fanOut(split, &split.barrier, (rows+chunk-1)/chunk) {
						err = ErrPoolClosed
					}
					if err != nil || len(out) != rows {
						b.Fatal("short result")
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
	b.Run("rows=10000", func(b *testing.B) {
		f, err := frame.FromRows(benchRows(10_000))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := pool.ScoreFrame(context.Background(), m, f, nil)
			if err != nil || len(out) != f.N() {
				b.Fatal("short result")
			}
		}
		b.ReportMetric(float64(f.N())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkScoreBodyRanges times the score path's JSON work alone — decode
// a body of 4-value rows with six significant digits, then encode one
// score per row — in one inline range and in two ranges on the pool. The
// body size where two ranges start to win is the crossover splitMinBytes
// is set from; run it at -cpu 2.
func BenchmarkScoreBodyRanges(b *testing.B) {
	pool := NewPool(0)
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{50, 100, 200, 400, 800, 1600, 10_000} {
		vals := make([][]float64, rows)
		for i := range vals {
			vals[i] = make([]float64, 4)
			for j := range vals[i] {
				vals[i][j] = 100 * rng.Float64()
			}
		}
		body := sixDigitBody(vals)
		scores := make([]float64, rows)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("bytes=%d/ranges=%d", len(body), k), func(b *testing.B) {
				st := &scoreState{}
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.body = body
					if !st.decode(pool, 4, k) {
						b.Fatal("decode declined the body")
					}
					st.scores = scores
					if _, ok := st.encode(pool, "bench-v1"); !ok {
						b.Fatal("encode declined the answer")
					}
				}
			})
		}
	}
}
