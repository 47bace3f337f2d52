package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/core"
	"rpcrank/internal/order"
	"rpcrank/internal/registry"
)

// FuzzDecodeRows pins the hand-rolled score-request decoder against
// encoding/json: for arbitrary bodies the fast parser must never panic, and
// whenever it accepts a body it must agree with the stdlib decoder — same
// acceptance (a body the stdlib rejects must never fast-parse), same row
// count, and bit-identical values. The one asymmetry is deliberate and also
// checked: the fast path only accepts batches whose rows all have the
// expected width d, so the stdlib fallback owns the canonical
// dimension-mismatch error. The body is decoded twice, in one range and in
// k (1–8) ranges on a pool, and the two must agree exactly: same
// acceptance, bit-identical frames.
//
// CI runs this as a short smoke (-fuzz with a bounded -fuzztime) on every
// push; longer local runs explore deeper.
func FuzzDecodeRows(f *testing.F) {
	seeds := []string{
		`{"rows":[[1,2,3],[4.5,-6e2,0.75]]}`,
		`{"rows":[[0.1]]}`,
		`{"rows":[]}`,
		` { "rows" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } `,
		"{\n\t\"rows\": [[1e-9, 2E+4, -0.5]]\r\n}",
		`{"rows":[[-0],[0]]}`,
		`{"rows":[[1,2],[3]]}`,
		`{"rows":[[1,2]],"x":1}`,
		`{"rows":[[1e999]]}`,
		`{"rows":[[01]]}`,
		`{"rows":null}`,
		`{"rows":[[1,2]]} trailing`,
		`{"rows":[[1,2]]}`,
		`{"rows":[[1],[2],[3],[4],[5],[6],[7],[8],[9]]}`,
		`{"rows":[[1],[2],,[3],[4]]}`,
		`{"rows":[[1] , [2] ,[3],[4]]}`,
	}
	for _, s := range seeds {
		for _, d := range []int{1, 2, 3} {
			f.Add([]byte(s), d, uint8(d+1))
		}
	}
	p := NewPool(2)
	f.Cleanup(p.Close)
	f.Fuzz(func(t *testing.T, body []byte, d int, k uint8) {
		if d < 1 || d > 64 {
			d = 1 + (d%64+64)%64
		}
		one, fastOK := decodeRows(nil, body, d, 1)
		split, splitOK := decodeRows(p, body, d, 1+int(k%8))
		if splitOK != fastOK {
			t.Fatalf("%q (dim %d): one range ok=%v, %d ranges ok=%v", body, d, fastOK, 1+k%8, splitOK)
		}

		// The stdlib arbiter, with the exact semantics of the fallback path
		// (decodeJSON): unknown fields and trailing data are errors.
		var req ScoreRequest
		stdErr := decodeJSON(bytes.NewReader(body), &req)

		if !fastOK {
			return // fallback path owns the outcome, whatever it is
		}
		if !sameFrame(&one.fr, &split.fr) {
			t.Fatalf("%q (dim %d): one-range and %d-range frames differ", body, d, 1+k%8)
		}
		if stdErr != nil {
			t.Fatalf("fast parser accepted %q (dim %d) but stdlib rejects it: %v", body, d, stdErr)
		}
		fr := &one.fr
		if fr.N() != len(req.Rows) {
			t.Fatalf("%q: fast %d rows, stdlib %d", body, fr.N(), len(req.Rows))
		}
		for i := 0; i < fr.N(); i++ {
			row := fr.Row(i)
			want := req.Rows[i]
			if len(want) != d {
				t.Fatalf("%q row %d: fast path accepted width %d, expected only %d", body, i, len(want), d)
			}
			for j := range row {
				// Bit equality (distinguishing -0 from 0, which JSON can
				// express) — the two parsers must produce the same float.
				if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%q cell (%d,%d): fast %v, stdlib %v", body, i, j, row[j], want[j])
				}
			}
		}
	})
}

// FuzzDecodeRowsRoundTrip feeds the fuzzer structurally valid batches: any
// [][]float64 the stdlib encoder can produce must take the fast path, in
// one range and in k (1–8) ranges on a pool, and come back value-identical.
func FuzzDecodeRowsRoundTrip(f *testing.F) {
	f.Add(3, 4, 1.5, uint8(2))
	f.Add(1, 1, -0.0, uint8(1))
	f.Add(17, 2, 6.21801796743513e-05, uint8(8))
	p := NewPool(2)
	f.Cleanup(p.Close)
	f.Fuzz(func(t *testing.T, n, d int, base float64, k uint8) {
		if n < 0 || n > 64 || d < 1 || d > 16 {
			return
		}
		if math.IsNaN(base) || math.IsInf(base, 0) {
			return
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = base * float64(i*d+j)
			}
		}
		body, err := json.Marshal(ScoreRequest{Rows: rows})
		if err != nil {
			t.Skip()
		}
		for _, ranges := range []int{1, 1 + int(k%8)} {
			st, ok := decodeRows(p, body, d, ranges)
			if !ok {
				t.Fatalf("fast parser declined canonical body %s in %d ranges", body, ranges)
			}
			fr := &st.fr
			if fr.N() != n {
				t.Fatalf("%s in %d ranges: %d rows, want %d", body, ranges, fr.N(), n)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < d; j++ {
					if math.Float64bits(fr.At(i, j)) != math.Float64bits(rows[i][j]) {
						t.Fatalf("%d ranges, cell (%d,%d): %v != %v", ranges, i, j, fr.At(i, j), rows[i][j])
					}
				}
			}
		}
	})
}

// FuzzParseDeadline drives the client-deadline parser with arbitrary
// X-Deadline-Ms header and ?deadline_ms= query values and caps. It must
// never panic; an accepted deadline is either 0 (none asked for) or lies in
// (0, cap] when a cap is set, and is positive without one; and a header,
// when present, decides the result alone, whatever the query says.
//
// CI runs this as a short smoke (-fuzz with a bounded -fuzztime) on every
// push; longer local runs explore deeper.
func FuzzParseDeadline(f *testing.F) {
	f.Add("250", "", int64(60000))
	f.Add("", "40", int64(60000))
	f.Add("10", "99999", int64(60000))
	f.Add("500000", "", int64(1000))
	f.Add("9223372036854775807", "", int64(1000))
	f.Add("", "9223372036854775807", int64(0))
	f.Add("-5", "1.5", int64(-1))
	f.Add("0", "abc", int64(1))
	f.Fuzz(func(t *testing.T, header, query string, capMs int64) {
		maxDeadline := time.Duration(capMs) * time.Millisecond
		mk := func(header, query string) *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/models/m/score", nil)
			if query != "" {
				r.URL.RawQuery = url.Values{"deadline_ms": {query}}.Encode()
			}
			if header != "" {
				r.Header.Set("X-Deadline-Ms", header)
			}
			return r
		}
		d, err := parseDeadline(mk(header, query), maxDeadline)
		if err == nil && d < 0 {
			t.Fatalf("header %q query %q cap %v: negative deadline %v", header, query, maxDeadline, d)
		}
		if err == nil && maxDeadline > 0 && d > maxDeadline {
			t.Fatalf("header %q query %q: deadline %v above the cap %v", header, query, d, maxDeadline)
		}
		if header != "" {
			hd, herr := parseDeadline(mk(header, ""), maxDeadline)
			if hd != d || (herr == nil) != (err == nil) {
				t.Fatalf("header %q with query %q gave %v/%v, header alone %v/%v", header, query, d, err, hd, herr)
			}
		}
	})
}

// FuzzAppendFloat pins the answer encoder's float spelling to
// encoding/json's: every finite bit pattern must come out of appendFloat as
// the bytes json.Marshal writes, whether the integer encoder or strconv
// spells it.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, 0.5, 0.1, 1e-6, 9.5367431640625e-07, 0.9999999999999999, 6.21801796743513e-05, -0.25, 1e21, 5e-324} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal %s", v, got, want)
		}
	})
}

// FuzzInstallDoc feeds arbitrary bytes to POST /clusterz/install, the
// replication entry point, which trusts nothing a peer sends. Every
// answer must be 200 or 4xx, and each accepted rule is then scored with
// rows as wide as its meta says and as wide as its rule is, in a small
// batch and in one the pool splits; every score answer must be 200 or 4xx
// too, and nothing may panic. The seeds are an honest export and the same
// rule under a meta that misstates its width.
func FuzzInstallDoc(f *testing.F) {
	src, err := registry.Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	m, err := core.Fit(trainingRows(24), core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	meta, err := src.Put("honest", m, 24, m.ExplainedVariance())
	if err != nil {
		f.Fatal(err)
	}
	expMeta, rule, err := src.Export(meta.ID)
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range []cluster.InstallDoc{{Meta: expMeta, Model: rule}, lyingInstallDoc(rule)} {
		body, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	reg, err := registry.Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	s := New(reg, Options{})
	f.Cleanup(s.Close)
	serve := func(path string, body []byte) (int, string) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w.Code, w.Body.String()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, answer := serve("/clusterz/install", body)
		if code != http.StatusOK && (code < 400 || code > 499) {
			t.Fatalf("install answered %d: %s", code, answer)
		}
		if code != http.StatusOK {
			return
		}
		var doc cluster.InstallDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("install accepted a body encoding/json refuses: %v", err)
		}
		m, err := core.Load(bytes.NewReader(doc.Model))
		if err != nil {
			t.Fatalf("install accepted a rule core.Load refuses: %v", err)
		}
		for _, d := range []int{doc.Meta.Dim, m.Dim()} {
			if d < 1 || d > 64 {
				continue
			}
			for _, n := range []int{2, 600} {
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = make([]float64, d)
					for j := range rows[i] {
						rows[i][j] = float64(i+j) / float64(n)
					}
				}
				req, err := json.Marshal(ScoreRequest{Rows: rows})
				if err != nil {
					t.Fatal(err)
				}
				if code, answer := serve("/v1/models/"+doc.Meta.ID+"/score", req); code != http.StatusOK && (code < 400 || code > 499) {
					t.Fatalf("score of %s with %d rows of %d answered %d: %s", doc.Meta.ID, n, d, code, answer)
				}
			}
		}
	})
}
