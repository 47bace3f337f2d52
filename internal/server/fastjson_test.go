package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rpcrank/internal/core"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

// decodeRows runs the score-body decoder over body at width d in k ranges
// (on p's workers when p is non-nil) and returns the state holding the
// frame.
func decodeRows(p *Pool, body []byte, d, k int) (*scoreState, bool) {
	st := &scoreState{body: body}
	return st, st.decode(p, d, k)
}

// sameFrame reports whether two decoded frames are bit-identical.
func sameFrame(a, b *frame.Frame) bool {
	if a.N() != b.N() || a.Dim() != b.Dim() {
		return false
	}
	x, y := a.Data(), b.Data()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func TestDecodeRowsAgreesWithStdlib(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	accept := []string{
		`{"rows":[[1,2,3],[4.5,-6e2,0.75]]}`,
		`{"rows":[[0.1]]}`,
		`{"rows":[]}`,
		`{"rows":[ ]}`,
		` { "rows" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } `,
		"{\n\t\"rows\": [[1e-9, 2E+4, -0.5]]\r\n}",
		`{"rows":[[0],[1],[2]]}`,
		`{"rows":[[-0]]}`,
		"{\"rows\":[[1] ,\n [2]\t,[3] , [4],[5]]}",
	}
	for _, body := range accept {
		var want ScoreRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("stdlib rejected %q: %v", body, err)
		}
		d := 1
		if len(want.Rows) > 0 {
			d = len(want.Rows[0])
		}
		for k := 1; k <= 4; k++ {
			st, ok := decodeRows(p, []byte(body), d, k)
			if !ok {
				t.Errorf("fast parser rejected valid body %q in %d ranges", body, k)
				continue
			}
			fr := &st.fr
			if fr.N() != len(want.Rows) {
				t.Errorf("%q in %d ranges: %d rows vs stdlib %d", body, k, fr.N(), len(want.Rows))
				continue
			}
			for i := 0; i < fr.N(); i++ {
				if !reflect.DeepEqual(append([]float64{}, fr.Row(i)...), append([]float64{}, want.Rows[i]...)) {
					t.Errorf("%q in %d ranges, row %d: %v vs stdlib %v", body, k, i, fr.Row(i), want.Rows[i])
				}
			}
		}
	}
}

func TestDecodeRowsRejectsNonCanonical(t *testing.T) {
	// Everything here must fall back to the stdlib decoder (ok=false) in
	// every range count: either invalid JSON, valid JSON the fast path does
	// not cover, or rows that do not match the expected dimension (so the
	// stdlib path can produce the canonical dimension error).
	reject := []string{
		`{"rows":[[1,2],[3,4,5]]}`, // ragged
		`{"rows":[[1,2,3,4]]}`,     // uniform but not the model dimension
		``,
		`{"rows":[[1,2],[3]]`,          // truncated
		`{"rows":[[1,2]]} trailing`,    // garbage after body
		`{"rows":[[1,2]],"x":1}`,       // unknown field
		`{"ROWS":[[1]]}`,               // wrong key case
		`{"rows":[[01]]}`,              // leading zero
		`{"rows":[[1.]]}`,              // bare fraction dot
		`{"rows":[[.5]]}`,              // missing integer part
		`{"rows":[[+1]]}`,              // leading plus
		`{"rows":[[Inf]]}`,             // not a JSON number
		`{"rows":[[NaN]]}`,             // not a JSON number
		`{"rows":[[0x10]]}`,            // hex float
		`{"rows":[[1_000]]}`,           // underscores
		`{"rows":[[1e999]]}`,           // out of range
		`{"rows":[["1"]]}`,             // string element
		`{"rows":[[1],null]}`,          // null row
		`{"rows":null}`,                // null rows
		`{"rows":[[1,]]}`,              // trailing comma
		`{"rows":[[1],[2],]}`,          // trailing comma
		`{"rows":[,[1],[2]]}`,          // leading comma
		`{"rows":[[1],,[2]]}`,          // empty element
		`{"rows":[[1][2]]}`,            // missing separator
		`{"rows":[[1],[[2]]]}`,         // nested row
		`{"rows":[[1],[2]],"rows":[]}`, // duplicate key
		`[["rows"]]`,                   // not an object
		`{"rows":[[2]]}{"rows":[[2]]}`, // two documents
	}
	p := NewPool(2)
	defer p.Close()
	for _, body := range reject {
		for d := 1; d <= 3; d++ {
			for k := 1; k <= 4; k++ {
				if _, ok := decodeRows(p, []byte(body), d, k); ok {
					t.Errorf("fast parser accepted %q at dim %d in %d ranges, must fall back", body, d, k)
				}
			}
		}
	}
}

// TestDecodeRowsCorruptedSplit corrupts a 10k-row body at random bytes and
// requires the four-range decode on the pool to accept exactly what the
// one-range decode accepts, with bit-identical frames. The first accepted
// bodies are also held to encoding/json (FuzzDecodeRows does that at
// volume; stdlib-decoding every 10k-row body would dominate the run).
func TestDecodeRowsCorruptedSplit(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	rng := rand.New(rand.NewSource(19))
	rows := make([][]float64, 10_000)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.NormFloat64() * 100, float64(rng.Intn(1000)), -rng.ExpFloat64()}
	}
	clean, err := json.Marshal(ScoreRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	alphabet := []byte("[],{} \n0123456789.-+eE\"x")
	var accepted, rejected int
	for trial := 0; trial < 64; trial++ {
		body := append([]byte(nil), clean...)
		for c := 1 + rng.Intn(3); c > 0; c-- {
			i := rng.Intn(len(body))
			switch rng.Intn(3) {
			case 0: // replace a byte
				body[i] = alphabet[rng.Intn(len(alphabet))]
			case 1: // delete a byte
				body = append(body[:i], body[i+1:]...)
			default: // insert a byte
				body = append(body[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, body[i:]...)...)
			}
		}
		one, ok1 := decodeRows(nil, body, 4, 1)
		four, ok4 := decodeRows(p, body, 4, 4)
		if ok1 != ok4 {
			t.Fatalf("trial %d: one range ok=%v, four ranges ok=%v", trial, ok1, ok4)
		}
		if !ok1 {
			rejected++
			continue
		}
		accepted++
		if !sameFrame(&one.fr, &four.fr) {
			t.Fatalf("trial %d: one-range and four-range frames differ", trial)
		}
		if accepted > 8 {
			continue
		}
		var req ScoreRequest
		if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("trial %d: fast parser accepted a body stdlib rejects: %v", trial, err)
		}
		if len(req.Rows) != one.fr.N() {
			t.Fatalf("trial %d: %d rows, stdlib %d", trial, one.fr.N(), len(req.Rows))
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("corruptions should both keep and break bodies: %d accepted, %d rejected", accepted, rejected)
	}
}

// encodeAnswer encodes scores (and positions, for a rank answer) through
// the fast encoder in k even row ranges on p and joins the parts.
func encodeAnswer(t *testing.T, p *Pool, id string, scores []float64, positions []int, k int) ([]byte, bool) {
	t.Helper()
	st := &scoreState{scores: scores, positions: positions}
	for i := 0; i < k; i++ {
		lo, hi := len(scores)*i/k, len(scores)*(i+1)/k
		st.addRange(0, 0)
		st.ranges[i].row, st.ranges[i].n = lo, hi-lo
	}
	parts, ok := st.encode(p, id)
	return bytes.Join(parts, nil), ok
}

func TestEncodeMatchesStdlibBytes(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	rng := rand.New(rand.NewSource(7))
	scores := []float64{0, 1, -0.0, 0.12345678901234567, 6.21801796743513e-05, 1e-9, 1e-6, 9.99e-7,
		3.2e-7, 1e-5, 0.5, 1e20, 1e21, 1.5e300, -2.5e-8, 5e-324, math.MaxFloat64}
	for i := 0; i < 2000; i++ {
		scores = append(scores,
			rng.Float64(),
			math.Float64frombits(rng.Uint64()&^(0x7ff<<52)|uint64(rng.Intn(0x7ff))<<52), // any finite
			rng.Float64()*math.Pow(10, float64(rng.Intn(40)-30)))
	}
	positions := order.RankFromScores(scores)
	for k := 1; k <= 5; k++ {
		got, ok := encodeAnswer(t, p, "bench-v1", scores, nil, k)
		if !ok {
			t.Fatal("fast encoder declined a plain payload")
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ScoreResponse{ModelID: "bench-v1", Count: len(scores), Scores: scores}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("/score answer in %d ranges differs from encoding/json:\n got %.300s\nwant %.300s", k, got, want.Bytes())
		}
		got, ok = encodeAnswer(t, p, "bench-v1", scores, positions, k)
		if !ok {
			t.Fatal("fast encoder declined a rank payload")
		}
		want.Reset()
		if err := json.NewEncoder(&want).Encode(RankResponse{ModelID: "bench-v1", Count: len(scores), Scores: scores, Positions: positions}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("/rank answer in %d ranges differs from encoding/json:\n got %.300s\nwant %.300s", k, got, want.Bytes())
		}
	}
	for _, v := range scores {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, json.Marshal %s", v, got, want)
		}
	}
}

func TestEncodeFallsBack(t *testing.T) {
	if _, ok := encodeAnswer(t, nil, "we\"ird", []float64{1}, nil, 1); ok {
		t.Errorf("id needing escapes must fall back")
	}
	if _, ok := encodeAnswer(t, nil, "ok", []float64{math.NaN()}, nil, 1); ok {
		t.Errorf("non-finite score must fall back")
	}
	p := NewPool(2)
	defer p.Close()
	if _, ok := encodeAnswer(t, p, "ok", []float64{1, 2, 3, math.Inf(1)}, nil, 2); ok {
		t.Errorf("infinite score in the last of two ranges must fall back")
	}
}

// TestServeHTTPFallbackKeysMatchCanonical drives ServeHTTP with bodies the
// fast parser declines but encoding/json accepts — a key in another case
// (the stdlib matches field names case-insensitively) and an escaped key —
// and requires the response body to be byte-identical to the canonical
// {"rows":[…]} one on /score and /rank: both decoders feed one scoring tail.
func TestServeHTTPFallbackKeysMatchCanonical(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	fit := decodeBody[FitResponse](t, postJSON(t, ts.URL+"/v1/models", FitRequest{
		Name:  "keys",
		Alpha: []float64{1, 1, -1},
		Rows:  trainingRows(40),
	}))
	rows := trainingRows(2 * concurrencyThreshold) // sharded across the pool
	for i, r := range rows {
		r[i%len(r)] += 0.25
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body[:10], rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	for _, op := range []string{"score", "rank"} {
		path := "/v1/models/" + fit.Model.ID + "/" + op
		want := serve(path, `{"rows":`+string(raw)+`}`)
		for _, key := range []string{`ROWS`, `\u0072ows`} {
			if got := serve(path, `{"`+key+`":`+string(raw)+`}`); !bytes.Equal(got, want) {
				t.Errorf("/%s with key %s:\n got %s\nwant %s", op, key, got, want)
			}
		}
	}
}

// TestServeHTTPFallbackRejectsLikeCanonical: an over-limit batch and rows
// of the wrong width get the same status and error whether the key is
// spelled canonically, in another case, or with a \u escape.
func TestServeHTTPFallbackRejectsLikeCanonical(t *testing.T) {
	s, _ := newTestServerOpts(t, t.TempDir(), Options{MaxBatchRows: 4})
	m, err := core.Fit(trainingRows(40), core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.reg.Put("limits", m, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(path, body string) (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: undecodable error body %s: %v", path, rec.Body.Bytes(), err)
		}
		return rec.Code, e.Error
	}
	for _, tc := range []struct{ name, rows, wantErr string }{
		{"over-limit", `[[1,2,3],[1,2,3],[1,2,3],[1,2,3],[1,2,3]]`, "exceeds the limit of 4"},
		{"narrow", `[[1,2]]`, "invalid rows"},
		{"ragged", `[[1,2,3],[1,2]]`, "invalid rows"},
	} {
		for _, op := range []string{"score", "rank"} {
			path := "/v1/models/" + meta.ID + "/" + op
			code, want := serve(path, `{"rows":`+tc.rows+`}`)
			if code != http.StatusBadRequest || !strings.Contains(want, tc.wantErr) {
				t.Fatalf("%s /%s: status %d error %q, want 400 containing %q", tc.name, op, code, want, tc.wantErr)
			}
			for _, key := range []string{`ROWS`, `\u0072ows`} {
				gotCode, got := serve(path, `{"`+key+`":`+tc.rows+`}`)
				if gotCode != code || got != want {
					t.Errorf("%s /%s with key %s: status %d error %q, want %d %q", tc.name, op, key, gotCode, got, code, want)
				}
			}
		}
	}
}

// TestScoreEndpointFastAndFallbackAgree exercises the full /score handler
// with a body the fast parser accepts and a semantically identical one it
// must decline (the key spelled with a \u escape, which only the stdlib
// decoder understands), asserting identical scores either way.
func TestScoreEndpointFastAndFallbackAgree(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fit := decodeBody[FitResponse](t, postJSON(t, ts.URL+"/v1/models", FitRequest{
		Name:  "fj",
		Alpha: []float64{1, 1, -1},
		Rows:  trainingRows(40),
	}))
	id := fit.Model.ID

	post := func(body string) ScoreResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/models/"+id+"/score", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return decodeBody[ScoreResponse](t, resp)
	}

	fast := post(`{"rows":[[1,2,3],[9,1.5,0.5]]}`)
	// The \u0072 escape spells "rows" in a form only the stdlib decoder
	// resolves, forcing the fallback path with identical content.
	slow := post(`{"\u0072ows":[[1,2,3],[9,1.5,0.5]]}`)
	if !reflect.DeepEqual(fast.Scores, slow.Scores) {
		t.Errorf("fast path scores %v != fallback scores %v", fast.Scores, slow.Scores)
	}
	if fast.Count != 2 || fast.ModelID != id {
		t.Errorf("unexpected response %+v", fast)
	}

	// The empty batch must 400 on the fast-parsed shape exactly like the
	// fallback shape {"rows":null} (see the score-validation test).
	resp, err := http.Post(ts.URL+"/v1/models/"+id+"/score", "application/json", strings.NewReader(`{"rows":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty fast-path batch: status %d, want 400", resp.StatusCode)
	}
}

// TestFastAnswersDeclareLength: fast-path /score and /rank answers, inline
// and split over the pool's workers, go out with a Content-Length equal to
// the body sent (not chunked), and the split answer is byte-identical to
// the one-range answer the stdlib-decoded body of the same rows gets.
func TestFastAnswersDeclareLength(t *testing.T) {
	_, ts := newTestServerOpts(t, t.TempDir(), Options{Workers: 4})
	fit := decodeBody[FitResponse](t, postJSON(t, ts.URL+"/v1/models", FitRequest{
		Name:  "length",
		Alpha: []float64{1, 1, -1},
		Rows:  trainingRows(40),
	}))
	post := func(path, body string) ([]byte, *http.Response) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, got)
		}
		return got, resp
	}
	for _, n := range []int{3, 3000} {
		raw, err := json.Marshal(trainingRows(n))
		if err != nil {
			t.Fatal(err)
		}
		if n > 3 && len(raw) < 4*splitMinBytes {
			t.Fatalf("%d-row body is %d bytes, too small to split in four", n, len(raw))
		}
		for _, op := range []string{"score", "rank"} {
			path := "/v1/models/" + fit.Model.ID + "/" + op
			got, resp := post(path, `{"rows":`+string(raw)+`}`)
			if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("/%s, %d rows: Content-Length %d (transfer encoding %v) for a %d-byte answer",
					op, n, resp.ContentLength, resp.TransferEncoding, len(got))
			}
			// The \u0072 escape spells "rows" in a form only the stdlib
			// decoder resolves, which leaves the answer one range.
			oneRange, _ := post(path, `{"\u0072ows":`+string(raw)+`}`)
			if !bytes.Equal(got, oneRange) {
				t.Errorf("/%s, %d rows: split answer differs from the one-range answer", op, n)
			}
		}
	}
}

// TestSplitRequestsConcurrent sends split-size /score and /rank requests
// from several goroutines at once, so pooled request states, their range
// buffers and the pool's decode, score and encode tasks interleave; every
// answer must equal the one a lone request gets.
func TestSplitRequestsConcurrent(t *testing.T) {
	s, _ := newTestServerOpts(t, t.TempDir(), Options{Workers: 4})
	m, err := core.Fit(trainingRows(40), core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.reg.Put("conc", m, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(op string, body []byte) []byte {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/"+meta.ID+"/"+op, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return []byte(fmt.Sprintf("status %d: %s", rec.Code, rec.Body.Bytes()))
		}
		return rec.Body.Bytes()
	}
	bodies := make([][]byte, 3)
	for i := range bodies {
		rows := trainingRows(500 + 400*i)
		for j, r := range rows {
			r[j%3] += 0.01 * float64(i)
		}
		if bodies[i], err = json.Marshal(ScoreRequest{Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	ops := []string{"score", "rank"}
	want := map[string][]byte{}
	for i, b := range bodies {
		for _, op := range ops {
			want[fmt.Sprint(op, i)] = serve(op, b)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 4; n++ {
				i, op := (g+n)%len(bodies), ops[(g+n)%2]
				if got := serve(op, bodies[i]); !bytes.Equal(got, want[fmt.Sprint(op, i)]) {
					t.Errorf("goroutine %d: /%s of body %d differs from the lone answer", g, op, i)
				}
			}
		}()
	}
	wg.Wait()
}
