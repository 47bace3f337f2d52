package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rpcrank/internal/core"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

func TestParseScoreFrameAgreesWithStdlib(t *testing.T) {
	accept := []string{
		`{"rows":[[1,2,3],[4.5,-6e2,0.75]]}`,
		`{"rows":[[0.1]]}`,
		`{"rows":[]}`,
		` { "rows" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } `,
		"{\n\t\"rows\": [[1e-9, 2E+4, -0.5]]\r\n}",
		`{"rows":[[0],[1],[2]]}`,
		`{"rows":[[-0]]}`,
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
		fr := &frame.Frame{}
		if !parseScoreFrame(fr, []byte(body), d) {
			t.Errorf("fast parser rejected valid body %q", body)
			continue
		}
		if fr.N() != len(want.Rows) {
			t.Errorf("%q: %d rows vs stdlib %d", body, fr.N(), len(want.Rows))
			continue
		}
		for i := 0; i < fr.N(); i++ {
			if !reflect.DeepEqual(append([]float64{}, fr.Row(i)...), append([]float64{}, want.Rows[i]...)) {
				t.Errorf("%q row %d: %v vs stdlib %v", body, i, fr.Row(i), want.Rows[i])
			}
		}
	}
}

func TestParseScoreFrameRejectsNonCanonical(t *testing.T) {
	// Everything here must fall back to the stdlib decoder (ok=false):
	// either invalid JSON, valid JSON the fast path does not cover, or rows
	// that do not match the expected dimension (so the stdlib path can
	// produce the canonical dimension error).
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
		`[["rows"]]`,                   // not an object
		`{"rows":[[2]]}{"rows":[[2]]}`, // two documents
	}
	for _, body := range reject {
		for d := 1; d <= 3; d++ {
			if parseScoreFrame(&frame.Frame{}, []byte(body), d) {
				t.Errorf("fast parser accepted %q at dim %d, must fall back", body, d)
			}
		}
	}
}

func TestAppendScoreResponseMatchesStdlib(t *testing.T) {
	scores := []float64{0, 1, 0.12345678901234567, 6.21801796743513e-05, 1e-9}
	positions := []int{5, 1, 3, 4, 2}

	b, ok := appendScoreResponse(nil, "bench-v1", scores, nil)
	if !ok {
		t.Fatal("fast encoder declined a plain payload")
	}
	var got ScoreResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("fast /score response is not valid JSON: %v\n%s", err, b)
	}
	want := ScoreResponse{ModelID: "bench-v1", Count: len(scores), Scores: scores}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	b, ok = appendScoreResponse(nil, "bench-v1", scores, positions)
	if !ok {
		t.Fatal("fast encoder declined a rank payload")
	}
	var gotR RankResponse
	if err := json.Unmarshal(b, &gotR); err != nil {
		t.Fatalf("fast /rank response is not valid JSON: %v\n%s", err, b)
	}
	wantR := RankResponse{ModelID: "bench-v1", Count: len(scores), Scores: scores, Positions: positions}
	if !reflect.DeepEqual(gotR, wantR) {
		t.Errorf("rank round-trip mismatch:\n got %+v\nwant %+v", gotR, wantR)
	}
}

func TestAppendScoreResponseFallsBack(t *testing.T) {
	if _, ok := appendScoreResponse(nil, "we\"ird", []float64{1}, nil); ok {
		t.Errorf("id needing escapes must fall back")
	}
	if _, ok := appendScoreResponse(nil, "ok", []float64{math.NaN()}, nil); ok {
		t.Errorf("non-finite score must fall back")
	}
	if _, ok := appendScoreResponse(nil, "ok", []float64{math.Inf(1)}, nil); ok {
		t.Errorf("infinite score must fall back")
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
