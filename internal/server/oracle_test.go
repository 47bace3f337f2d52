package server

// The served half of the differential harness (see internal/core's
// oracle_test.go): scores that cross the wire — a /score JSON round trip
// through ServeHTTP and a forwarded two-node hop — held to internal/oracle
// under the contract of oracle.Result.Check.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"rpcrank/internal/oracle"
)

// oracleGridCells is the seed grid the harness's rule documents ask for.
const oracleGridCells = 32

// oracleRule is a random rule document and the numbers the oracle needs:
// a degree-deg control polygon in d dimensions whose coordinates are
// monotone along α, and a random normaliser box.
type oracleRule struct {
	doc    []byte
	ctrl   [][]float64
	mn, mx []float64
}

func newOracleRule(t *testing.T, rng *rand.Rand, deg, d int, projector string) oracleRule {
	t.Helper()
	r := oracleRule{ctrl: make([][]float64, deg+1), mn: make([]float64, d), mx: make([]float64, d)}
	for i := range r.ctrl {
		r.ctrl[i] = make([]float64, d)
	}
	alpha := make([]float64, d)
	col := make([]float64, deg+1)
	for j := 0; j < d; j++ {
		for i := range col {
			col[i] = rng.Float64()
		}
		sort.Float64s(col)
		alpha[j] = 1
		if rng.Intn(2) == 0 {
			sort.Sort(sort.Reverse(sort.Float64Slice(col)))
			alpha[j] = -1
		}
		for i, v := range col {
			r.ctrl[i][j] = v
		}
		r.mn[j] = -5 + 10*rng.Float64()
		r.mx[j] = r.mn[j] + 0.1 + 5*rng.Float64()
	}
	doc, err := json.Marshal(map[string]any{
		"version":        1,
		"alpha":          alpha,
		"control_points": r.ctrl,
		"norm_min":       r.mn,
		"norm_max":       r.mx,
		"projector":      projector,
		"grid_cells":     oracleGridCells,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.doc = doc
	return r
}

// rows draws n raw rows whose normalised coordinates lie in [−0.3, 1.3].
func (r oracleRule) rows(rng *rand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, len(r.mn))
		for j := range rows[i] {
			rows[i][j] = r.mn[j] + (-0.3+1.6*rng.Float64())*(r.mx[j]-r.mn[j])
		}
	}
	return rows
}

// check holds served scores for rows to the oracle.
func (r oracleRule) check(t *testing.T, path string, rows [][]float64, scores []float64) {
	t.Helper()
	if len(scores) != len(rows) {
		t.Fatalf("%s: %d scores for %d rows", path, len(scores), len(rows))
	}
	oc := oracle.New(r.ctrl, oracle.DefaultCells)
	for i, x := range rows {
		u := make([]float64, len(x))
		for j, v := range x {
			u[j] = (v - r.mn[j]) / (r.mx[j] - r.mn[j])
		}
		if err := oc.Project(u).Check(scores[i], oracleGridCells); err != nil {
			t.Fatalf("%s row %d: %v", path, i, err)
		}
	}
}

// serveJSON sends one JSON request straight through h.ServeHTTP.
func serveJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(raw)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestOracleScoreRoundTrip installs random monotone rules and scores rows
// in and past their boxes through /score, decoding the JSON answer: every
// score must meet the oracle's contract.
func TestOracleScoreRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	rng := rand.New(rand.NewSource(29))
	for deg := 2; deg <= 5; deg++ {
		for _, d := range []int{1, 3, 8} {
			// "gss" and "quintic" are retired projector names that
			// legacy rule documents still carry; such rules install as
			// Newton.
			projectors := []string{"newton", "gss"}
			if deg == 3 {
				projectors = append(projectors, "quintic")
			}
			for _, proj := range projectors {
				name := fmt.Sprintf("oracle-%d-%d-%s", deg, d, proj)
				t.Run(name, func(t *testing.T) {
					rule := newOracleRule(t, rng, deg, d, proj)
					rec := serveJSON(t, s, "/v1/models", FitRequest{Name: name, Rule: rule.doc})
					if rec.Code != http.StatusCreated {
						t.Fatalf("install: status %d: %s", rec.Code, rec.Body)
					}
					rows := rule.rows(rng, 100)
					rec = serveJSON(t, s, "/v1/models/"+name+"-v1/score", ScoreRequest{Rows: rows})
					if rec.Code != http.StatusOK {
						t.Fatalf("score: status %d: %s", rec.Code, rec.Body)
					}
					var resp ScoreResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Fatal(err)
					}
					rule.check(t, "/score", rows, resp.Scores)
				})
			}
		}
	}
}

// TestOracleForwardedHop scores through both nodes of a two-node group:
// the node that does not own the rule, crowded out of its cache, forwards
// the request, and the scores that come back over the hop must meet the
// oracle's contract too.
func TestOracleForwardedHop(t *testing.T) {
	nodes := newGroup(t, 2, 1, Options{})
	rng := rand.New(rand.NewSource(31))
	rule := newOracleRule(t, rng, 3, 4, "newton")
	resp := postJSON(t, nodes[0].url+"/v1/models", FitRequest{Name: "hop", Rule: rule.doc})
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: status %d: %s", resp.StatusCode, raw)
	}
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("hop-v1 on node %d", i), func() bool {
			_, err := nd.reg.GetMeta("hop-v1")
			return err == nil
		})
	}
	crowdOut(t, nodes, "crowd")
	rows := rule.rows(rng, 200)
	forwarded := 0
	for i, nd := range nodes {
		resp := postJSON(t, nd.url+"/v1/models/hop-v1/score", ScoreRequest{Rows: rows})
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("node %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if sb := resp.Header.Get("X-RPC-Served-By"); sb != "" && sb != nd.url {
			forwarded++
		}
		rule.check(t, fmt.Sprintf("via node %d", i), rows, decodeBody[ScoreResponse](t, resp).Scores)
	}
	hops := nodes[0].cl.Snapshot().Forwards + nodes[1].cl.Snapshot().Forwards
	if forwarded != 1 || hops != 1 {
		t.Fatalf("%d of 2 requests were relayed by a peer, %d forwards counted; want exactly 1 of each", forwarded, hops)
	}
}
