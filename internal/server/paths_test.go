package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

// TestServingPathsAgree serves a degree-3 countries fit on two nodes with
// four pool workers each and scores 3,000 rows of six significant digits,
// a body large enough to decode and encode in several ranges and to shard
// scoring. Model.ScoreAll, Pool.ScoreFrame, /score, /rank, /rank through
// the non-owner while it holds the rule resident, and /rank through the
// non-owner over the hop once the rule is crowded out of its cache must
// return bit-identical scores; /rank's positions must be
// order.RankFromScores of them; and no row that strictly dominates another
// along α may score below it (Proposition 1).
func TestServingPathsAgree(t *testing.T) {
	tab := dataset.Countries()
	fitted, err := core.FitFrame(tab.Data, core.Options{Alpha: tab.Alpha, Degree: 3, Restarts: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rule bytes.Buffer
	if err := fitted.Save(&rule); err != nil {
		t.Fatal(err)
	}
	nodes := newGroup(t, 2, 1, Options{Workers: 4})
	resp := postJSON(t, nodes[0].url+"/v1/models", FitRequest{Name: "paths", Rule: rule.Bytes()})
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: status %d: %s", resp.StatusCode, raw)
	}
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("paths-v1 on node %d", i), func() bool {
			_, err := nd.reg.GetMeta("paths-v1")
			return err == nil
		})
	}

	rng := rand.New(rand.NewSource(24))
	rows := make([][]float64, 3000)
	for i := range rows {
		rows[i] = make([]float64, tab.Dim())
		for j := range rows[i] {
			lo, hi := fitted.Norm.Min[j], fitted.Norm.Max[j]
			v := lo + (hi-lo)*(-0.1+1.2*rng.Float64())
			rows[i][j], _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
		}
	}

	served, _, err := nodes[0].reg.Get("paths-v1")
	if err != nil {
		t.Fatal(err)
	}
	want := served.ScoreAll(rows)
	paths := map[string][]float64{}
	paths["Pool.ScoreFrame"], err = nodes[0].srv.pool.ScoreFrame(context.Background(), served, frame.MustFromRows(rows), nil)
	if err != nil {
		t.Fatal(err)
	}
	// rank posts the rows to nd's /rank, checks who served them and the
	// positions against the scores, and files the scores under path.
	rank := func(nd *stormNode, path, servedBy string) {
		t.Helper()
		resp := postJSON(t, nd.url+"/v1/models/paths-v1/rank", ScoreRequest{Rows: rows})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-RPC-Served-By"); got != servedBy {
			t.Fatalf("%s: served by %q, want %q", path, got, servedBy)
		}
		got := decodeBody[RankResponse](t, resp)
		paths[path] = got.Scores
		wantPos := order.RankFromScores(got.Scores)
		if len(got.Positions) != len(wantPos) {
			t.Fatalf("%s: %d positions for %d rows", path, len(got.Positions), len(wantPos))
		}
		for r := range wantPos {
			if got.Positions[r] != wantPos[r] {
				t.Fatalf("%s: row %d at position %d, RankFromScores puts it at %d", path, r, got.Positions[r], wantPos[r])
			}
		}
	}
	owner, other := nodes[0], nodes[1]
	if owner.cl.Owner("paths-v1") != "" {
		owner, other = other, owner
	}
	rank(owner, "/rank", "")
	sresp := postJSON(t, owner.url+"/v1/models/paths-v1/score", ScoreRequest{Rows: rows})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("owner /score: status %d", sresp.StatusCode)
	}
	paths["/score"] = decodeBody[ScoreResponse](t, sresp).Scores
	rank(other, "/rank resident non-owner", other.url)
	crowdOut(t, nodes, "crowd")
	hops := other.cl.Snapshot().Forwards
	rank(other, "/rank forwarded", owner.url)
	if got := other.cl.Snapshot().Forwards; got != hops+1 {
		t.Fatalf("forwards went %d → %d over the hop path, want one more", hops, got)
	}
	if len(paths) != 5 {
		t.Fatalf("scored through %d paths besides Model.ScoreAll, want 5", len(paths))
	}
	for path, got := range paths {
		if len(got) != len(want) {
			t.Fatalf("%s: %d scores for %d rows", path, len(got), len(want))
		}
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("%s: row %d scored %.17g, Model.ScoreAll %.17g", path, r, got[r], want[r])
			}
		}
	}

	comparable := 0
	for i := range rows {
		for j := range rows {
			if tab.Alpha.StrictlyDominates(rows[j], rows[i]) {
				comparable++
				if want[i] < want[j] {
					t.Fatalf("row %d strictly dominates row %d but scores %.17g < %.17g", i, j, want[i], want[j])
				}
			}
		}
	}
	if comparable == 0 {
		t.Fatal("no strictly comparable pairs among the rows")
	}
}
