package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
)

// TestMain lets the benchmark start this test binary as its helper
// processes, as it starts the bench program outside tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		if code, ok := runChild(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); ok {
			os.Exit(code)
		}
	}
	os.Exit(m.Run())
}

func TestPayloadsFollowTheSeed(t *testing.T) {
	countries := dataset.Countries()
	a := scorePayloads(countries, 50, 3, 7)
	b := scorePayloads(countries, 50, 3, 7)
	c := scorePayloads(countries, 50, 3, 8)
	for k := range a {
		if !bytes.Equal(a[k].body, b[k].body) {
			t.Errorf("payload %d differs between two draws with the same seed", k)
		}
		if bytes.Equal(a[k].body, c[k].body) {
			t.Errorf("payload %d is the same under seeds 7 and 8", k)
		}
	}
	if bytes.Equal(a[0].body, a[1].body) {
		t.Error("payloads of one draw repeat")
	}
	var col []float64
	for _, p := range a {
		var decoded struct{ Rows [][]float64 }
		if err := json.Unmarshal(p.body, &decoded); err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(decoded.Rows, p.rows, slices.Equal) {
			t.Fatal("a body does not encode exactly its rows")
		}
		for j := range countries.Dim() {
			col = countries.Data.Col(j, col)
			lo, hi := slices.Min(col), slices.Max(col)
			for _, r := range p.rows {
				// Six significant digits may round just past the range.
				if r[j] < lo-1e-5*math.Abs(lo) || r[j] > hi+1e-5*math.Abs(hi) {
					t.Fatalf("attribute %d value %v outside [%v, %v]", j, r[j], lo, hi)
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "server", Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "server", Start: 80, End: 120}, // outlives 1
		{ID: 5, Parent: 3, Name: "pool", Start: 25, End: 35},
		{ID: 6, Name: "lone", Start: 5, End: 9},
	}
	self := selfTimes(spans)
	// 1 is covered on [10,50) and [80,100): 60 of its 100.
	want := map[uint64]int64{1: 40, 2: 20, 3: 20, 4: 40, 5: 10, 6: 4}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestCheckScoresRejectsWrongAnswers(t *testing.T) {
	countries := dataset.Countries()
	m, err := core.Fit(countries.Data.ToRows(), core.Options{Alpha: countries.Alpha, Restarts: 3, Seed: fitSeed})
	if err != nil {
		t.Fatal(err)
	}
	p := scorePayloads(countries, 20, 1, 3)[0]
	scores := make([]float64, len(p.rows))
	for i, r := range p.rows {
		scores[i] = m.Score(r)
	}
	answer := func(s []float64, id string) []byte {
		b, err := json.Marshal(map[string]any{"model_id": id, "count": len(s), "scores": s})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkScores(answer(scores, servedModel), p.rows, m); err != nil {
		t.Fatalf("the reference's own scores were rejected: %v", err)
	}
	off := slices.Clone(scores)
	off[3] += 1e-6
	short := scores[:len(scores)-1]
	for name, body := range map[string][]byte{
		"score off by 1e-6": answer(off, servedModel),
		"missing score":     answer(short, servedModel),
		"other model":       answer(scores, "countries-v2"),
		"garbled":           []byte(`{"scores":[`),
	} {
		if checkScores(body, p.rows, m) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if sameBytes([]byte("ab"))([]byte("ac")) == nil || sameBytes([]byte("ab"))([]byte("ab")) != nil {
		t.Error("sameBytes does not compare bytes")
	}
}

func TestFitCheckerWantsRepeatableFits(t *testing.T) {
	var fc fitChecker
	first := []byte(`{"model":{"id":"journals-v1","explained_variance":0.9},"scores":[0.1,0.2]}`)
	again := []byte(`{"model":{"id":"journals-v2","explained_variance":0.9},"scores":[0.1,0.2]}`)
	for _, b := range [][]byte{first, again} {
		if err := fc.check(b); err != nil {
			t.Fatalf("repeat fit rejected: %v", err)
		}
	}
	for name, b := range map[string][]byte{
		"scores":             []byte(`{"model":{"explained_variance":0.9},"scores":[0.1,0.3]}`),
		"explained variance": []byte(`{"model":{"explained_variance":0.8},"scores":[0.1,0.2]}`),
		"no scores":          []byte(`{"model":{"explained_variance":0.9}}`),
	} {
		if fc.check(b) == nil {
			t.Errorf("fit with different %s accepted", name)
		}
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloadNames []string, units map[string]string, e2e, layers []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	units = make(map[string]string)
	for _, w := range doc.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range doc.EndToEnd {
		e2e, units[m.Name] = append(e2e, m.Name), m.Unit
	}
	for _, m := range doc.PerLayer {
		layers, units[m.Name] = append(layers, m.Name), m.Unit
	}
	return workloadNames, units, e2e, layers
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	names, _, e2e, layers := declared(t)
	var program []string
	for _, w := range workloads {
		program = append(program, w.name)
	}
	if !slices.Equal(names, program) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, program)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layers, perLayer)
	}
}

// checkReport fails t unless rep has every gated metric, finite and with
// the unit BENCHMARK.json declares, and no failed request.
func checkReport(t *testing.T, rep *report, gated []string, units map[string]string) {
	t.Helper()
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%d of %d requests failed: %v", rep.failed, rep.attempted, rep.firstErr)
	}
	for _, name := range gated {
		e, ok := rep.get(name)
		switch {
		case !ok:
			t.Errorf("%s missing", name)
		case math.IsNaN(e.value) || math.IsInf(e.value, 0):
			t.Errorf("%s = %v", name, e.value)
		case e.unit != units[name]:
			t.Errorf("%s in %q, BENCHMARK.json says %q", name, e.unit, units[name])
		}
	}
}

// TestWorkloadsInProcess runs every workload briefly against in-process
// servers, so a change that breaks the bench program fails here.
func TestWorkloadsInProcess(t *testing.T) {
	_, units, _, _ := declared(t)
	tm := timing{warmup: 100 * time.Millisecond, measure: time.Second, setups: 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(context.Background(), w, 1, tm, inProcess(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd, units)
			for _, name := range endToEnd {
				if e, _ := rep.get(name); e.value <= 0 {
					t.Errorf("%s = %v, want > 0", name, e.value)
				}
			}
			if _, ok := rep.get("fit_p90_ms"); ok != (w.fitEvery > 0) {
				t.Errorf("fit latency reported: %v, fit stream: %v", ok, w.fitEvery > 0)
			}
		})
	}
}

// TestLadder runs the traced ladder briefly, with the daemon in-process
// and this test binary as the stack process.
func TestLadder(t *testing.T) {
	_, units, _, _ := declared(t)
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	tm := timing{warmup: 100 * time.Millisecond, measure: 600 * time.Millisecond, setups: 1}
	rep, err := runLadder(context.Background(), workloads[0], 1, tm, inProcess(dir), dir, spans)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, perLayer, units)
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	children := 0
	ids := make(map[uint64]bool)
	for _, s := range got {
		if s.End < s.Start || s.ID == 0 || ids[s.ID] {
			t.Fatalf("malformed or repeated span %+v", s)
		}
		ids[s.ID] = true
		if s.Parent != 0 {
			children++
		}
	}
	if children == 0 {
		t.Error("no server span names its client span")
	}
}
