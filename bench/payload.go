package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/server"
)

// servedModel is the id rpcd gives the first fit of the countries table.
const servedModel = "countries-v1"

// fitSeed is the seed of every fit the benchmark requests. It is not the
// workload seed: a fit's iteration count depends on its seed, and runs
// with different workload seeds must do the same fit work.
const fitSeed = 1

// payloadCount is how many distinct score bodies a workload cycles through.
const payloadCount = 8

// payload is one score request: its rows and the JSON body that carries
// them. rows holds exactly the values the body encodes.
type payload struct {
	rows [][]float64
	body []byte
}

// scorePayloads draws count bodies of n rows each, every value uniform
// inside its attribute's [min, max] in t. The same seed gives the same
// bodies.
func scorePayloads(t *dataset.Table, n, count int, seed int64) []payload {
	d := t.Dim()
	lo, hi := make([]float64, d), make([]float64, d)
	var col []float64
	for j := range d {
		col = t.Data.Col(j, col)
		lo[j], hi[j] = col[0], col[0]
		for _, v := range col {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]payload, count)
	for k := range out {
		rows := make([][]float64, n)
		body := []byte(`{"rows":[`)
		for i := range rows {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, '[')
			rows[i] = make([]float64, d)
			for j := range d {
				if j > 0 {
					body = append(body, ',')
				}
				// Six significant digits, as a client would send them; the
				// row keeps the value the text stands for.
				mark := len(body)
				body = strconv.AppendFloat(body, lo[j]+rng.Float64()*(hi[j]-lo[j]), 'g', 6, 64)
				rows[i][j], _ = strconv.ParseFloat(string(body[mark:]), 64)
			}
			body = append(body, ']')
		}
		out[k] = payload{rows: rows, body: append(body, "]}"...)}
	}
	return out
}

// fitBody is the POST /v1/models body that fits t under name.
func fitBody(name string, t *dataset.Table) []byte {
	b, err := json.Marshal(server.FitRequest{
		Name:  name,
		Alpha: t.Alpha,
		Rows:  t.Data.ToRows(),
		Seed:  fitSeed,
	})
	if err != nil {
		panic(err) // a FitRequest of finite floats always encodes
	}
	return b
}

// scoreTolerance bounds how far a served score may sit from the reference.
const scoreTolerance = 1e-9

// checkScores verifies a score response for rows against ref, which was
// loaded from the served model's rule document: one score per row, each
// within scoreTolerance of ref's, ranking the rows in ref's order.
func checkScores(body []byte, rows [][]float64, ref *core.Model) error {
	var resp server.ScoreResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding score response: %w", err)
	}
	if resp.ModelID != servedModel || resp.Count != len(rows) || len(resp.Scores) != len(rows) {
		return fmt.Errorf("score response for %q has %d/%d scores, want %d from %q",
			resp.ModelID, resp.Count, len(resp.Scores), len(rows), servedModel)
	}
	want := make([]float64, len(rows))
	for i, r := range rows {
		want[i] = ref.Score(r)
		if math.Abs(resp.Scores[i]-want[i]) > scoreTolerance {
			return fmt.Errorf("row %d scored %v, reference %v", i, resp.Scores[i], want[i])
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return want[idx[a]] < want[idx[b]] })
	for k := 1; k < len(idx); k++ {
		a, b := idx[k-1], idx[k]
		if want[a] < want[b] && resp.Scores[a] > resp.Scores[b] {
			return fmt.Errorf("rows %d and %d rank in the reverse of the reference order", a, b)
		}
	}
	return nil
}

// sameBytes returns a check that accepts only want.
func sameBytes(want []byte) func([]byte) error {
	return func(got []byte) error {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("response of %d bytes differs from the verified one of %d bytes", len(got), len(want))
		}
		return nil
	}
}

// fitAnswer is the part of a fit response that must repeat exactly when
// the same table is fitted with the same seed.
type fitAnswer struct {
	Model struct {
		ExplainedVariance float64 `json:"explained_variance"`
	} `json:"model"`
	Scores json.RawMessage `json:"scores"`
}

// fitChecker accepts fit responses whose scores and explained variance
// equal those of the first response it accepted. It is not safe for
// concurrent use.
type fitChecker struct {
	first *fitAnswer
}

func (f *fitChecker) check(body []byte) error {
	var a fitAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decoding fit response: %w", err)
	}
	if len(a.Scores) == 0 {
		return errors.New("fit response has no scores")
	}
	if f.first == nil {
		f.first = &a
		return nil
	}
	if !bytes.Equal(a.Scores, f.first.Scores) || a.Model.ExplainedVariance != f.first.Model.ExplainedVariance {
		return errors.New("fit of the same table and seed answered different scores or explained variance")
	}
	return nil
}
