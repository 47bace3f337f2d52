package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"rpcrank/internal/faultinject"
	"rpcrank/internal/registry"
)

// chaosAllowedStatus is the closed set of responses a faulted server may
// give. Anything else — a hang, a 200 with a corrupt body, an unmapped
// status — is a bug in the overload plane.
func chaosAllowedStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusCreated,
		http.StatusBadRequest, http.StatusNotFound,
		http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusServiceUnavailable:
		return true
	}
	return false
}

// TestChaos drives randomized fault schedules through a live server under
// mixed traffic and asserts the overload invariants: every request
// terminates with an allowed status (or a client-visible transport error,
// when worker panics are scheduled), every 429/503 carries Retry-After,
// and after the storm the server still produces exact scores with all
// budgets and limiters drained back to zero.
//
// CHAOS_SCHEDULES overrides the number of schedules (default 20; CI runs
// 100 under -race). CHAOS_SEED pins the base seed; every run logs it, so
// a failure reproduces with CHAOS_SEED=<logged value>.
func TestChaos(t *testing.T) {
	schedules := 20
	if v := os.Getenv("CHAOS_SCHEDULES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SCHEDULES %q", v)
		}
		schedules = n
	}
	baseSeed := time.Now().UnixNano()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q", v)
		}
		baseSeed = n
	}
	t.Logf("chaos: %d schedules, base seed %d (reproduce with CHAOS_SEED=%d)", schedules, baseSeed, baseSeed)
	for i := 0; i < schedules; i++ {
		seed := baseSeed + int64(i)
		t.Run(fmt.Sprintf("schedule=%d", i), func(t *testing.T) {
			t.Logf("seed %d", seed)
			runChaosSchedule(t, seed)
		})
	}
}

// chaosSchedule installs a randomized fault spec per point. Probabilities
// stay moderate so most schedules mix injected failures with successes,
// and latencies stay small so a schedule completes in well under a second.
func chaosSchedule(rng *rand.Rand, fj *faultinject.Faults) (panics bool) {
	for p := faultinject.Point(0); p < faultinject.Point(faultinject.NumPoints); p++ {
		if rng.Float64() < 0.4 {
			continue // leave the point clean this schedule
		}
		var spec faultinject.Spec
		if rng.Float64() < 0.7 {
			spec.Latency = time.Duration(1+rng.Intn(5)) * time.Millisecond
			spec.LatencyProb = 0.2 + 0.5*rng.Float64()
		}
		switch p {
		case faultinject.PointBodyRead, faultinject.PointDecode,
			faultinject.PointRegistryRead, faultinject.PointRegistryWrite:
			if rng.Float64() < 0.5 {
				spec.ErrProb = 0.1 + 0.3*rng.Float64()
			}
		case faultinject.PointWorker:
			if rng.Float64() < 0.3 {
				spec.PanicProb = 0.05
				panics = true
			}
		}
		fj.Set(p, spec)
	}
	return panics
}

func runChaosSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fj := faultinject.New(seed)
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Discard the server's slow-request and panic logging: schedules are
	// designed to trip them, and the seed line is the reproduction key.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(reg, Options{
		Workers:          4,
		ModelConcurrency: 2,
		ModelQueue:       2,
		MaxInFlightRows:  4096,
		SlowThreshold:    -1,
		Logger:           logger,
		Faults:           fj,
	})
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	// reg.Close stops the degraded-write retry goroutine that registry
	// write faults may have started; without it 100 schedules leak 100
	// tickers into the test binary.
	defer func() { ts.Close(); s.Close(); reg.Close() }()

	// Fit the reference model and capture baseline scores before the
	// schedule is armed, so the post-storm parity check has ground truth.
	id := fitModel(t, ts, "chaos").Model.ID
	refRows := trainingRows(512)
	base := decodeBody[ScoreResponse](t, scoreReq(t, ts, id, refRows, 0))
	if len(base.Scores) != len(refRows) {
		t.Fatalf("baseline scored %d rows, want %d", len(base.Scores), len(refRows))
	}

	panics := chaosSchedule(rng, fj)
	client := &http.Client{Timeout: 15 * time.Second}

	const clients, iters = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed ^ int64(c+1)<<16))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				chaosRequest(t, client, ts.URL, id, crng, panics)
			}
		}()
	}
	// One control-plane goroutine toggles drain mid-storm: traffic during
	// the drained window must shed cleanly, and resume must restore service.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		resp, err := client.Post(ts.URL+"/controlz/drain", "", nil)
		if err == nil {
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
		resp, err = client.Post(ts.URL+"/controlz/resume", "", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	wg.Wait()

	// Disarm every fault, make sure the node is serving, and wait for the
	// in-flight accounting to settle.
	for p := faultinject.Point(0); p < faultinject.Point(faultinject.NumPoints); p++ {
		fj.Set(p, faultinject.Spec{})
	}
	s.Resume()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, busy, _ := s.pool.Stats()
		active, queued := s.adm.totals()
		if s.InFlight() == 0 && busy == 0 && active == 0 && queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not quiescent after storm: inflight=%d busy=%d active=%d queued=%d",
				s.InFlight(), busy, active, queued)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.adm.bytes.load(); got != 0 {
		t.Fatalf("byte budget leaked: %d", got)
	}
	if got := s.adm.rows.load(); got != 0 {
		t.Fatalf("row budget leaked: %d", got)
	}

	// Exact-score parity after the storm: recycled frames, scorers, and
	// buffers must be untouched by everything the schedule injected.
	after := decodeBody[ScoreResponse](t, scoreReq(t, ts, id, refRows, 0))
	if len(after.Scores) != len(base.Scores) {
		t.Fatalf("post-storm scored %d rows, want %d", len(after.Scores), len(base.Scores))
	}
	for i := range base.Scores {
		if after.Scores[i] != base.Scores[i] {
			t.Fatalf("row %d: post-storm score %v != baseline %v", i, after.Scores[i], base.Scores[i])
		}
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after storm: %d", hresp.StatusCode)
	}
}

// chaosRequest issues one randomized request and checks the per-response
// invariants. Transport-level errors are tolerated only when the schedule
// injects worker panics (the server kills that connection by design).
func chaosRequest(t *testing.T, client *http.Client, base, model string, rng *rand.Rand, panics bool) {
	var resp *http.Response
	var err error
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // score, sometimes with a tight deadline; every batch
		// clears concurrencyThreshold, so it shards and meets PointWorker
		rows := trainingRows(concurrencyThreshold + rng.Intn(448))
		raw, _ := json.Marshal(ScoreRequest{Rows: rows})
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/models/"+model+"/score", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		if rng.Intn(2) == 0 {
			req.Header.Set("X-Deadline-Ms", strconv.Itoa(1+rng.Intn(30)))
		}
		resp, err = client.Do(req)
	case 4: // rank, sharded like the score batches
		raw, _ := json.Marshal(ScoreRequest{Rows: trainingRows(concurrencyThreshold)})
		resp, err = client.Post(base+"/v1/models/"+model+"/rank", "application/json", bytes.NewReader(raw))
	case 5: // malformed rows — must stay a clean 400 under faults
		resp, err = client.Post(base+"/v1/models/"+model+"/score", "application/json",
			bytes.NewReader([]byte(`{"rows":[[1,2]]}`)))
	case 6: // fit a throwaway model — exercises the registry write hook
		raw, _ := json.Marshal(FitRequest{Name: "burn", Alpha: []float64{1, 1, -1}, Rows: trainingRows(16), Seed: 1})
		resp, err = client.Post(base+"/v1/models", "application/json", bytes.NewReader(raw))
	case 7: // rule read-back — exercises the registry read hook
		resp, err = client.Get(base + "/v1/models/" + model + "/rule")
	case 8: // observability scrapes
		resp, err = client.Get(base + "/metrics")
	default:
		resp, err = client.Get(base + "/statusz?format=json")
	}
	if err != nil {
		if panics {
			return // a worker panic kills the connection by design
		}
		t.Errorf("request failed without panic schedule: %v", err)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if !chaosAllowedStatus(resp.StatusCode) {
		t.Errorf("disallowed status %d", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		if resp.Header.Get("Retry-After") != "1" {
			t.Errorf("status %d without Retry-After", resp.StatusCode)
		}
	}
}
