package load

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	three00 := make([]float64, 300)
	for i := range three00 {
		three00[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"one sample p1", []float64{7}, 1, 7},
		{"one sample p50", []float64{7}, 50, 7},
		{"one sample p100", []float64{7}, 100, 7},
		{"ties p50", []float64{1, 2, 2, 2, 3}, 50, 2},
		{"ties p80", []float64{1, 2, 2, 2, 3}, 80, 2},
		{"ties p81", []float64{1, 2, 2, 2, 3}, 81, 3},
		{"even count p50 takes the lower middle", []float64{1, 2, 3, 4}, 50, 2},
		{"p100 is the maximum", []float64{1, 2, 3, 9}, 100, 9},
		{"p99 of 100", hundred, 99, 99},
		{"p99 of 300 stays on its exact rank", three00, 99, 297},
		{"p90 of 300", three00, 90, 270},
		{"tiny p takes the minimum", hundred, 0.001, 1},
	}
	for _, c := range cases {
		if got := Quantile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: Quantile(p=%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
	if got := Quantile(nil, 50); !math.IsNaN(got) {
		t.Errorf("Quantile of no samples = %v, want NaN", got)
	}
}

// taxonomyServer answers each path with one kind of outcome.
func taxonomyServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{"ok":true}`)) })
	mux.HandleFunc("/garbled", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{"ok":tr`)) })
	for path, status := range map[string]int{"/429": 429, "/503": 503, "/500": 500} {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "no", status)
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func wantOK(body []byte) error {
	if string(body) != `{"ok":true}` {
		return errors.New("unexpected body")
	}
	return nil
}

func TestClientTaxonomy(t *testing.T) {
	srv := taxonomyServer(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c := NewClient()
	defer c.Close()
	cases := []struct {
		url  string
		want Outcome
	}{
		{srv.URL + "/ok", OK},
		{srv.URL + "/429", Shed},
		{srv.URL + "/503", Shed},
		{srv.URL + "/500", Non2xx},
		{srv.URL + "/garbled", Mismatch},
		{dead.URL + "/ok", Error},
		{srv.URL + "/ok", OK}, // the client recovers after a transport error
	}
	for _, tc := range cases {
		out, lat, _, err := c.Do(context.Background(), Request{URL: tc.url, Body: []byte("{}"), Check: wantOK})
		if out != tc.want {
			t.Errorf("%s: outcome %s (%v), want %s", tc.url, out, err, tc.want)
		}
		if (out == OK) != (err == nil) {
			t.Errorf("%s: outcome %s with error %v", tc.url, out, err)
		}
		if out != Error && lat <= 0 {
			t.Errorf("%s: latency %v", tc.url, lat)
		}
	}
}

func TestClosedLoopCountsAndConnections(t *testing.T) {
	var conns atomic.Int64
	var n atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// Every fifth request is shed, so the stats see two outcomes.
		if n.Add(1)%5 == 0 {
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	clients := []*Client{NewClient(), NewClient()}
	st := ClosedLoop(context.Background(), clients, 150*time.Millisecond, func(c, i int) Request {
		return Request{URL: srv.URL, Body: []byte("{}"), Rows: 3, Check: wantOK}
	})
	for _, c := range clients {
		c.Close()
	}
	if st.Attempted() != n.Load() {
		t.Errorf("attempted %d, server saw %d", st.Attempted(), n.Load())
	}
	if st.Counts[OK] == 0 || st.Counts[Shed] == 0 || st.Failed() != st.Counts[Shed] {
		t.Errorf("counts %v", st.Counts)
	}
	if int64(len(st.Latencies)) != st.Counts[OK] || st.Rows != 3*st.Counts[OK] {
		t.Errorf("%d latencies and %d rows for %d OK requests", len(st.Latencies), st.Rows, st.Counts[OK])
	}
	if st.FirstErr == nil {
		t.Error("no first error recorded for the shed requests")
	}
	if st.Elapsed < 150*time.Millisecond {
		t.Errorf("elapsed %v is shorter than the window", st.Elapsed)
	}
	if got := conns.Load(); got > int64(len(clients)) {
		t.Errorf("%d clients opened %d connections", len(clients), got)
	}
}

func TestPacedKeepsItsSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(30 * time.Millisecond) // longer than the interval
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := NewClient()
	defer c.Close()
	st := Paced(context.Background(), c, 20*time.Millisecond, 100*time.Millisecond, func(int) Request {
		return Request{URL: srv.URL, Body: []byte("{}"), Check: wantOK}
	})
	// Due at 0, 20, 40, 60 and 80 ms: the overrun delays the sends but
	// does not thin the schedule.
	if st.Attempted() != 5 || st.Counts[OK] != 5 || len(st.Lags) != 5 {
		t.Fatalf("attempted %d, ok %d, lags %d; want 5 each", st.Attempted(), st.Counts[OK], len(st.Lags))
	}
	// The fifth request is due at 80 ms but cannot start before the fourth
	// ends at about 120 ms, and its latency counts from the due time.
	if st.Lags[4] < 30 || st.Latencies[4] < st.Lags[4]+30 {
		t.Errorf("fifth request lag %.1f ms, latency %.1f ms", st.Lags[4], st.Latencies[4])
	}
}

func TestMergeAndAppendWindows(t *testing.T) {
	a := Stats{Latencies: []float64{1}, Rows: 2, Elapsed: time.Second}
	a.Counts[OK] = 1
	b := Stats{Elapsed: 2 * time.Second, FirstErr: errors.New("x")}
	b.Counts[Error] = 1
	c := a
	a.Merge(&b)
	if a.Attempted() != 2 || a.Failed() != 1 || a.Elapsed != 2*time.Second || a.FirstErr == nil || a.Rows != 2 {
		t.Errorf("merged %+v", a)
	}
	c.Append(&b)
	if c.Attempted() != 2 || c.Elapsed != 3*time.Second {
		t.Errorf("appended %+v", c)
	}
}
