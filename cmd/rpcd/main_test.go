package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcrank"
)

// startDaemon runs the rpcd daemon on an ephemeral port and returns its
// base URL plus a shutdown function that blocks until it exits cleanly.
func startDaemon(t *testing.T, modelDir string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-model-dir", modelDir}, &out, func(addr, _ string) {
			ready <- addr
		})
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("daemon exit: %v (output: %s)", err, out.String())
				}
			case <-time.After(10 * time.Second):
				t.Errorf("daemon did not shut down")
			}
		}
	case err := <-done:
		t.Fatalf("daemon failed to start: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	panic("unreachable")
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

// TestFitPersistRestart is the acceptance path: the daemon starts, fits a
// model over HTTP, persists it to the model dir, and a restarted daemon
// serves identical scores for the same rows.
func TestFitPersistRestart(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	rows := make([][]float64, 20)
	for i := range rows {
		u := float64(i) / 19
		rows[i] = []float64{u * 8, 2 + 3*u*u, 5 - 4*u}
	}
	probe := [][]float64{{1.1, 2.2, 4.4}, {4.0, 3.1, 3.0}, {7.7, 4.8, 1.3}}

	base, shutdown := startDaemon(t, modelDir)
	status, body := post(t, base+"/v1/models", rpcrank.FitRequest{
		Name:  "accept",
		Alpha: []float64{1, 1, -1},
		Rows:  rows,
		Seed:  5,
	})
	if status != http.StatusCreated {
		t.Fatalf("fit: status %d: %s", status, body)
	}
	var fit rpcrank.FitResponse
	if err := json.Unmarshal(body, &fit); err != nil {
		t.Fatal(err)
	}
	if fit.Model.ID != "accept-v1" {
		t.Fatalf("fit assigned id %q", fit.Model.ID)
	}

	status, body = post(t, base+"/v1/models/accept-v1/score", rpcrank.ScoreRequest{Rows: probe})
	if status != http.StatusOK {
		t.Fatalf("score: status %d: %s", status, body)
	}
	var before rpcrank.ScoreResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	shutdown()

	// The model dir holds the persisted rule; a new daemon must serve it.
	if matches, _ := filepath.Glob(filepath.Join(modelDir, "accept-v1.json")); len(matches) != 1 {
		t.Fatalf("persisted rule file missing from %s", modelDir)
	}
	base2, shutdown2 := startDaemon(t, modelDir)
	defer shutdown2()
	status, body = post(t, base2+"/v1/models/accept-v1/score", rpcrank.ScoreRequest{Rows: probe})
	if status != http.StatusOK {
		t.Fatalf("score after restart: status %d: %s", status, body)
	}
	var after rpcrank.ScoreResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	for i := range probe {
		if before.Scores[i] != after.Scores[i] {
			t.Errorf("row %d: score %v before restart, %v after", i, before.Scores[i], after.Scores[i])
		}
	}

	// Health reflects the reloaded registry.
	resp, err := http.Get(base2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf(`"models":%d`, 1); !bytes.Contains(health, []byte(want)) {
		t.Errorf("healthz = %s, want it to contain %s", health, want)
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, nil); err == nil {
		t.Errorf("unknown flag should error")
	}
	if err := run(context.Background(), []string{"positional"}, &out, nil); err == nil {
		t.Errorf("positional args should error")
	}
	if err := run(context.Background(), []string{"-log-format", "yaml"}, &out, nil); err == nil {
		t.Errorf("unknown log format should error")
	}
}

// TestBadPeersExit: a -peers entry that is not http://host[:port] stops
// the daemon at start-up with an error naming it, rather than starting a
// node whose every forward to that peer would fail.
func TestBadPeersExit(t *testing.T) {
	var out bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := run(ctx, []string{
		"-addr", "127.0.0.1:0", "-model-dir", filepath.Join(t.TempDir(), "models"),
		"-peers", "http://127.0.0.1:1,b:8080",
	}, &out, func(string, string) {
		t.Error("daemon started serving with a bad peer URL")
		cancel()
	})
	if err == nil || !strings.Contains(err.Error(), `"b:8080"`) {
		t.Fatalf("run with a bad -peers entry: %v, want an error naming \"b:8080\"", err)
	}
}

// TestJSONLogFormat runs the daemon with -log-format json and checks the
// startup/shutdown records are parseable JSON with the expected messages.
func TestJSONLogFormat(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out syncWriter
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-model-dir", modelDir,
			"-log-format", "json",
			"-slow-ms", "250",
		}, &out, func(addr, _ string) { ready <- addr })
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon failed to start: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	msgs := map[string]map[string]any{}
	for _, line := range bytes.Split([]byte(out.String()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if msg, ok := rec["msg"].(string); ok {
			msgs[msg] = rec
		}
	}
	serving, ok := msgs["serving"]
	if !ok {
		t.Fatalf("no 'serving' log record; output:\n%s", out.String())
	}
	if v, ok := serving["slow_ms"].(float64); !ok || int(v) != 250 {
		t.Errorf("serving log slow_ms = %v, want 250", serving["slow_ms"])
	}
	if _, ok := msgs["shutting down"]; !ok {
		t.Errorf("no 'shutting down' log record")
	}
}

// syncWriter guards the output buffer: the daemon goroutine writes logs
// while the test reads on failure paths.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestPprofFlagGated verifies the profiling endpoint serves on its own
// listener when -pprof-addr is set, and is absent from the API listener
// (and entirely when the flag is unset).
func TestPprofFlagGated(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type addrs struct{ api, pprof string }
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-pprof-addr", "127.0.0.1:0",
			"-model-dir", modelDir,
		}, &out, func(addr, pprofAddr string) {
			ready <- addrs{addr, pprofAddr}
		})
	}()
	var a addrs
	select {
	case a = <-ready:
	case err := <-done:
		t.Fatalf("daemon failed to start: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	if a.pprof == "" {
		t.Fatal("pprof address empty despite -pprof-addr")
	}
	resp, err := http.Get("http://" + a.pprof + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof endpoint unreachable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}
	// The API listener must NOT expose the profiler.
	resp, err = http.Get("http://" + a.api + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("API listener unexpectedly serves pprof")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("daemon did not shut down")
	}
}

// TestPprofDisabledByDefault pins the off-by-default contract.
func TestPprofDisabledByDefault(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-model-dir", modelDir}, &out, func(addr, pprofAddr string) {
			if pprofAddr != "" {
				t.Errorf("pprof bound to %q without the flag", pprofAddr)
			}
			ready <- addr
		})
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon failed to start: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("daemon exit: %v", err)
	}
}
