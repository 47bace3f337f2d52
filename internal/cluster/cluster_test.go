package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/order"
	"rpcrank/internal/registry"
)

// fitTestModel fits a small deterministic rule for replication tests.
func fitTestModel(t *testing.T) *core.Model {
	t.Helper()
	rows := [][]float64{
		{0.9, 1.2, 8.0}, {2.1, 2.3, 6.5}, {3.2, 3.1, 5.2}, {4.0, 4.2, 4.1},
		{5.1, 4.9, 3.0}, {6.2, 6.1, 2.2}, {7.0, 7.2, 1.1}, {8.1, 7.9, 0.3},
	}
	m, err := core.Fit(rows, core.Options{
		Alpha: order.MustDirection(1, 1, -1),
		Seed:  7,
	})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return m
}

func newTestRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRendezvousStability is the property the router is built on: removing
// one member reassigns only the models that member owned.
func TestRendezvousStability(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	owner := func(model string, ms []string) string {
		best, bestScore := "", uint64(0)
		for _, m := range ms {
			if s := rendezvousScore(m, model); best == "" || s > bestScore {
				best, bestScore = m, s
			}
		}
		return best
	}
	before := make(map[string]string)
	counts := make(map[string]int)
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("model-%d-v1", i)
		before[id] = owner(id, members)
		counts[before[id]]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns no models out of 300; hash is not spreading", m)
		}
	}
	// Remove b: every model not owned by b must keep its owner.
	survivors := []string{members[0], members[2]}
	for id, prev := range before {
		got := owner(id, survivors)
		if prev != members[1] && got != prev {
			t.Errorf("model %s moved from %s to %s though its owner survived", id, prev, got)
		}
		if prev == members[1] && got == members[1] {
			t.Errorf("model %s still owned by removed member", id)
		}
	}
}

// TestPeerBreakerStateMachine walks the breaker through its transitions:
// up → down after the failure threshold, down → half-open on a success,
// half-open → up on the next success, half-open → down on one failure.
func TestPeerBreakerStateMachine(t *testing.T) {
	p := &Peer{url: "http://x:1", state: StateUp}
	errProbe := errors.New("probe failed")

	p.recordFailure(errProbe, 3)
	p.recordFailure(errProbe, 3)
	if !p.routable() {
		t.Fatal("peer left rotation before the failure threshold")
	}
	p.recordFailure(errProbe, 3)
	if p.routable() || p.alive() {
		t.Fatal("three consecutive failures must open the breaker")
	}

	if _, to, changed := p.recordSuccess(); !changed || to != StateHalfOpen {
		t.Fatalf("success on a down peer: got state %v, want half-open", to)
	}
	if !p.routable() {
		t.Fatal("half-open peer must take trial traffic")
	}
	if _, to, _ := p.recordFailure(errProbe, 3); to != StateDown {
		t.Fatalf("one failure in half-open must re-open the breaker, got %v", to)
	}

	p.recordSuccess()
	if _, to, _ := p.recordSuccess(); to != StateUp {
		t.Fatalf("second success must promote to up, got %v", to)
	}

	// Draining keeps the peer alive but out of rotation.
	p.probeDraining(true, p.noticesSeen())
	if p.routable() {
		t.Fatal("draining peer must leave rotation")
	}
	if !p.alive() {
		t.Fatal("draining peer is alive")
	}
}

// TestStaleProbeKeepsDrainNotice: a probe answer written before the peer
// started to drain can land after the peer's drain notice; it must not put
// the peer back in rotation. Nor may a forward or install that succeeded.
// A probe sent after the notice does set the flag.
func TestStaleProbeKeepsDrainNotice(t *testing.T) {
	p := &Peer{url: "http://x:1", state: StateUp}
	sent := p.noticesSeen() // the probe goes out
	p.setDraining(true)     // the notice lands first
	p.probeDraining(false, sent)
	p.recordSuccess()
	if p.routable() {
		t.Fatal("a probe sent before the drain notice put the peer back in rotation")
	}
	p.probeDraining(false, p.noticesSeen())
	if !p.routable() {
		t.Fatal("a probe sent after the drain notice was ignored")
	}
}

// TestProbeStates drives the prober against three kinds of peers: healthy,
// draining (503 + readiness body), and dead.
func TestProbeStates(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "draining": false})
	}))
	defer healthy.Close()
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "draining", "draining": true})
	}))
	defer draining.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // bound then closed: connection refused

	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{healthy.URL, draining.URL, dead.URL},
		Registry:            newTestRegistry(t),
		ProbeInterval:       10 * time.Millisecond,
		ProbeTimeout:        200 * time.Millisecond,
		FailThreshold:       2,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitFor(t, 2*time.Second, "peer states to settle", func() bool {
		snap := c.Snapshot()
		states := map[string]PeerStatus{}
		for _, p := range snap.Peers {
			states[p.URL] = p
		}
		h, d, x := states[healthy.URL], states[draining.URL], states[dead.URL]
		return h.State == "up" && !h.Draining &&
			d.State == "up" && d.Draining &&
			x.State == "down"
	})
	if up, total := c.PeerCounts(); up != 1 || total != 3 {
		t.Fatalf("PeerCounts = (%d, %d), want (1, 3)", up, total)
	}

	// Recovery: resurrect the dead address is not possible with httptest,
	// so recover the draining peer instead and check it rejoins rotation.
	snapBefore := c.Snapshot()
	if snapBefore.Probes == 0 {
		t.Fatal("prober has not probed")
	}
}

// TestBackoffBounds pins the jittered exponential schedule: attempt n waits
// base·2^n scaled by [0.5, 1.5), never beyond 1.5×BackoffMax.
func TestBackoffBounds(t *testing.T) {
	c := &Cluster{opts: Options{BackoffBase: 8 * time.Millisecond, BackoffMax: 40 * time.Millisecond}}
	c.rng = rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 6; attempt++ {
		want := c.opts.BackoffBase << uint(attempt)
		if want > c.opts.BackoffMax || want <= 0 {
			want = c.opts.BackoffMax
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d < want/2 || d > want*3/2 {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", attempt, d, want/2, want*3/2)
			}
		}
	}
}

// pickModelID finds a model ID whose rendezvous order puts every given
// member above self, so forwarding tests can force a known retry chain.
func pickModelID(t *testing.T, self string, above ...string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("probe-%d-v1", i)
		selfScore := rendezvousScore(self, id)
		ok := true
		for _, m := range above {
			if rendezvousScore(m, id) <= selfScore {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	t.Fatal("no model ID ranks all members above self")
	return ""
}

// TestForwardRetriesNextReplica: the owner answers 500, the next replica
// answers 200 — the client sees the second replica's response after exactly
// one retry, and the 500 (an answer, not a transport failure) leaves the
// owner's breaker closed.
func TestForwardRetriesNextReplica(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == HealthPath { // healthy to probes, broken for scoring
			w.Write([]byte(`{"status":"ok","draining":false}`))
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	var gotForwardedHeader string
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForwardedHeader = r.Header.Get(ForwardedHeader)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"answered":true}`))
	}))
	defer ok.Close()

	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{failing.URL, ok.URL},
		Registry:            newTestRegistry(t),
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		BackoffBase:         time.Millisecond,
		BackoffMax:          2 * time.Millisecond,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id := pickModelID(t, c.Self(), failing.URL, ok.URL)
	// Force the failing server to rank first so the retry chain is fixed.
	if rendezvousScore(failing.URL, id) < rendezvousScore(ok.URL, id) {
		// Owner is already the healthy one; swap roles by searching for an
		// ID with the failing server on top.
		for i := 0; ; i++ {
			cand := fmt.Sprintf("swap-%d-v1", i)
			if rendezvousScore(failing.URL, cand) > rendezvousScore(ok.URL, cand) &&
				rendezvousScore(ok.URL, cand) > rendezvousScore(c.Self(), cand) {
				id = cand
				break
			}
		}
	}
	if got := c.Owner(id); got != failing.URL {
		t.Fatalf("owner = %q, want the failing server %q", got, failing.URL)
	}

	r := httptest.NewRequest(http.MethodPost, "/v1/models/"+id+"/score", nil)
	w := httptest.NewRecorder()
	if !c.Forward(w, r, id, []byte(`{"rows":[[1,2,3]]}`), 0, false) {
		t.Fatal("Forward returned false; want the healthy replica's relayed answer")
	}
	if w.Code != http.StatusOK || w.Body.String() != `{"answered":true}` {
		t.Fatalf("relayed response: %d %q", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-RPC-Served-By"); got != ok.URL {
		t.Fatalf("X-RPC-Served-By = %q, want %q", got, ok.URL)
	}
	if gotForwardedHeader != c.Self() {
		t.Fatalf("forwarded request carried %s=%q, want self", ForwardedHeader, gotForwardedHeader)
	}
	snap := c.Snapshot()
	if snap.Forwards != 1 || snap.ForwardRetries != 1 {
		t.Fatalf("forwards=%d retries=%d, want 1 and 1", snap.Forwards, snap.ForwardRetries)
	}
	// A 500 is an answer: the owner's breaker must not have advanced.
	for _, p := range snap.Peers {
		if p.URL == failing.URL && (p.State != "up" || p.ConsecutiveFails != 0) {
			t.Fatalf("owner breaker advanced on a retryable status: %+v", p)
		}
	}
}

// TestForwardDegradesToLocal: when the attempt cap is exhausted before the
// rendezvous order reaches self, Forward reports false (serve locally) and
// counts the degradation.
func TestForwardDegradesToLocal(t *testing.T) {
	deadURLs := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               deadURLs,
		Registry:            newTestRegistry(t),
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		BackoffBase:         time.Millisecond,
		BackoffMax:          2 * time.Millisecond,
		MaxForwardAttempts:  2,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id := pickModelID(t, c.Self(), deadURLs...)
	r := httptest.NewRequest(http.MethodPost, "/v1/models/"+id+"/score", nil)
	w := httptest.NewRecorder()
	if c.Forward(w, r, id, []byte(`{}`), 0, false) {
		t.Fatal("Forward claimed success against dead peers")
	}
	snap := c.Snapshot()
	if snap.ForwardShed != 1 {
		t.Fatalf("forward_shed = %d, want 1", snap.ForwardShed)
	}
	if snap.Forwards != 0 {
		t.Fatalf("forwards = %d, want 0", snap.Forwards)
	}
}

// TestForwardHandsOnDeadline: a forwarded request carries its remaining
// budget to the peer as X-Deadline-Ms, never more than it had left, and a
// request without a deadline carries none.
func TestForwardHandsOnDeadline(t *testing.T) {
	got := make(chan []string, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == HealthPath {
			w.Write([]byte(`{"status":"ok","draining":false}`))
			return
		}
		got <- r.Header.Values("X-Deadline-Ms")
		w.Write([]byte(`{}`))
	}))
	defer peer.Close()
	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{peer.URL},
		Registry:            newTestRegistry(t),
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := pickModelID(t, c.Self(), peer.URL)

	forward := func(remaining time.Duration, hasDeadline bool) []string {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/models/"+id+"/score", nil)
		if !c.Forward(httptest.NewRecorder(), r, id, []byte(`{"rows":[[1,2,3]]}`), remaining, hasDeadline) {
			t.Fatal("Forward did not relay the peer's answer")
		}
		return <-got
	}
	h := forward(2*time.Second, true)
	if len(h) != 1 {
		t.Fatalf("X-Deadline-Ms = %q, want one value", h)
	}
	if ms, err := strconv.ParseInt(h[0], 10, 64); err != nil || ms <= 0 || ms > 2000 {
		t.Fatalf("X-Deadline-Ms = %q, want in (0, 2000]", h[0])
	}
	if h := forward(0, false); len(h) != 0 {
		t.Fatalf("request without a deadline forwarded X-Deadline-Ms %q", h)
	}
}

// TestBroadcastInstall replicates a local rule to a peer registry through
// the /clusterz/install wire format.
func TestBroadcastInstall(t *testing.T) {
	src, dst := newTestRegistry(t), newTestRegistry(t)
	if _, err := src.Put("wine", fitTestModel(t), 8, 0.9); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != InstallPath {
			http.NotFound(w, r)
			return
		}
		var doc InstallDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		installed, err := dst.InstallVersion(doc.Meta, doc.Model)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(InstallResult{Installed: installed})
	}))
	defer peer.Close()

	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{peer.URL},
		Registry:            src,
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.BroadcastInstall("wine-v1")
	waitFor(t, 2*time.Second, "replica to hold wine-v1", func() bool {
		_, err := dst.GetMeta("wine-v1")
		return err == nil
	})
	// The counter increments just after the peer's 2xx answer is read, so
	// poll rather than race the install landing in the registry above.
	waitFor(t, 2*time.Second, "the broadcast counter", func() bool {
		return c.Snapshot().Broadcasts == 1
	})
	// The replicated file is byte-for-byte the source file.
	want, err := os.ReadFile(filepath.Join(src.Dir(), "wine-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst.Dir(), "wine-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("replicated rule file differs from the source file")
	}
}

// TestAntiEntropyPullsMissing: a node that missed a broadcast converges by
// pulling the rule off a peer's digest within one loop period.
func TestAntiEntropyPullsMissing(t *testing.T) {
	local, remote := newTestRegistry(t), newTestRegistry(t)
	if _, err := remote.Put("wine", fitTestModel(t), 8, 0.9); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == HealthPath:
			json.NewEncoder(w).Encode(map[string]any{"status": "ok", "draining": false})
		case r.URL.Path == DigestPath:
			json.NewEncoder(w).Encode(Digest{IDs: remote.IDs(), Versions: remote.VersionDigest()})
		case len(r.URL.Path) > len(ExportPath) && r.URL.Path[:len(ExportPath)] == ExportPath:
			meta, model, err := remote.Export(r.URL.Path[len(ExportPath):])
			if err != nil {
				http.NotFound(w, r)
				return
			}
			json.NewEncoder(w).Encode(InstallDoc{Meta: meta, Model: model})
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()

	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{peer.URL},
		Registry:            local,
		ProbeInterval:       10 * time.Millisecond,
		AntiEntropyInterval: 20 * time.Millisecond,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitFor(t, 3*time.Second, "anti-entropy to pull wine-v1", func() bool {
		_, err := local.GetMeta("wine-v1")
		return err == nil
	})
	if snap := c.Snapshot(); snap.AntiEntropyPulls != 1 {
		t.Fatalf("antientropy_pulls = %d, want 1", snap.AntiEntropyPulls)
	}
	// The version high-water mark moved, so a local Put cannot reuse v1.
	if v := local.VersionDigest()["wine"]; v != 1 {
		t.Fatalf("version high-water mark = %d, want 1", v)
	}
}

// TestNewNormalizesPeers: duplicates, whitespace, trailing slashes, and
// self-references collapse, so a copy-pasted -peers list cannot
// double-count a member in the rendezvous ring.
func TestNewNormalizesPeers(t *testing.T) {
	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{"http://a:1/", " http://a:1", "http://self:1", "", "http://b:1"},
		Registry:            newTestRegistry(t),
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, total := c.PeerCounts(); total != 2 {
		t.Fatalf("peer count = %d, want 2 (a and b)", total)
	}
}

// TestNewRejectsBadURLs: Self and every peer must be http://host[:port];
// anything else fails New with an error naming the URL, instead of
// failing every request built from it later.
func TestNewRejectsBadURLs(t *testing.T) {
	for _, tc := range []struct {
		self, peer string
		bad        string // the URL the error must name; "" when New succeeds
	}{
		{self: "http://self:1", peer: "http://b:8080"},
		{self: "http://self:1", peer: "http://b"},
		{self: "http://self:1", peer: "http://b:8080/"},
		{self: "http://self:1", peer: "http://[::1]:8080"},
		{self: "http://self", peer: "http://127.0.0.1:1"},
		{self: "http://self:1", peer: "b:8080", bad: "b:8080"},
		{self: "http://self:1", peer: "https://b:8080", bad: "https://b:8080"},
		{self: "http://self:1", peer: "http://b:8080/v1", bad: "http://b:8080/v1"},
		{self: "http://self:1", peer: "http://b:8080?x=1", bad: "http://b:8080?x=1"},
		{self: "http://self:1", peer: "http://b:8080#top", bad: "http://b:8080#top"},
		{self: "http://self:1", peer: "http://u:p@b:8080", bad: "http://u:p@b:8080"},
		{self: "http://self:1", peer: "http://b:port", bad: "http://b:port"},
		{self: "http://self:1", peer: "http://:8080", bad: "http://:8080"},
		{self: "http://self:1", peer: "http://", bad: "http://"},
		{self: "self:1", peer: "http://b:8080", bad: "self:1"},
		{self: "http://self:1/api", peer: "http://b:8080", bad: "http://self:1/api"},
	} {
		c, err := New(Options{
			Self:                tc.self,
			Peers:               []string{tc.peer},
			Registry:            newTestRegistry(t),
			ProbeInterval:       time.Hour,
			AntiEntropyInterval: time.Hour,
			Seed:                1,
		})
		if tc.bad == "" {
			if err != nil {
				t.Errorf("New(self %q, peer %q): %v", tc.self, tc.peer, err)
				continue
			}
			c.Close()
			continue
		}
		if err == nil {
			c.Close()
			t.Errorf("New(self %q, peer %q) accepted a URL that is not http://host[:port]", tc.self, tc.peer)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.bad)) {
			t.Errorf("New(self %q, peer %q): error %q does not name %q", tc.self, tc.peer, err, tc.bad)
		}
	}
}

// waitFirstProbe blocks until p has been probed at least once.
func waitFirstProbe(t *testing.T, p *Peer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		probed := !p.lastProbe.IsZero()
		p.mu.Unlock()
		if probed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("start-up probe never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainNotice: an explicit notice removes the peer from rotation
// immediately, and NotifyDraining delivers this node's notice to peers.
func TestDrainNotice(t *testing.T) {
	var got DrainNotice
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == DrainingPath {
			json.NewDecoder(r.Body).Decode(&got)
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer peer.Close()

	c, err := New(Options{
		Self:                "http://self:1",
		Peers:               []string{peer.URL},
		Registry:            newTestRegistry(t),
		ProbeInterval:       time.Hour,
		AntiEntropyInterval: time.Hour,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The probe loop checks every peer once at start-up. A probe verdict
	// landing after the manual notice would overwrite it, so let that
	// first probe finish before sending notices.
	waitFirstProbe(t, c.peers[0])
	if up, _ := c.PeerCounts(); up != 1 {
		t.Fatal("peer must start routable")
	}
	c.SetPeerDraining(peer.URL, true)
	if up, _ := c.PeerCounts(); up != 0 {
		t.Fatal("drain notice must remove the peer from rotation")
	}
	c.SetPeerDraining(peer.URL, false)
	if up, _ := c.PeerCounts(); up != 1 {
		t.Fatal("drain=false notice must restore the peer")
	}

	c.NotifyDraining(true)
	if got.Peer != c.Self() || !got.Draining {
		t.Fatalf("peer received notice %+v, want self draining", got)
	}
	if snap := c.Snapshot(); snap.DrainNoticesSent != 1 {
		t.Fatalf("drain_notices_sent = %d, want 1", snap.DrainNoticesSent)
	}
}
