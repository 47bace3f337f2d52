package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/faultinject"
	"rpcrank/internal/obs"
	"rpcrank/internal/registry"
)

// stormNode is one in-process member of a test serving group, with a kill
// gate: setDead(true) makes the node abort every inbound connection without
// a response (a crashed process, as seen by clients and peers) and fail
// every outbound peer request (so a dead node cannot keep probing or
// syncing while "down").
type stormNode struct {
	url     string
	reg     *registry.Registry
	cl      *cluster.Cluster
	faults  *faultinject.Faults // the cluster's own fault points
	srv     *Server
	ts      *httptest.Server
	dead    atomic.Bool
	apiHits atomic.Int64 // inbound /v1/ requests that reached this node
	// hopDeadline holds the X-Deadline-Ms values of the last inbound
	// request that crossed a hop.
	hopDeadline atomic.Pointer[[]string]
}

// setDead kills or revives the node. Its outbound peer requests fail at
// the cluster's PointPeerDial, before they reach the peer transport, so
// the group runs over the transport production uses.
func (n *stormNode) setDead(dead bool) {
	var spec faultinject.Spec
	if dead {
		spec.ErrProb = 1
	}
	n.faults.Set(faultinject.PointPeerDial, spec)
	n.dead.Store(dead)
}

func (n *stormNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n.dead.Load() {
		// Abort the connection without writing a response: the peer (or
		// client) sees a transport failure, exactly like a killed process.
		panic(http.ErrAbortHandler)
	}
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		n.apiHits.Add(1)
	}
	if forwarded(r) {
		h := r.Header.Values("X-Deadline-Ms")
		n.hopDeadline.Store(&h)
	}
	n.srv.ServeHTTP(w, r)
}

// newStormCluster brings up n in-process replicas, fully meshed, with fast
// probe and anti-entropy periods sized for a test.
func newStormCluster(t *testing.T, n int) []*stormNode {
	t.Helper()
	return newGroup(t, n, 0, Options{})
}

// newGroup is newStormCluster with each registry's MaxLoaded (≤ 0 selects
// the default) and each node's server options (Cluster is filled in).
func newGroup(t *testing.T, n, maxLoaded int, opts Options) []*stormNode {
	t.Helper()
	nodes := make([]*stormNode, n)
	for i := range nodes {
		nd := &stormNode{}
		nd.ts = httptest.NewUnstartedServer(nd)
		nd.url = "http://" + nd.ts.Listener.Addr().String()
		reg, err := registry.Open(t.TempDir(), maxLoaded)
		if err != nil {
			t.Fatal(err)
		}
		nd.reg = reg
		nodes[i] = nd
	}
	for i, nd := range nodes {
		peers := make([]string, 0, n-1)
		for j, o := range nodes {
			if j != i {
				peers = append(peers, o.url)
			}
		}
		nd.faults = faultinject.New(int64(i + 1))
		cl, err := cluster.New(cluster.Options{
			Self:                nd.url,
			Peers:               peers,
			Registry:            nd.reg,
			ProbeInterval:       20 * time.Millisecond,
			ProbeTimeout:        250 * time.Millisecond,
			FailThreshold:       2,
			AntiEntropyInterval: 100 * time.Millisecond,
			AttemptTimeout:      500 * time.Millisecond,
			BackoffBase:         2 * time.Millisecond,
			BackoffMax:          10 * time.Millisecond,
			Faults:              nd.faults,
			Seed:                int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.cl = cl
		o := opts
		o.Cluster = cl
		nd.srv = New(nd.reg, o)
		nd.ts.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.cl.Close()
		}
		for _, nd := range nodes {
			nd.ts.Close()
			nd.srv.Close()
		}
	})
	return nodes
}

func waitForCondition(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterStorm is the three-node kill/converge/drain scenario: under a
// request storm, killing one of three replicas must cost clients nothing
// (every request answers 200 after at most one retry), a rule installed
// while the replica was dead must reach it via anti-entropy once it
// recovers, and draining a node must remove it from peers' rotations
// before any shutdown work starts.
func TestClusterStorm(t *testing.T) {
	nodes := newGroup(t, 3, 1, Options{})

	// Every node must see both peers routable before the storm starts.
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("node %d to see 2 peers up", i), func() bool {
			up, _ := nd.cl.PeerCounts()
			return up == 2
		})
	}

	// Fit on node 0; the install broadcast must converge on all three.
	fitStormModel(t, nodes[0].url, "storm")
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("storm-v1 on node %d", i), func() bool {
			_, err := nd.reg.GetMeta("storm-v1")
			return err == nil
		})
	}
	// Crowd storm-v1 out of every cache, so the non-owners forward it.
	crowdOut(t, nodes, "crowd")

	// Phase A: storm nodes 0 and 1, kill node 2 mid-storm. Zero
	// client-visible failures allowed.
	var stop atomic.Bool
	var total atomic.Int64
	var failures atomic.Int64
	var failOnce sync.Once
	var firstFail string
	record := func(msg string) {
		failures.Add(1)
		failOnce.Do(func() { firstFail = msg })
	}
	const senders = 8
	var wg sync.WaitGroup
	body := `{"rows":[[1.0,1.5,7.5],[4.5,4.4,3.9],[7.7,7.5,0.9]]}`
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			target := nodes[s%2] // only the two surviving nodes take client traffic
			for !stop.Load() {
				resp, err := http.Post(target.url+"/v1/models/storm-v1/score", "application/json", strings.NewReader(body))
				if err != nil {
					record(fmt.Sprintf("sender %d: transport error: %v", s, err))
					continue
				}
				total.Add(1)
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					record(fmt.Sprintf("sender %d: status %d: %s", s, resp.StatusCode, raw))
					continue
				}
				if !strings.Contains(string(raw), `"scores":[`) {
					record(fmt.Sprintf("sender %d: malformed response: %s", s, raw))
				}
			}
		}(s)
	}
	time.Sleep(100 * time.Millisecond)
	nodes[2].setDead(true)
	nodes[2].ts.CloseClientConnections() // cut in-flight forwards too
	time.Sleep(250 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d storm requests failed despite retries; first: %s", n, total.Load(), firstFail)
	}
	if total.Load() == 0 {
		t.Fatal("storm sent no requests")
	}
	retries := nodes[0].cl.Snapshot().ForwardRetries + nodes[1].cl.Snapshot().ForwardRetries
	if retries > total.Load() {
		t.Fatalf("%d forward retries for %d requests; want at most one retry per request", retries, total.Load())
	}
	// The survivors must have opened the dead node's breaker.
	for i := 0; i < 2; i++ {
		waitForCondition(t, 2*time.Second, fmt.Sprintf("node %d to mark node 2 down", i), func() bool {
			up, _ := nodes[i].cl.PeerCounts()
			return up == 1
		})
	}

	// Phase B: a rule installed while node 2 is dead must reach it by
	// anti-entropy after it recovers.
	fitStormModel(t, nodes[0].url, "late")
	waitForCondition(t, 3*time.Second, "late-v1 to reach node 1 by broadcast", func() bool {
		_, err := nodes[1].reg.GetMeta("late-v1")
		return err == nil
	})
	if _, err := nodes[2].reg.GetMeta("late-v1"); err == nil {
		t.Fatal("dead node acquired late-v1 while dead; the kill gate leaks")
	}
	// Keep node 2 dead until node 0's broadcast to it has provably given
	// up (its retry schedule would otherwise outlive this short dead
	// window and deliver late-v1 itself), so anti-entropy is the only
	// repair path left.
	waitForCondition(t, 3*time.Second, "node 0's broadcast to the dead node to give up", func() bool {
		return nodes[0].cl.Snapshot().BroadcastFailures >= 1
	})
	nodes[2].setDead(false)
	waitForCondition(t, 5*time.Second, "late-v1 to reach recovered node 2 by anti-entropy", func() bool {
		_, err := nodes[2].reg.GetMeta("late-v1")
		return err == nil
	})
	// The pull counter increments just after the install lands, so give it
	// its own (short) wait rather than racing the registry poll above.
	waitForCondition(t, time.Second, "the recovery to be attributed to anti-entropy pulls", func() bool {
		return nodes[2].cl.Snapshot().AntiEntropyPulls > 0
	})
	// And it must rejoin the survivors' rotations.
	for i := 0; i < 2; i++ {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("node %d to see node 2 routable again", i), func() bool {
			up, _ := nodes[i].cl.PeerCounts()
			return up == 2
		})
	}

	// Phase C: draining node 1 removes it from node 0's rotation before
	// the drain call even returns, and no subsequent request lands on it.
	resp, err := http.Post(nodes[1].url+"/controlz/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap := nodes[0].cl.Snapshot()
	for _, p := range snap.Peers {
		if p.URL == nodes[1].url && !p.Draining {
			t.Fatal("node 0 does not see node 1 draining after a synchronous drain")
		}
	}
	baseline := nodes[1].apiHits.Load()
	for i := 0; i < 30; i++ {
		id := "storm-v1"
		if i%2 == 1 {
			id = "late-v1"
		}
		resp, err := http.Post(nodes[0].url+"/v1/models/"+id+"/score", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post-drain request %d: %v", i, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if hits := nodes[1].apiHits.Load(); hits != baseline {
		t.Fatalf("draining node received %d forwarded requests; rotation removal failed", hits-baseline)
	}

	// Resume restores the node to rotation.
	resp, err = http.Post(nodes[1].url+"/controlz/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForCondition(t, 2*time.Second, "node 0 to see node 1 routable after resume", func() bool {
		up, _ := nodes[0].cl.PeerCounts()
		return up == 2
	})
}

// crowdOut fits a rule on nodes[0] and waits until every node holds it. In
// a group opened at MaxLoaded 1 that leaves every earlier rule
// non-resident on every node, so a non-owner's next request for one takes
// the hop instead of being served from a resident copy.
func crowdOut(t *testing.T, nodes []*stormNode, name string) {
	t.Helper()
	fitStormModel(t, nodes[0].url, name)
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("%s-v1 on node %d", name, i), func() bool {
			_, ok := nd.reg.Resident(name + "-v1")
			return ok
		})
	}
}

// fitStormModel fits a small rule on the given node over HTTP.
func fitStormModel(t *testing.T, baseURL, name string) {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/models", FitRequest{
		Name:  name,
		Alpha: []float64{1, 1, -1},
		Rows:  trainingRows(24),
		Seed:  3,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("fit %s: status %d: %s", name, resp.StatusCode, raw)
	}
}

// TestHealthzReadinessBody pins the readiness fields: always present, with
// peer counts wired to the cluster and the drain flag to the drain state.
func TestHealthzReadinessBody(t *testing.T) {
	nodes := newStormCluster(t, 2)
	waitForCondition(t, 3*time.Second, "peer up", func() bool {
		up, _ := nodes[0].cl.PeerCounts()
		return up == 1
	})
	resp, err := http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[Health](t, resp)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Draining || h.PeersUp != 1 || h.PeersTotal != 1 {
		t.Fatalf("healthz = %d %+v, want 200 ok with peers 1/1", resp.StatusCode, h)
	}

	nodes[0].srv.Drain()
	resp, err = http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = decodeBody[Health](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !h.Draining || h.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v, want 503 draining", resp.StatusCode, h)
	}
	nodes[0].srv.Resume()
}

// TestForwardedRequestServedLocally pins the loop guard: a request that
// already crossed one hop is always served by the receiving node, whatever
// the rendezvous order says.
func TestForwardedRequestServedLocally(t *testing.T) {
	nodes := newStormCluster(t, 3)
	fitStormModel(t, nodes[0].url, "loop")
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("loop-v1 on node %d", i), func() bool {
			_, err := nd.reg.GetMeta("loop-v1")
			return err == nil
		})
	}
	body := `{"rows":[[1.0,1.5,7.5]]}`
	for _, nd := range nodes {
		req, err := http.NewRequest(http.MethodPost, nd.url+"/v1/models/loop-v1/score", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.ForwardedHeader, "http://elsewhere:1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded request to %s: status %d: %s", nd.url, resp.StatusCode, raw)
		}
		if sb := resp.Header.Get("X-RPC-Served-By"); sb != "" {
			t.Fatalf("forwarded request was forwarded again (served by %s)", sb)
		}
	}
}

// TestQuarantineRepairedByAntiEntropy is the full self-healing loop at the
// serving-group level: bit rot on one replica's disk is detected on the
// next read, the damaged record is quarantined (never served), the version
// disappears from that node's digest, and the regular anti-entropy round
// restores it byte-identical from a healthy peer — with the corruption and
// the repair both visible in /healthz and the stats counters.
func TestQuarantineRepairedByAntiEntropy(t *testing.T) {
	nodes := newStormCluster(t, 2)
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("node %d to see its peer", i), func() bool {
			up, _ := nd.cl.PeerCounts()
			return up == 1
		})
	}

	fitStormModel(t, nodes[0].url, "rot")
	waitForCondition(t, 3*time.Second, "rot-v1 to reach node 1", func() bool {
		_, err := nodes[1].reg.GetMeta("rot-v1")
		return err == nil
	})

	// Rot a byte in the middle of node 1's on-disk record.
	path := filepath.Join(nodes[1].reg.Dir(), "rot-v1.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte{}, raw...)
	rotted[len(rotted)/2] ^= 0x20
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	// The next disk read detects the rot: the rule endpoint answers 404
	// (never the corrupt bytes) and the record moves to quarantine.
	resp, err := http.Get(nodes[1].url + "/v1/models/rot-v1/rule")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rule read over rotted record: status %d, want 404", resp.StatusCode)
	}
	st := nodes[1].reg.Stats()
	if st.Quarantined != 1 || st.CorruptTotal == 0 {
		t.Fatalf("after detection: stats %+v, want 1 quarantined", st)
	}
	if _, err := os.Stat(filepath.Join(nodes[1].reg.Dir(), "quarantine", "rot-v1.json")); err != nil {
		t.Fatalf("rotted record not moved to quarantine: %v", err)
	}
	// Unhealthy state is visible to operators while repair is pending.
	resp, err = http.Get(nodes[1].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[Health](t, resp)
	if h.RegistryOK || h.Quarantined != 1 {
		t.Fatalf("healthz during quarantine = %+v, want registry_ok=false quarantined=1", h)
	}

	// Anti-entropy (no operator action) must restore the record from the
	// healthy peer, byte-identical to the peer's copy.
	waitForCondition(t, 5*time.Second, "anti-entropy to repair rot-v1", func() bool {
		_, err := nodes[1].reg.GetMeta("rot-v1")
		return err == nil
	})
	waitForCondition(t, 2*time.Second, "repair to clear the quarantine set", func() bool {
		st := nodes[1].reg.Stats()
		return st.Quarantined == 0 && st.RepairedTotal >= 1
	})
	want, err := os.ReadFile(filepath.Join(nodes[0].reg.Dir(), "rot-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("repaired record is not byte-identical to the healthy peer's copy")
	}
	// The repaired rule serves again, and health is clean.
	body := `{"rows":[[1.0,1.5,7.5]]}`
	sresp, err := http.Post(nodes[1].url+"/v1/models/rot-v1/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || !strings.Contains(string(sraw), `"scores":[`) {
		t.Fatalf("score after repair: status %d: %s", sresp.StatusCode, sraw)
	}
	resp, err = http.Get(nodes[1].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = decodeBody[Health](t, resp)
	if !h.RegistryOK || h.Quarantined != 0 {
		t.Fatalf("healthz after repair = %+v, want registry_ok=true quarantined=0", h)
	}
}

// hopPair brings up two nodes over the cluster's own peer transport, fits
// a rule on the first, and returns the nodes ordered owner first, plus
// the rule's ID. The rule is crowded out of both caches, so a request
// through the forwarder crosses the hop.
func hopPair(t *testing.T, opts Options) (owner, forwarder *stormNode, id string) {
	t.Helper()
	nodes := newGroup(t, 2, 1, opts)
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("node %d to see its peer", i), func() bool {
			up, _ := nd.cl.PeerCounts()
			return up == 1
		})
	}
	fitStormModel(t, nodes[0].url, "hop")
	id = "hop-v1"
	waitForCondition(t, 3*time.Second, "hop-v1 to reach node 1", func() bool {
		_, err := nodes[1].reg.GetMeta(id)
		return err == nil
	})
	crowdOut(t, nodes, "crowd")
	if nodes[0].cl.Owner(id) == "" {
		return nodes[0], nodes[1], id
	}
	return nodes[1], nodes[0], id
}

// postScore posts a score body to a node and returns the answer and its
// body.
func postScore(t *testing.T, nd *stormNode, id string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, nd.url+"/v1/models/"+id+"/score", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score via %s: status %d: %s", nd.url, resp.StatusCode, raw)
	}
	return resp, raw
}

// TestForwardedAnswerCarriesContentLength: a 10k-row answer relayed over
// the hop declares its length instead of going out chunked, and its bytes
// are the owner's own answer.
func TestForwardedAnswerCarriesContentLength(t *testing.T) {
	owner, fwd, id := hopPair(t, Options{})
	body, err := json.Marshal(ScoreRequest{Rows: trainingRows(10_000)})
	if err != nil {
		t.Fatal(err)
	}
	before := fwd.cl.Snapshot().Forwards
	resp, relayed := postScore(t, fwd, id, body, nil)
	if got := resp.Header.Get("X-RPC-Served-By"); got != owner.url {
		t.Fatalf("X-RPC-Served-By = %q, want the owner %q", got, owner.url)
	}
	if got := fwd.cl.Snapshot().Forwards; got != before+1 {
		t.Fatalf("forwards went %d → %d, want one hop", before, got)
	}
	if got, want := resp.Header.Get("Content-Length"), strconv.Itoa(len(relayed)); got != want {
		t.Fatalf("relayed Content-Length = %q, want %s", got, want)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("relayed answer sent with transfer encoding %v", resp.TransferEncoding)
	}
	_, direct := postScore(t, owner, id, body, nil)
	if !bytes.Equal(relayed, direct) {
		t.Fatal("relayed answer differs from the owner's direct answer")
	}
}

// TestForwardedDeadlineReachesOwner: a non-owner that misses its cache
// hands the owner the client's remaining deadline, no more than the
// client gave, and a request without a deadline crosses the hop without
// one.
func TestForwardedDeadlineReachesOwner(t *testing.T) {
	owner, fwd, id := hopPair(t, Options{})
	body := []byte(`{"rows":[[1.0,1.5,7.5],[4.5,4.4,3.9]]}`)
	for _, tc := range []struct {
		name   string
		header map[string]string
	}{
		{"deadline", map[string]string{"X-Deadline-Ms": "2000"}},
		{"no deadline", nil},
	} {
		owner.hopDeadline.Store(nil)
		resp, _ := postScore(t, fwd, id, body, tc.header)
		if got := resp.Header.Get("X-RPC-Served-By"); got != owner.url {
			t.Fatalf("%s: served by %q, want the owner %q", tc.name, got, owner.url)
		}
		h := owner.hopDeadline.Load()
		if h == nil {
			t.Fatalf("%s: the owner saw no forwarded request", tc.name)
		}
		if tc.header == nil {
			if len(*h) != 0 {
				t.Fatalf("%s: the hop carried X-Deadline-Ms %q", tc.name, *h)
			}
			continue
		}
		if len(*h) != 1 {
			t.Fatalf("%s: X-Deadline-Ms = %q, want one value", tc.name, *h)
		}
		if ms, err := strconv.ParseInt((*h)[0], 10, 64); err != nil || ms <= 0 || ms > 2000 {
			t.Fatalf("%s: X-Deadline-Ms = %q, want in (0, 2000]", tc.name, (*h)[0])
		}
	}
}

// TestForwardedRequestIDReachesOwnerLog: the forwarder's request ID rides
// the hop, and the owner records it as upstream_request_id in its request
// log and slow ring. An upstream ID is read only on a forwarded request,
// and one that fails the character and length check is dropped.
func TestForwardedRequestIDReachesOwnerLog(t *testing.T) {
	var logBuf syncBuffer
	owner, fwd, id := hopPair(t, Options{
		SlowThreshold: time.Nanosecond, // every request logs and enters the slow ring
		Logger:        slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	body := []byte(`{"rows":[[1.0,1.5,7.5],[4.5,4.4,3.9]]}`)
	// records returns the score-route log records whose request_id is one
	// of this node's answers.
	records := func(requestID string) []map[string]any {
		var out []map[string]any
		for _, line := range strings.Split(logBuf.String(), "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["route"] == "score" &&
				(rec["request_id"] == requestID || rec["upstream_request_id"] == requestID) {
				out = append(out, rec)
			}
		}
		return out
	}
	ringEntry := func(nd *stormNode, requestID string) (obs.TraceSummary, bool) {
		for _, s := range nd.srv.slowRing.Snapshot() {
			if s.RequestID == requestID {
				return s, true
			}
		}
		return obs.TraceSummary{}, false
	}

	before := fwd.cl.Snapshot().Forwards
	resp, _ := postScore(t, fwd, id, body, nil)
	if resp.Header.Get("X-RPC-Served-By") != owner.url || fwd.cl.Snapshot().Forwards != before+1 {
		t.Fatal("the request was not forwarded to the owner")
	}
	fwdID := resp.Header.Get("X-Request-Id")
	var ownerRec map[string]any
	waitForCondition(t, 2*time.Second, "the owner's log record of the hop", func() bool {
		for _, rec := range records(fwdID) {
			if rec["upstream_request_id"] == fwdID {
				ownerRec = rec
				return true
			}
		}
		return false
	})
	ownerID, _ := ownerRec["request_id"].(string)
	if ownerID == "" || ownerID == fwdID {
		t.Fatalf("owner record request_id = %v, want the owner's own ID", ownerRec["request_id"])
	}
	waitForCondition(t, 2*time.Second, "the forwarder's own log record", func() bool {
		for _, rec := range records(fwdID) {
			if rec["request_id"] == fwdID {
				if _, ok := rec["upstream_request_id"]; ok {
					t.Fatalf("forwarder record carries an upstream ID: %v", rec)
				}
				return true
			}
		}
		return false
	})
	if s, ok := ringEntry(owner, ownerID); !ok || s.UpstreamRequestID != fwdID {
		t.Fatalf("owner slow-ring entry %+v (found %v), want upstream_request_id %q", s, ok, fwdID)
	}

	// Headers the owner must not record: a valid ID without the forwarded
	// mark, and invalid IDs with it.
	for _, tc := range []struct {
		name   string
		header map[string]string
	}{
		{"not forwarded", map[string]string{"X-Request-Id": "abc-123"}},
		{"bad character", map[string]string{cluster.ForwardedHeader: fwd.url, "X-Request-Id": "abc 123"}},
		{"bad quote", map[string]string{cluster.ForwardedHeader: fwd.url, "X-Request-Id": `a"b`}},
		{"too long", map[string]string{cluster.ForwardedHeader: fwd.url, "X-Request-Id": strings.Repeat("a", 65)}},
	} {
		resp, _ := postScore(t, owner, id, body, tc.header)
		if got := resp.Header.Get("X-Request-Id"); got == tc.header["X-Request-Id"] {
			t.Fatalf("%s: the owner echoed the caller's request ID", tc.name)
		}
		reqID := resp.Header.Get("X-Request-Id")
		waitForCondition(t, 2*time.Second, tc.name+": the owner's log record", func() bool {
			return len(records(reqID)) > 0
		})
		for _, rec := range records(reqID) {
			if v, ok := rec["upstream_request_id"]; ok {
				t.Fatalf("%s: owner logged upstream_request_id %v", tc.name, v)
			}
		}
		if s, ok := ringEntry(owner, reqID); !ok || s.UpstreamRequestID != "" {
			t.Fatalf("%s: slow-ring entry %+v (found %v), want no upstream ID", tc.name, s, ok)
		}
	}
	// The longest valid ID is recorded.
	longest := strings.Repeat("aZ9._-", 10) + "abcd"
	resp, _ = postScore(t, owner, id, body, map[string]string{cluster.ForwardedHeader: fwd.url, "X-Request-Id": longest})
	reqID := resp.Header.Get("X-Request-Id")
	waitForCondition(t, 2*time.Second, "the 64-byte upstream ID to be logged", func() bool {
		for _, rec := range records(reqID) {
			if rec["upstream_request_id"] == longest {
				return true
			}
		}
		return false
	})
}

// TestResidentHitAndMissRouting pins hit/miss routing and the LRU contract
// on a two-node group whose registries keep 2 rules decoded, scored
// through one node. A rule the node owns is served locally; a peer-owned
// rule it holds resident is served from that copy, with X-RPC-Served-By
// naming the node; only a peer-owned rule it does not hold crosses the
// hop. A local hit does not promote the entry, so rules the node owns,
// loaded after it, evict it and its next request forwards again. Every
// answer is the owner's byte for byte, also under concurrent requests that
// race the residency check against loads and evictions.
func TestResidentHitAndMissRouting(t *testing.T) {
	nodes := newGroup(t, 2, 2, Options{})
	self, peer := nodes[0], nodes[1]
	for i, nd := range nodes {
		waitForCondition(t, 3*time.Second, fmt.Sprintf("node %d to see its peer", i), func() bool {
			up, _ := nd.cl.PeerCounts()
			return up == 1
		})
	}
	// Two rule names self owns and two its peer owns.
	var own, peers []string
	for i := 0; len(own) < 2 || len(peers) < 2; i++ {
		name := fmt.Sprintf("lru%d", i)
		if self.cl.Owner(name+"-v1") == "" {
			if len(own) < 2 {
				own = append(own, name)
			}
		} else if len(peers) < 2 {
			peers = append(peers, name)
		}
	}
	body := []byte(`{"rows":[[1.0,1.5,7.5],[4.5,4.4,3.9],[7.7,7.5,0.9]]}`)
	// Fit each rule on self and keep its owner's answer. Self's cache ends
	// up holding the peer-owned rules, b2 then b1 (most recent first).
	want := map[string][]byte{}
	for i, name := range append(own, peers...) {
		fitStormModel(t, self.url, name)
		id := name + "-v1"
		waitForCondition(t, 3*time.Second, id+" on the peer", func() bool {
			_, err := peer.reg.GetMeta(id)
			return err == nil
		})
		owner := self
		if i >= len(own) {
			owner = peer
		}
		_, want[id] = postScore(t, owner, id, body, nil)
	}
	a1, a2, b1, b2 := own[0]+"-v1", own[1]+"-v1", peers[0]+"-v1", peers[1]+"-v1"

	steps := []struct{ id, servedBy string }{
		{b1, self.url}, // resident: served from the copy, not promoted
		{a1, ""},       // owned: loaded, evicting b1, the least recently used
		{b1, peer.url}, // a miss takes the hop
		{b2, self.url},
		{a2, ""}, // evicts b2
		{b2, peer.url},
		{b1, peer.url}, // the hop did not load b1 here
		{a1, ""},
	}
	before := self.cl.Snapshot()
	var hits, hops int64
	for i, st := range steps {
		resp, got := postScore(t, self, st.id, body, nil)
		if sb := resp.Header.Get("X-RPC-Served-By"); sb != st.servedBy {
			t.Fatalf("step %d (%s): served by %q, want %q", i, st.id, sb, st.servedBy)
		}
		if !bytes.Equal(got, want[st.id]) {
			t.Fatalf("step %d (%s): answer %s differs from the owner's %s", i, st.id, got, want[st.id])
		}
		switch st.servedBy {
		case self.url:
			hits++
		case peer.url:
			hops++
		}
	}
	after := self.cl.Snapshot()
	if after.ForwardLocal-before.ForwardLocal != hits || after.Forwards-before.Forwards != hops {
		t.Fatalf("counted %d local hits and %d forwards, want %d and %d",
			after.ForwardLocal-before.ForwardLocal, after.Forwards-before.Forwards, hits, hops)
	}
	resp, err := http.Get(self.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if line := fmt.Sprintf("\nrpcd_forward_local_total %d\n", after.ForwardLocal); !strings.Contains(string(metrics), line) {
		t.Fatalf("/metrics lacks %q", strings.TrimSpace(line))
	}

	ids := []string{a1, b1, a2, b2}
	errs := make(chan string, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				id := ids[(g+k)%len(ids)]
				resp, err := http.Post(self.url+"/v1/models/"+id+"/score", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, want[id]) {
					errs <- fmt.Sprintf("%s: status %d: answer %s, owner's %s", id, resp.StatusCode, raw, want[id])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
