// Package cluster turns N rpcd replicas into one fault-tolerant serving
// group. It is dependency-free (stdlib plus this repo's internal packages)
// and owns three concerns:
//
//   - Peer health: every peer is probed periodically over /healthz with a
//     per-probe timeout. Consecutive failures trip a per-peer circuit
//     breaker (up → down after FailThreshold misses); a down peer that
//     answers a probe re-enters through a half-open trial state and is
//     promoted back to up on the next success. A peer that reports
//     draining — via its readiness body or an explicit drain notice — is
//     kept alive but removed from routing.
//
//   - Failure-aware routing: score/rank traffic is sharded by rendezvous
//     hashing of the model ID across the live members (self plus routable
//     peers). Requests owned by a remote replica are forwarded with a
//     per-attempt timeout carved from the request's deadline budget and
//     retried on the next replica in rendezvous order with capped,
//     jittered exponential backoff. When every candidate peer fails the
//     node serves the request locally and records the degradation — the
//     group degrades to single-node behaviour instead of erroring.
//
//   - Replicated installs: locally-created rules are broadcast to every
//     peer as an idempotent versioned install (registry.InstallVersion
//     applies them exactly once, in high-water-mark order), with per-peer
//     retry/backoff. A background anti-entropy loop exchanges {model,
//     version} digests with live peers and pulls any version this node is
//     missing, so a replica that was down during a broadcast converges
//     within one loop period of recovering.
//
// All failure paths are observable (Snapshot feeds /metrics and /statusz)
// and injectable: PointPeerDial, PointPeerRead, and PointBroadcastSend
// let the chaos suite kill or stall peers deterministically.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/internal/faultinject"
	"rpcrank/internal/registry"
)

// Peer endpoints the cluster speaks. The server registers handlers for
// the /clusterz paths; /healthz is the ordinary readiness probe.
const (
	HealthPath   = "/healthz"
	InstallPath  = "/clusterz/install"
	DigestPath   = "/clusterz/digest"
	ExportPath   = "/clusterz/export/" // + rule ID
	DrainingPath = "/clusterz/draining"
)

// ForwardedHeader marks a request that already crossed one hop. A node
// receiving it always serves locally, so a routing disagreement between
// replicas can never loop a request.
const ForwardedHeader = "X-RPC-Forwarded"

// ServedByHeader names the member that computed a non-owner's answer: the
// peer a request was relayed to, or the node itself when it served the
// rule from a resident copy or fell back to serving locally. The owner's
// own answers carry none.
const ServedByHeader = "X-RPC-Served-By"

// InstallDoc is the replication envelope: the registry metadata that fixes
// a rule's identity plus the raw saved-rule payload. It is what install
// broadcasts POST and what /clusterz/export returns.
type InstallDoc struct {
	Meta  registry.Meta   `json:"meta"`
	Model json.RawMessage `json:"model"`
}

// Digest is the anti-entropy exchange unit: the rule IDs a node stores and
// its per-name version high-water marks.
type Digest struct {
	IDs      []string       `json:"ids"`
	Versions map[string]int `json:"versions"`
}

// DrainNotice is the body of POST /clusterz/draining: a node announcing
// its own drain state change, so peers drop it from rotation immediately
// instead of on the next probe.
type DrainNotice struct {
	Peer     string `json:"peer"`
	Draining bool   `json:"draining"`
}

// InstallResult answers POST /clusterz/install.
type InstallResult struct {
	Installed bool `json:"installed"`
	// Persisted is false when the receiving node accepted the install in
	// degraded write mode (serving from memory, disk write pending). The
	// install still counts as applied; the sender needs no retry — the
	// receiver's background flush owns the durability.
	Persisted bool `json:"persisted"`
}

// State is a peer's circuit-breaker state.
type State uint8

const (
	// StateUp: the peer answers probes; it is routable.
	StateUp State = iota
	// StateHalfOpen: a down peer answered one probe; it is routable again
	// as a trial, and the next success promotes it to up while the next
	// failure sends it straight back down.
	StateHalfOpen
	// StateDown: the breaker is open; the peer receives no traffic until a
	// probe succeeds.
	StateDown
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateHalfOpen:
		return "half-open"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// Options configures New. Zero values select the documented defaults.
//
// Peer traffic (forwards, probes, broadcasts, digests, exports and drain
// notices) goes through a net/http transport private to the cluster: it
// honours no proxy settings, speaks HTTP/1.1 over plain http, replays a
// request that fails on a stale pooled connection, and Close empties its
// pool. Per-request timeouts come from contexts.
type Options struct {
	// Self is this node's advertised base URL, http://host[:port]; it
	// participates in rendezvous routing alongside the peers.
	Self string
	// Peers are the other replicas' base URLs, each http://host[:port].
	Peers []string
	// Registry is the local store replicated installs apply to.
	Registry *registry.Registry

	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 500ms).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-failure count that opens a peer's
	// breaker (default 3).
	FailThreshold int
	// AntiEntropyInterval is the digest-exchange period (default 5s).
	AntiEntropyInterval time.Duration
	// AttemptTimeout caps one forward attempt when the request carries no
	// deadline (default 2s); with a deadline the attempt budget is derived
	// from the time remaining.
	AttemptTimeout time.Duration
	// BackoffBase and BackoffMax bound the jittered exponential backoff
	// between forward retries and between broadcast attempts (defaults
	// 25ms and 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BroadcastAttempts is how many times one install broadcast is retried
	// per peer before being left to anti-entropy (default 4).
	BroadcastAttempts int
	// MaxForwardAttempts bounds how many distinct replicas one request is
	// offered before the node degrades to serving locally (default 3).
	MaxForwardAttempts int

	// Logger receives peer state transitions and sync errors (nil selects
	// slog.Default()).
	Logger *slog.Logger
	// Faults, when non-nil, arms the peer-facing injection points.
	Faults *faultinject.Faults
	// Seed fixes the backoff-jitter RNG for reproducible tests (0 selects
	// a time-derived seed).
	Seed int64
}

// Peer is one remote replica and its breaker state. All mutable fields
// are guarded by mu; the hot routing path takes it only for a few loads.
type Peer struct {
	url string

	mu        sync.Mutex
	state     State
	draining  bool
	notices   uint64 // drain notices applied, so a probe can tell it is stale
	fails     int
	lastProbe time.Time
	lastErr   string
}

// URL returns the peer's base URL.
func (p *Peer) URL() string { return p.url }

// routable reports whether traffic may be sent to the peer.
func (p *Peer) routable() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state != StateDown && !p.draining
}

// alive reports whether the peer answers probes (draining peers are alive
// but not routable).
func (p *Peer) alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state != StateDown
}

// recordSuccess advances the breaker on a successful probe, forward or
// install: down peers re-enter half-open, half-open peers are promoted to
// up. It returns the state transition, if any, for logging. It leaves the
// draining flag alone: only probes and drain notices set that.
func (p *Peer) recordSuccess() (from, to State, changed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	from = p.state
	p.fails = 0
	p.lastErr = ""
	switch p.state {
	case StateDown:
		p.state = StateHalfOpen
	case StateHalfOpen:
		p.state = StateUp
	}
	return from, p.state, p.state != from
}

// recordFailure advances the breaker on a failed probe or a transport-level
// forward failure. threshold is the consecutive-failure count that opens
// the breaker; a half-open peer re-opens on its first failure.
func (p *Peer) recordFailure(err error, threshold int) (from, to State, changed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	from = p.state
	p.fails++
	if err != nil {
		p.lastErr = err.Error()
	}
	if p.state == StateHalfOpen || p.fails >= threshold {
		p.state = StateDown
	}
	return from, p.state, p.state != from
}

// setDraining applies an explicit drain notice.
func (p *Peer) setDraining(d bool) {
	p.mu.Lock()
	p.draining = d
	p.notices++
	p.mu.Unlock()
}

// noticesSeen returns the count of drain notices applied so far.
func (p *Peer) noticesSeen() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.notices
}

// probeDraining applies a probe's readiness answer. sent is noticesSeen
// when the probe went out: a notice that landed since is newer than the
// answer, which the peer may have written before it started to drain.
func (p *Peer) probeDraining(draining bool, sent uint64) {
	p.mu.Lock()
	if p.notices == sent {
		p.draining = draining
	}
	p.mu.Unlock()
}

// status snapshots the peer for observability.
func (p *Peer) status() PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PeerStatus{
		URL:              p.url,
		State:            p.state.String(),
		Draining:         p.draining,
		ConsecutiveFails: p.fails,
		LastErr:          p.lastErr,
	}
	if !p.lastProbe.IsZero() {
		s.LastProbeAgoMs = time.Since(p.lastProbe).Milliseconds()
	}
	return s
}

// PeerStatus is one peer's observable state, for /statusz and /metrics.
type PeerStatus struct {
	URL              string `json:"url"`
	State            string `json:"state"`
	Draining         bool   `json:"draining"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	LastProbeAgoMs   int64  `json:"last_probe_ago_ms,omitempty"`
	LastErr          string `json:"last_err,omitempty"`
}

// Snapshot is the cluster's observable state: peer statuses plus the
// counters behind the rpcd_peer_up / rpcd_forward_* / rpcd_antientropy_*
// metric families.
type Snapshot struct {
	Self               string       `json:"self"`
	Peers              []PeerStatus `json:"peers"`
	PeersUp            int          `json:"peers_up"`
	Forwards           int64        `json:"forwards"`
	ForwardLocal       int64        `json:"forward_local"`
	ForwardRetries     int64        `json:"forward_retries"`
	ForwardShed        int64        `json:"forward_shed"`
	Broadcasts         int64        `json:"broadcasts"`
	BroadcastFailures  int64        `json:"broadcast_failures"`
	AntiEntropyPulls   int64        `json:"antientropy_pulls"`
	AntiEntropyRounds  int64        `json:"antientropy_rounds"`
	Probes             int64        `json:"probes"`
	DrainNoticesSent   int64        `json:"drain_notices_sent"`
	DrainNoticesRecvd  int64        `json:"drain_notices_received"`
	InstallsReplicated int64        `json:"installs_replicated"`
}

// Cluster is one node's view of the serving group. Create with New; it
// starts the probe and anti-entropy loops immediately and stops them on
// Close. All methods are safe for concurrent use.
type Cluster struct {
	opts   Options
	self   string
	peers  []*Peer
	reg    *registry.Registry
	client *http.Client
	logger *slog.Logger
	faults *faultinject.Faults

	// jitterMu guards rng: backoff jitter is off the request fast path.
	jitterMu sync.Mutex
	rng      *rand.Rand

	forwards          atomic.Int64
	forwardLocal      atomic.Int64
	forwardRetries    atomic.Int64
	forwardShed       atomic.Int64
	broadcasts        atomic.Int64
	broadcastFails    atomic.Int64
	antiEntropyPulls  atomic.Int64
	antiEntropyRounds atomic.Int64
	probes            atomic.Int64
	drainSent         atomic.Int64
	drainRecvd        atomic.Int64
	installsApplied   atomic.Int64

	// ctx cancels in-flight sync requests when the cluster closes, so
	// Close never waits out a broadcast's full attempt timeout.
	ctx      context.Context
	cancel   context.CancelFunc
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds the cluster view and starts its background loops. The node
// is a member of its own group: routing considers Self alongside Peers.
func New(opts Options) (*Cluster, error) {
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: Self URL is required")
	}
	if opts.Registry == nil {
		return nil, fmt.Errorf("cluster: Registry is required")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 500 * time.Millisecond
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.AntiEntropyInterval <= 0 {
		opts.AntiEntropyInterval = 5 * time.Second
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 2 * time.Second
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 25 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 250 * time.Millisecond
	}
	if opts.BroadcastAttempts <= 0 {
		opts.BroadcastAttempts = 4
	}
	if opts.MaxForwardAttempts <= 0 {
		opts.MaxForwardAttempts = 3
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	// A zero Transport, not http.DefaultTransport, which reads proxy
	// settings and shares its pool with the whole process.
	c := &Cluster{
		opts:   opts,
		self:   strings.TrimRight(opts.Self, "/"),
		reg:    opts.Registry,
		client: &http.Client{Transport: &http.Transport{}},
		logger: logger,
		faults: opts.Faults,
		rng:    rand.New(rand.NewSource(seed)),
		stop:   make(chan struct{}),
	}
	if err := checkURL("Self", opts.Self); err != nil {
		return nil, err
	}
	seen := map[string]bool{c.self: true}
	for _, u := range opts.Peers {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if err := checkURL("peer", u); err != nil {
			return nil, err
		}
		u = strings.TrimRight(u, "/")
		if seen[u] {
			continue // self-references and duplicates would double-count a member
		}
		seen[u] = true
		c.peers = append(c.peers, &Peer{url: u, state: StateUp})
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.wg.Add(2)
	go c.probeLoop()
	go c.antiEntropyLoop()
	return c, nil
}

// checkURL accepts a member's base URL only in the form http://host[:port]
// (trailing slashes aside): request paths are appended to it, and peers
// speak plain HTTP. A URL that is not would fail every request built from
// it, which the router counts as an unusable answer rather than a dead
// peer.
func checkURL(role, u string) error {
	p, err := url.Parse(u)
	if err != nil || p.Scheme != "http" || p.Hostname() == "" || p.Opaque != "" || p.User != nil ||
		strings.Trim(p.Path, "/") != "" || p.RawPath != "" || p.RawQuery != "" || p.ForceQuery || p.Fragment != "" {
		return fmt.Errorf("cluster: %s URL %q is not http://host[:port]", role, u)
	}
	return nil
}

// Close stops the probe and anti-entropy loops, cancels in-flight
// broadcasts, waits for all of them, and closes the idle peer connections.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.cancel()
	})
	c.wg.Wait()
	c.client.CloseIdleConnections()
}

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// PeerCounts returns how many peers are currently routable and the group's
// peer total — the /healthz readiness numbers.
func (c *Cluster) PeerCounts() (up, total int) {
	for _, p := range c.peers {
		if p.routable() {
			up++
		}
	}
	return up, len(c.peers)
}

// Snapshot captures the cluster's observable state.
func (c *Cluster) Snapshot() Snapshot {
	s := Snapshot{
		Self:               c.self,
		Peers:              make([]PeerStatus, 0, len(c.peers)),
		Forwards:           c.forwards.Load(),
		ForwardLocal:       c.forwardLocal.Load(),
		ForwardRetries:     c.forwardRetries.Load(),
		ForwardShed:        c.forwardShed.Load(),
		Broadcasts:         c.broadcasts.Load(),
		BroadcastFailures:  c.broadcastFails.Load(),
		AntiEntropyPulls:   c.antiEntropyPulls.Load(),
		AntiEntropyRounds:  c.antiEntropyRounds.Load(),
		Probes:             c.probes.Load(),
		DrainNoticesSent:   c.drainSent.Load(),
		DrainNoticesRecvd:  c.drainRecvd.Load(),
		InstallsReplicated: c.installsApplied.Load(),
	}
	for _, p := range c.peers {
		ps := p.status()
		s.Peers = append(s.Peers, ps)
		if ps.State != StateDown.String() && !ps.Draining {
			s.PeersUp++
		}
	}
	return s
}

// SetPeerDraining applies a drain notice from (or about) a peer: the peer
// leaves rotation immediately rather than on the next probe. Unknown URLs
// are ignored — a notice is advisory.
func (c *Cluster) SetPeerDraining(url string, draining bool) {
	url = strings.TrimRight(url, "/")
	c.drainRecvd.Add(1)
	for _, p := range c.peers {
		if p.url == url {
			p.setDraining(draining)
			c.logger.Info("cluster: peer drain notice", "peer", url, "draining", draining)
			return
		}
	}
}

// NotifyDraining announces this node's drain state to every peer so it
// leaves their rotations before shutdown checkpointing starts. Notices go
// out concurrently, each bounded by the probe timeout; a peer that misses
// the notice still learns from its next /healthz probe.
func (c *Cluster) NotifyDraining(draining bool) {
	body, _ := json.Marshal(DrainNotice{Peer: c.self, Draining: draining})
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+DrainingPath, strings.NewReader(string(body)))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := c.do(req)
			if err != nil {
				return
			}
			drainBody(resp)
			c.drainSent.Add(1)
		}(p)
	}
	wg.Wait()
}

// do issues one peer request through the shared client, firing the
// PeerDial and PeerRead injection points around it.
//
// Every peer request is idempotent — a score is a pure function of its
// body, installs apply once, and a drain notice sets a flag — so each is
// marked so: net/http then replays a POST that fails on a stale pooled
// connection before any answer byte, as it does a GET. The nil value
// marks the request without sending the header; every body is a bytes or
// strings reader, so GetBody is set and the body can be sent again.
func (c *Cluster) do(req *http.Request) (*http.Response, error) {
	if err := c.faults.Fire(faultinject.PointPeerDial); err != nil {
		return nil, err
	}
	req.Header["Idempotency-Key"] = nil
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	if err := c.faults.Fire(faultinject.PointPeerRead); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// drainBody discards (up to 1 MiB of) and closes a response body so the
// transport can reuse the connection.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// healthBody is the slice of the /healthz readiness body the prober cares
// about.
type healthBody struct {
	Draining bool `json:"draining"`
}

// probeLoop probes every peer each ProbeInterval, concurrently, and runs
// one immediate round at startup so a freshly-joined node has peer states
// before its first request.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	c.probeAll()
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			c.probe(p)
		}(p)
	}
	wg.Wait()
}

// probe runs one health check against a peer and advances its breaker.
// Any well-formed /healthz answer counts as alive — a 503 is how a
// draining node reports readiness, not a failure.
func (c *Cluster) probe(p *Peer) {
	c.probes.Add(1)
	sent := p.noticesSeen()
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+HealthPath, nil)
	if err != nil {
		c.peerFailed(p, err)
		return
	}
	resp, err := c.do(req)
	if err != nil {
		c.peerFailed(p, err)
		return
	}
	var h healthBody
	// Best-effort decode: the status code alone already settles liveness.
	json.NewDecoder(resp.Body).Decode(&h)
	drainBody(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		c.peerFailed(p, fmt.Errorf("healthz status %d", resp.StatusCode))
		return
	}
	// A 503 is how a draining node answers /healthz — an answering process,
	// not a dead one — so it leaves rotation without tripping the breaker,
	// even when the body predates the readiness fields.
	p.probeDraining(h.Draining || resp.StatusCode == http.StatusServiceUnavailable, sent)
	if from, to, changed := p.recordSuccess(); changed {
		c.logger.Info("cluster: peer state", "peer", p.url, "from", from.String(), "to", to.String())
	}
	// Stamped after the breaker update, so a non-zero lastProbe means the
	// probe's verdict has landed.
	p.mu.Lock()
	p.lastProbe = time.Now()
	p.mu.Unlock()
}

// peerFailed records a probe or transport failure against the breaker.
func (c *Cluster) peerFailed(p *Peer, err error) {
	p.mu.Lock()
	p.lastProbe = time.Now()
	p.mu.Unlock()
	if from, to, changed := p.recordFailure(err, c.opts.FailThreshold); changed {
		c.logger.Warn("cluster: peer state", "peer", p.url, "from", from.String(), "to", to.String(), "err", err)
	}
}

// backoff returns the jittered exponential delay before retry attempt
// (0-based), capped at BackoffMax: base·2^attempt scaled by a uniform
// [0.5, 1.5) jitter so synchronized retries from many nodes spread out.
func (c *Cluster) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase << uint(attempt)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	c.jitterMu.Lock()
	j := 0.5 + c.rng.Float64()
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * j)
}

// sleep waits d or until the cluster is closing.
func (c *Cluster) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.stop:
		return false
	case <-t.C:
		return true
	}
}
