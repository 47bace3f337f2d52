package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"time"
)

// rendezvousScore is highest-random-weight (rendezvous) hashing: every
// member scores each model independently (FNV-1a over member\x00model), the
// highest score owns it. Removing a member reassigns only the models it
// owned; every other (member, model) score is untouched — exactly the
// stability property a failing replica needs.
func rendezvousScore(member, model string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(member); i++ {
		h ^= uint64(member[i])
		h *= prime
	}
	h *= prime // separator step so "ab"+"c" and "a"+"bc" diverge
	for i := 0; i < len(model); i++ {
		h ^= uint64(model[i])
		h *= prime
	}
	return h
}

// candidate pairs a member with its score for one model. A nil peer is
// self.
type candidate struct {
	peer  *Peer
	score uint64
}

// rank orders the live members (self plus routable peers) for a model by
// descending rendezvous score: index 0 is the owner, the rest are the
// retry order.
func (c *Cluster) rank(modelID string) []candidate {
	cands := make([]candidate, 0, len(c.peers)+1)
	cands = append(cands, candidate{peer: nil, score: rendezvousScore(c.self, modelID)})
	for _, p := range c.peers {
		if p.routable() {
			cands = append(cands, candidate{peer: p, score: rendezvousScore(p.url, modelID)})
		}
	}
	// Insertion sort: the group is a handful of members.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].score > cands[j-1].score; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands
}

// ShouldForward reports whether a score/rank request for modelID is owned
// by a remote replica, so the caller knows to buffer the body and call
// Forward. With no routable peers it is always false — the node serves
// everything locally.
func (c *Cluster) ShouldForward(modelID string) bool {
	if len(c.peers) == 0 {
		return false
	}
	cands := c.rank(modelID)
	return cands[0].peer != nil
}

// CountLocal records a score/rank request for a peer-owned model that this
// node answered from its own resident copy instead of forwarding it.
func (c *Cluster) CountLocal() { c.forwardLocal.Add(1) }

// Owner returns the URL of the member that owns modelID under the current
// live set ("" for self). For tests and /statusz.
func (c *Cluster) Owner(modelID string) string {
	cands := c.rank(modelID)
	if cands[0].peer == nil {
		return ""
	}
	return cands[0].peer.url
}

// Forward routes one score/rank request through the serving group: it
// offers the request to the model's owner and then, on failure, to the
// next replicas in rendezvous order with capped jittered backoff between
// attempts. It reports true when a peer's response was written to w.
// False means the caller must serve the request locally — either self
// came up in the rendezvous order (normal sharding) or every candidate
// peer failed (graceful degradation, counted in ForwardShed).
//
// remaining is the request's unspent deadline budget (hasDeadline false
// when the client set none). Each attempt's timeout is carved from it —
// half of what is left, floored at 5ms — so a request with a deadline
// always keeps budget for the local fallback; without a deadline the
// per-attempt cap is AttemptTimeout.
func (c *Cluster) Forward(w http.ResponseWriter, r *http.Request, modelID string, body []byte, remaining time.Duration, hasDeadline bool) bool {
	cands := c.rank(modelID)
	if cands[0].peer == nil {
		return false
	}
	deadline := time.Now().Add(remaining)
	attempts := 0
	tried := false
	for _, cand := range cands {
		if cand.peer == nil {
			// Self's turn in the replica order: serve locally. Reaching
			// self after failed peers is a retry, not a degradation.
			return false
		}
		if attempts >= c.opts.MaxForwardAttempts {
			break
		}
		if attempts > 0 {
			c.forwardRetries.Add(1)
			wait := c.backoff(attempts - 1)
			if hasDeadline {
				if left := time.Until(deadline); wait > left/4 {
					wait = left / 4
				}
			}
			if wait > 0 {
				time.Sleep(wait)
			}
		}
		attempts++
		tried = true
		att := c.opts.AttemptTimeout
		if hasDeadline {
			left := time.Until(deadline)
			if left <= 10*time.Millisecond {
				// Too little budget to cross the network and still serve
				// locally; stop forwarding.
				break
			}
			if half := left / 2; half < att {
				att = half
			}
			if att < 5*time.Millisecond {
				att = 5 * time.Millisecond
			}
		}
		done, ok := c.forwardOnce(w, r, cand.peer, body, att, deadline, hasDeadline)
		if done {
			return true
		}
		if !ok {
			// Transport-level failure: advances the peer's breaker.
			continue
		}
	}
	if tried {
		c.forwardShed.Add(1)
	}
	return false
}

// retryableStatus reports whether a peer's response means "try another
// replica": overload, drain, server error, or a model the peer has not
// converged to yet. Everything else is a definitive answer worth relaying.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusNotFound:
		return true
	}
	return false
}

// forwardOnce sends the request to one peer. done reports that a response
// was relayed to the client; ok distinguishes a retryable peer answer
// (true) from a transport failure that should advance the breaker (false).
func (c *Cluster) forwardOnce(w http.ResponseWriter, r *http.Request, p *Peer, body []byte, attemptTimeout time.Duration, deadline time.Time, hasDeadline bool) (done, ok bool) {
	ctx, cancel := context.WithTimeout(r.Context(), attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false, true
	}
	req.Header.Set(ForwardedHeader, c.self)
	// The caller's own request ID (set on w by the server's instrumentation)
	// travels with the hop, so the owner can log the two as one request.
	if id := w.Header().Get("X-Request-Id"); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if hasDeadline {
		// Hand the peer the true remaining budget, not the original header:
		// time already burned here must not be double-spent there.
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.do(req)
	if err != nil {
		c.peerFailed(p, err)
		return false, false
	}
	if retryableStatus(resp.StatusCode) {
		drainBody(resp)
		// The peer answered — the breaker stays closed; only its answer
		// was unusable.
		return false, true
	}
	// Buffer the whole response before relaying a byte: a peer dying
	// mid-body must surface as a retry on the next replica, never as a
	// truncated 200 at the client.
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.peerFailed(p, err)
		return false, false
	}
	p.recordSuccess()
	// Counted before the answer is relayed, so a client holding the
	// answer sees the hop in the forwarder's stats.
	c.forwards.Add(1)
	h := w.Header()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	h.Set("Content-Length", strconv.Itoa(len(respBody)))
	h.Set(ServedByHeader, p.url)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
	return true, true
}
