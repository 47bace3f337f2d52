package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"rpcrank/internal/faultinject"
)

// maxSyncDoc bounds one replication document read (export or digest), so a
// misbehaving peer cannot balloon this node's memory.
const maxSyncDoc = 64 << 20

// BroadcastInstall replicates a locally-created rule to every peer,
// asynchronously: one goroutine per peer retries up to BroadcastAttempts
// times with jittered backoff and then gives up — a peer that stayed
// unreachable converges later through anti-entropy, which is the same
// document applied through the same idempotent InstallVersion path.
func (c *Cluster) BroadcastInstall(id string) {
	meta, model, err := c.reg.Export(id)
	if err != nil {
		c.logger.Warn("cluster: broadcast export failed", "id", id, "err", err)
		return
	}
	doc, err := json.Marshal(InstallDoc{Meta: meta, Model: model})
	if err != nil {
		c.logger.Warn("cluster: broadcast encode failed", "id", id, "err", err)
		return
	}
	for _, p := range c.peers {
		c.wg.Add(1)
		go func(p *Peer) {
			defer c.wg.Done()
			c.sendInstall(p, id, doc)
		}(p)
	}
}

// sendInstall pushes one install document to one peer, with retries. A
// 2xx answer is settled; anything else retries until the attempt budget
// runs out.
func (c *Cluster) sendInstall(p *Peer, id string, doc []byte) {
	for attempt := 0; attempt < c.opts.BroadcastAttempts; attempt++ {
		if attempt > 0 && !c.sleep(c.backoff(attempt-1)) {
			return // cluster closing
		}
		if err := c.faults.Fire(faultinject.PointBroadcastSend); err != nil {
			continue // a lost broadcast: no bytes reached the peer
		}
		ctx, cancel := context.WithTimeout(c.ctx, c.opts.AttemptTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+InstallPath, bytes.NewReader(doc))
		if err != nil {
			cancel()
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.do(req)
		if err != nil {
			cancel()
			c.peerFailed(p, err)
			continue
		}
		code := resp.StatusCode
		// Read the answer before cancelling: a cancelled request's
		// connection is closed rather than kept for the next one.
		drainBody(resp)
		cancel()
		if code >= 200 && code < 300 {
			p.recordSuccess()
			c.broadcasts.Add(1)
			return
		}
	}
	c.broadcastFails.Add(1)
	c.logger.Warn("cluster: broadcast gave up; anti-entropy will repair", "id", id, "peer", p.url)
}

// antiEntropyLoop periodically reconciles this node's rule set against
// every alive peer: fetch the peer's digest, pull any rule ID present
// there but missing here, and apply it through the idempotent install
// path. One loop period after a recovered replica answers probes again it
// holds every rule it missed while down.
func (c *Cluster) antiEntropyLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.antiEntropyRound()
		}
	}
}

// antiEntropyRound runs one digest exchange against every alive peer.
// Draining peers are included: they answer reads and may hold rules this
// node missed.
func (c *Cluster) antiEntropyRound() {
	c.antiEntropyRounds.Add(1)
	local := make(map[string]bool)
	for _, id := range c.reg.IDs() {
		local[id] = true
	}
	for _, p := range c.peers {
		if !p.alive() {
			continue
		}
		d, err := c.fetchDigest(p)
		if err != nil {
			c.peerFailed(p, err)
			continue
		}
		for _, id := range d.IDs {
			if local[id] {
				continue
			}
			if err := c.pull(p, id); err != nil {
				c.logger.Warn("cluster: anti-entropy pull failed", "id", id, "peer", p.url, "err", err)
				continue
			}
			local[id] = true // one pull per round even if several peers hold it
		}
	}
}

// fetchDigest asks one peer for its rule-ID digest.
func (c *Cluster) fetchDigest(p *Peer) (Digest, error) {
	ctx, cancel := context.WithTimeout(c.ctx, c.opts.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+DigestPath, nil)
	if err != nil {
		return Digest{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return Digest{}, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return Digest{}, fmt.Errorf("digest status %d", resp.StatusCode)
	}
	var d Digest
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSyncDoc)).Decode(&d); err != nil {
		return Digest{}, err
	}
	return d, nil
}

// pull fetches one rule's replication document from a peer and installs
// it locally. Installs are idempotent, so racing a concurrent broadcast
// of the same rule is harmless.
func (c *Cluster) pull(p *Peer, id string) error {
	ctx, cancel := context.WithTimeout(c.ctx, c.opts.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+ExportPath+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("export status %d", resp.StatusCode)
	}
	var doc InstallDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSyncDoc)).Decode(&doc); err != nil {
		return err
	}
	installed, err := c.ApplyInstall(doc)
	if err != nil {
		return err
	}
	if installed {
		c.antiEntropyPulls.Add(1)
		c.logger.Info("cluster: anti-entropy pulled rule", "id", id, "peer", p.url)
	}
	return nil
}

// ApplyInstall applies a replication document to the local registry —
// the one entry point for broadcasts received over /clusterz/install and
// for anti-entropy pulls, so both converge through the same idempotent,
// version-ordered path.
func (c *Cluster) ApplyInstall(doc InstallDoc) (installed bool, err error) {
	installed, err = c.reg.InstallVersion(doc.Meta, doc.Model)
	if installed {
		c.installsApplied.Add(1)
	}
	return installed, err
}
