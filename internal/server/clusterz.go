package server

import (
	"bytes"
	"io"
	"net/http"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/core"
)

// This file wires the serving group (internal/cluster) into the HTTP
// surface: the /clusterz replication endpoints peers talk to, and the
// forwarding hook the score/rank handlers call when the node is a group
// member. Every handler here works with a nil cluster too — the digest
// and export endpoints are registry-backed, so a single node can still
// seed a group that is formed around it later.

// maybeForward routes a score/rank request through the serving group, if
// the node is a member, when its model is owned by a remote replica. It reports done when the request
// was fully answered (a peer's response was relayed, or reading the body
// failed). Otherwise the caller serves it locally: from resident when that
// is non-nil, through the registry when this node owns the model or every
// candidate peer failed (graceful degradation). Requests that already
// crossed one hop are always served locally, so a routing disagreement
// between replicas can never loop.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request) (done bool, resident *core.Model) {
	if s.cluster == nil || forwarded(r) {
		return false, nil
	}
	id := r.PathValue("id")
	if !s.cluster.ShouldForward(id) {
		return false, nil
	}
	// A non-owner's answer names who computed it: this node, unless a
	// relay below replaces the name with the peer's.
	w.Header().Set(cluster.ServedByHeader, s.cluster.Self())
	// A rule this node holds decoded is served here, and only a miss takes
	// the hop. An id names one immutable version, so the resident copy is
	// the owner's rule bit for bit. Resident does not promote the entry,
	// and the handler does not call reg.Get for it, so which rules stay
	// cached is still decided by the requests this node owns.
	if m, ok := s.reg.Resident(id); ok {
		s.cluster.CountLocal()
		return false, m
	}
	// The body is buffered up front (through the installed limiter, so the
	// MaxBodyBytes cap holds) because a retry must replay it to the next
	// replica.
	body, err := readBody(r, s.opts.MaxBodyBytes, getBuf(&bodyPool))
	if err != nil {
		putBuf(&bodyPool, body)
		writeError(w, err)
		return true, nil
	}
	var remaining time.Duration
	dl, hasDeadline := r.Context().Deadline()
	if hasDeadline {
		remaining = time.Until(dl)
	}
	if s.cluster.Forward(w, r, id, body, remaining, hasDeadline) {
		putBuf(&bodyPool, body)
		return true, nil
	}
	// Local fallback: hand the handler the buffered body. The buffer is
	// deliberately not repooled — the reader escapes into the handler, and
	// degraded-path requests are rare enough to leave to the collector.
	r.Body = io.NopCloser(bytes.NewReader(body))
	return false, nil
}

// handleClusterInstall serves POST /clusterz/install: a peer replicating a
// versioned rule install. Application is idempotent and version-ordered
// (registry.InstallVersion), so replayed broadcasts and anti-entropy races
// are harmless.
func (s *Server) handleClusterInstall(w http.ResponseWriter, r *http.Request) {
	var doc cluster.InstallDoc
	if err := decodeJSON(r.Body, &doc); err != nil {
		writeError(w, err)
		return
	}
	var installed bool
	var err error
	if s.cluster != nil {
		installed, err = s.cluster.ApplyInstall(doc)
	} else {
		installed, err = s.reg.InstallVersion(doc.Meta, doc.Model)
	}
	if err != nil {
		writeError(w, badRequest("install rejected: %v", err))
		return
	}
	// Report whether the rule reached disk: a degraded (memory-only)
	// accept carries persisted:false in the stored meta until the
	// background flush lands it.
	persisted := true
	if meta, merr := s.reg.GetMeta(doc.Meta.ID); merr == nil && meta.Persisted != nil {
		persisted = *meta.Persisted
	}
	writeJSON(w, http.StatusOK, cluster.InstallResult{Installed: installed, Persisted: persisted})
}

// handleClusterDigest serves GET /clusterz/digest, the anti-entropy
// exchange unit: stored rule IDs plus per-name version high-water marks.
func (s *Server) handleClusterDigest(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, cluster.Digest{
		IDs:      s.reg.IDs(),
		Versions: s.reg.VersionDigest(),
	})
}

// handleClusterExport serves GET /clusterz/export/{id}: one rule's full
// replication document, for anti-entropy pulls.
func (s *Server) handleClusterExport(w http.ResponseWriter, r *http.Request) {
	meta, model, err := s.reg.Export(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.InstallDoc{Meta: meta, Model: model})
}

// handleClusterDraining serves POST /clusterz/draining: a peer announcing
// its own drain transition, so this node drops it from rotation before the
// next probe would notice.
func (s *Server) handleClusterDraining(w http.ResponseWriter, r *http.Request) {
	var n cluster.DrainNotice
	if err := decodeJSON(r.Body, &n); err != nil {
		writeError(w, err)
		return
	}
	if s.cluster != nil {
		s.cluster.SetPeerDraining(n.Peer, n.Draining)
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{OK: true})
}

// clusterzState answers GET /clusterz.
type clusterzState struct {
	Enabled bool              `json:"enabled"`
	Cluster *cluster.Snapshot `json:"cluster,omitempty"`
}

// handleClusterz serves GET /clusterz, the group's observable state.
func (s *Server) handleClusterz(w http.ResponseWriter, _ *http.Request) {
	st := clusterzState{Enabled: s.cluster != nil}
	if s.cluster != nil {
		snap := s.cluster.Snapshot()
		st.Cluster = &snap
	}
	writeJSON(w, http.StatusOK, st)
}
