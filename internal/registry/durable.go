// Durability machinery: corruption quarantine, degraded (memory-only)
// writes with bounded background retry, and the Stats surface the server
// exposes through /healthz, /statusz, and /metrics.
package registry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// quarantineDirName is the subdirectory corrupt records are moved to.
// Quarantine never deletes: a damaged file may still hold forensically
// useful bytes, and the move alone is enough to stop it from loading.
const quarantineDirName = "quarantine"

// Defaults for the background flush of degraded writes.
const (
	defaultRetryInterval = 2 * time.Second
	// defaultRetryMaxAttempts bounds how often the background loop retries
	// one pending record before giving up on it (an explicit Sync or
	// FlushPending still retries everything). At the default interval this
	// is about two minutes of automatic retry per record.
	defaultRetryMaxAttempts = 60
)

// pendingWrite is a record accepted in degraded mode: the disk write
// failed (ENOSPC, EIO, injected fault) but the model itself is valid, so
// it serves from memory until a retry lands it on disk.
type pendingWrite struct {
	meta     Meta   // clean meta, exactly as it will appear on disk
	payload  []byte // unsealed fileJSON payload (sealed at write time)
	attempts int    // background flush attempts so far
}

// Stats is a snapshot of the registry's durability state.
type Stats struct {
	// Quarantined counts records currently in quarantine and not yet
	// repaired (by a peer re-install or an operator).
	Quarantined int `json:"quarantined"`
	// QuarantinedIDs lists them, sorted; entries that never parsed to a
	// rule ID appear under their filename.
	QuarantinedIDs []string `json:"quarantined_ids,omitempty"`
	// CorruptTotal counts every record ever quarantined (at Open or at
	// read time) over this registry's lifetime.
	CorruptTotal int64 `json:"corrupt_total"`
	// RepairedTotal counts quarantined versions restored by a later
	// InstallVersion (the anti-entropy repair path).
	RepairedTotal int64 `json:"repaired_total"`
	// DegradedWritesTotal counts Put/InstallVersion calls that fell back
	// to serve-from-memory because the disk write failed.
	DegradedWritesTotal int64 `json:"degraded_writes_total"`
	// FlushedWritesTotal counts degraded records later persisted.
	FlushedWritesTotal int64 `json:"flushed_writes_total"`
	// PendingWrites counts records currently memory-only.
	PendingWrites int `json:"pending_writes"`
	// TmpFilesRemoved counts dead .tmp-* files Open swept away.
	TmpFilesRemoved int `json:"tmp_files_removed"`
	// LegacyRecords counts format-v1 files awaiting their lazy rewrite.
	LegacyRecords int `json:"legacy_records"`
}

// OK reports whether the store is fully durable right now: nothing
// quarantined awaiting repair and nothing waiting to reach disk.
func (s Stats) OK() bool { return s.Quarantined == 0 && s.PendingWrites == 0 }

// Stats returns a consistent snapshot of the durability counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	ids := make([]string, 0, len(r.quar))
	for id := range r.quar {
		ids = append(ids, id)
	}
	pending := len(r.pending)
	legacy := len(r.legacy)
	r.mu.Unlock()
	sort.Strings(ids)
	return Stats{
		Quarantined:         len(ids),
		QuarantinedIDs:      ids,
		CorruptTotal:        r.corruptTotal.Load(),
		RepairedTotal:       r.repairedTotal.Load(),
		DegradedWritesTotal: r.degradedTotal.Load(),
		FlushedWritesTotal:  r.flushedTotal.Load(),
		PendingWrites:       pending,
		TmpFilesRemoved:     r.tmpRemoved,
		LegacyRecords:       legacy,
	}
}

// moveToQuarantine relocates a file from the registry dir into
// <dir>/quarantine/, never overwriting an earlier quarantined file of the
// same name. Best-effort: a failed move leaves the file where it is (it is
// already dropped from the index, so it cannot load).
func (r *Registry) moveToQuarantine(name string) {
	qdir := filepath.Join(r.dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, name)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
	}
	os.Rename(filepath.Join(r.dir, name), dst)
}

// quarantineAtOpen handles a corrupt record found by the startup scan:
// move the file aside, remember it as damaged, and record it in the
// skipped report. Runs single-threaded (inside Open), no locking needed.
func (r *Registry) quarantineAtOpen(name string, reason error) {
	r.quar[strings.TrimSuffix(name, ".json")] = reason.Error()
	r.corruptTotal.Add(1)
	r.skipped = append(r.skipped, fmt.Sprintf("%s: quarantined: %v", name, reason))
	r.moveToQuarantine(name)
}

// quarantineRecord handles corruption detected at read time, after Open:
// drop the rule from the index and cache (its version stays burned), move
// the file aside, and count it. Safe under concurrent Gets — the first
// caller wins, later callers see the rule already gone.
func (r *Registry) quarantineRecord(id string, reason error) {
	r.mu.Lock()
	if _, ok := r.metas[id]; !ok {
		r.mu.Unlock()
		return
	}
	r.forgetLocked(id)
	r.quar[id] = reason.Error()
	r.mu.Unlock()
	r.corruptTotal.Add(1)
	r.moveToQuarantine(id + ".json")
	slog.Default().Warn("registry: quarantined corrupt record; anti-entropy will re-pull it from a peer",
		"id", id, "reason", reason.Error())
}

// markRepairedLocked clears a rule's quarantine entry after a successful
// re-install of the same ID — the peer-repair path. Caller holds r.mu.
func (r *Registry) markRepairedLocked(id string) {
	if _, ok := r.quar[id]; ok {
		delete(r.quar, id)
		r.repairedTotal.Add(1)
	}
}

// degradeWrite queues a record whose disk write failed for background
// retry. meta and payload carry the clean (unflagged) form that will
// eventually land on disk; the returned meta is flagged persisted:false,
// for store to index and hand out until a retry lands the record.
func (r *Registry) degradeWrite(meta Meta, payload []byte) Meta {
	r.mu.Lock()
	r.pending[meta.ID] = &pendingWrite{meta: meta, payload: payload}
	r.mu.Unlock()
	r.degradedTotal.Add(1)
	r.startRetry()
	f := false
	meta.Persisted = &f
	return meta
}

// startRetry launches the background flush goroutine on first use. It
// lives until Close; registries that never degrade never start it.
func (r *Registry) startRetry() {
	r.retryOnce.Do(func() {
		go func() {
			t := time.NewTicker(r.retryEvery)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					r.retryTick()
				}
			}
		}()
	})
}

// retryTick is one background pass: flush pending records that still have
// attempt budget. Skips all work when nothing is pending.
func (r *Registry) retryTick() {
	r.mu.Lock()
	n := len(r.pending)
	r.mu.Unlock()
	if n == 0 {
		return
	}
	r.flushPending(true)
}

// FlushPending force-retries every memory-only record (ignoring the
// background attempt budget) and reports how many remain unpersisted.
func (r *Registry) FlushPending() int {
	remaining, _ := r.flushPending(false)
	return remaining
}

// flushPending re-persists the versions snapshot and every pending record
// whose budget allows (budgeted=false retries all). It serialises with
// Put/InstallVersion through putMu and never holds r.mu across disk I/O.
func (r *Registry) flushPending(budgeted bool) (remaining int, firstErr error) {
	r.putMu.Lock()
	defer r.putMu.Unlock()

	r.mu.Lock()
	snapshot := maps.Clone(r.versions)
	ids := make([]string, 0, len(r.pending))
	for id := range r.pending {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)

	if err := r.persistVersions(snapshot); err != nil {
		r.mu.Lock()
		remaining = len(r.pending)
		r.mu.Unlock()
		return remaining, err
	}

	for _, id := range ids {
		r.mu.Lock()
		pw, ok := r.pending[id]
		if ok && budgeted && pw.attempts >= r.retryMaxAttempts {
			ok = false // out of budget; only an explicit flush retries it
		}
		if ok {
			pw.attempts++
		}
		r.mu.Unlock()
		if !ok {
			continue
		}
		err := r.fireIOHook("write")
		if err == nil {
			err = atomicWrite(r.path(id), sealRecord(pw.payload))
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.mu.Lock()
		if _, still := r.pending[id]; !still {
			// A Delete raced the write; the index already dropped the
			// rule, so take the freshly written file back off disk.
			r.mu.Unlock()
			os.Remove(r.path(id))
			continue
		}
		delete(r.pending, id)
		if _, indexed := r.metas[id]; indexed {
			r.metas[id] = pw.meta // clear the persisted:false flag
		}
		r.mu.Unlock()
		r.flushedTotal.Add(1)
	}

	r.mu.Lock()
	remaining = len(r.pending)
	r.mu.Unlock()
	return remaining, firstErr
}

// persistVersions seals and writes the high-water-mark snapshot.
func (r *Registry) persistVersions(snapshot map[string]int) error {
	payload, err := json.Marshal(snapshot)
	if err != nil {
		return fmt.Errorf("registry: encoding %s: %w", versionsFile, err)
	}
	if err := r.fireIOHook("write"); err != nil {
		return fmt.Errorf("registry: writing %s: %w", versionsFile, err)
	}
	return atomicWrite(filepath.Join(r.dir, versionsFile), sealRecord(payload))
}

// upgradeLegacy rewrites up to max (all if max < 0) format-v1 files into
// the checksummed v2 envelope. Maintenance work: failures are left for the
// next pass, and the rewrite races harmlessly with readers because
// atomicWrite installs complete files only.
func (r *Registry) upgradeLegacy(max int) {
	r.mu.Lock()
	ids := make([]string, 0, len(r.legacy))
	for id := range r.legacy {
		if max >= 0 && len(ids) >= max {
			break
		}
		ids = append(ids, id)
	}
	r.mu.Unlock()
	for _, id := range ids {
		raw, err := os.ReadFile(r.path(id))
		if err != nil {
			if os.IsNotExist(err) {
				// Deleted since Open; nothing left to upgrade.
				r.mu.Lock()
				delete(r.legacy, id)
				r.mu.Unlock()
			}
			continue
		}
		payload, format, err := openRecord(raw)
		if err != nil {
			continue // corrupted since the scan; the read path quarantines
		}
		if format == formatV2 || atomicWrite(r.path(id), sealRecord(payload)) == nil {
			r.mu.Lock()
			delete(r.legacy, id)
			r.mu.Unlock()
		}
	}
}

// Close stops the background flush goroutine. It does not flush — call
// Sync first if pending writes should reach disk. Safe to call more than
// once and safe on registries that never degraded.
func (r *Registry) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
}
