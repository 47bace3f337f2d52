// Package registry is a concurrency-safe, versioned store of fitted RPC
// models. Each stored model is a named, immutable version of a ranking rule
// (the paper frames the fitted curve as exactly that: a reusable rule of
// 4·d parameters). Rules persist to a directory as JSON — the existing
// core.Model Save/Load format wrapped with registry metadata — written
// atomically (temp file + rename), so a crash never leaves a half-written
// rule. Metadata for every rule stays in memory; the decoded models
// themselves are kept in an LRU cache bounded by MaxLoaded so a registry
// serving thousands of rules does not hold them all resident.
package registry

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/internal/core"
)

// Meta is the registry's description of one stored ranking rule. It is
// what listing endpoints return: everything a client needs to pick a rule
// without loading it. Dim, Alpha, Degree and Monotone are the rule's shape:
// its control points and α fix them (meta-rule 5), so the registry derives
// them from the model (see shapeOf) and never takes them from a caller.
type Meta struct {
	// ID uniquely identifies this rule version, e.g. "wine-v3".
	ID string `json:"id"`
	// Name groups versions of the same logical rule.
	Name string `json:"name"`
	// Version is the 1-based version number within Name.
	Version int `json:"version"`
	// Dim is the attribute dimension d.
	Dim int `json:"dim"`
	// Alpha is the benefit/cost direction the rule was fitted with.
	Alpha []float64 `json:"alpha"`
	// Degree of the Bézier curve.
	Degree int `json:"degree"`
	// Rows is the number of training observations (0 for rules uploaded
	// as a saved file, where the training set is unknown).
	Rows int `json:"rows"`
	// ExplainedVariance is the fit quality of §6.2.1 (0 when unknown).
	ExplainedVariance float64 `json:"explained_variance"`
	// Monotone is Model.StrictlyMonotone of the rule: true when the exact
	// Bernstein certificate proves every coordinate strictly monotone in
	// its direction (Proposition 1), false when it refutes one or cannot
	// decide it (a derivative touching zero at an interior point).
	Monotone bool `json:"monotone"`
	// CreatedAt is the wall-clock time the rule entered the registry.
	CreatedAt time.Time `json:"created_at"`
	// Fit is the summary of the fit run that produced the rule: nil for
	// rules installed from a saved document (the rule payload itself stays
	// a pure serving artifact; diagnostics live only in this envelope).
	// Put stores it without the per-iteration trace, which only the fit
	// answer carries; records written before that keep their trace, and
	// replicate with it byte for byte.
	Fit *core.FitDiagnostics `json:"fit,omitempty"`
	// Persisted, when non-nil and false, marks a rule accepted in degraded
	// write mode: the disk write failed and the rule serves from memory
	// until a background retry lands it. nil (omitted) means durably
	// persisted — the normal case — so on-disk and replicated bytes are
	// unchanged for healthy records, and the flag clears once the retry
	// succeeds.
	Persisted *bool `json:"persisted,omitempty"`
}

// fileJSON is the on-disk envelope: metadata plus the exact byte output of
// core.Model.Save, so the rule payload stays readable by core.Load alone.
type fileJSON struct {
	Meta  Meta            `json:"meta"`
	Model json.RawMessage `json:"model"`
}

// DefaultMaxLoaded bounds the in-memory model cache when the caller passes
// a non-positive limit to Open.
const DefaultMaxLoaded = 128

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_.-]{0,63}$`)

// ValidName reports whether name is acceptable as a rule name. The name
// becomes part of a filename, so the alphabet is restricted — and kept
// lowercase, because on case-insensitive filesystems (macOS, Windows) two
// names differing only by case would share one physical file and silently
// overwrite each other.
func ValidName(name string) bool { return nameRE.MatchString(name) }

var idRE = regexp.MustCompile(`^([a-z0-9][a-z0-9_.-]*)-v([0-9]+)$`)

// parseID splits a rule ID of the form "<name>-v<version>".
func parseID(id string) (name string, version int, ok bool) {
	m := idRE.FindStringSubmatch(id)
	if m == nil {
		return "", 0, false
	}
	v, err := strconv.Atoi(m[2])
	if err != nil {
		return "", 0, false
	}
	return m[1], v, true
}

type cached struct {
	id    string
	model *core.Model
}

// Registry is the store. All methods are safe for concurrent use.
type Registry struct {
	dir       string
	maxLoaded int

	// putMu serialises writers (store, flushPending) so the version file
	// snapshots stay ordered; r.mu alone guards the in-memory maps and is
	// never held across disk I/O, keeping cached Gets fast while a rule is
	// written.
	putMu sync.Mutex

	mu       sync.Mutex
	metas    map[string]Meta          // id → meta, for every rule on disk
	versions map[string]int           // name → highest version ever issued
	cache    map[string]*list.Element // id → LRU element holding cached
	lru      *list.List               // front = most recently used
	skipped  []string                 // files Open could not index
	quar     map[string]string        // id (or filename) → why quarantined
	pending  map[string]*pendingWrite // id → degraded write awaiting disk
	legacy   map[string]bool          // id → format-v1 file awaiting rewrite

	tmpRemoved int // dead .tmp-* files swept by Open

	corruptTotal  atomic.Int64
	repairedTotal atomic.Int64
	degradedTotal atomic.Int64
	flushedTotal  atomic.Int64

	// Background flush of degraded writes (see durable.go). The goroutine
	// starts lazily on the first degraded write and stops at Close.
	retryEvery       time.Duration
	retryMaxAttempts int
	retryOnce        sync.Once
	stop             chan struct{}
	closeOnce        sync.Once

	// ioHook, when set, runs before each rule-file read ("read") or
	// persisted write ("write") and can veto it with an error. It exists
	// for fault injection — the chaos suite proves registry I/O failures
	// surface as request errors, not hung requests or corrupted state.
	ioHook atomic.Pointer[func(op string) error]
}

// SetIOHook installs (or, with nil, clears) the I/O fault hook. Safe to
// call concurrently with reads and writes.
func (r *Registry) SetIOHook(h func(op string) error) {
	if h == nil {
		r.ioHook.Store(nil)
		return
	}
	r.ioHook.Store(&h)
}

// fireIOHook runs the installed hook, if any, for the given operation.
func (r *Registry) fireIOHook(op string) error {
	if h := r.ioHook.Load(); h != nil {
		return (*h)(op)
	}
	return nil
}

// versionsFile records the highest version ever issued per name. Without
// it, deleting the newest version and restarting would recompute the
// counter from surviving files and re-issue an old ID for a new model —
// IDs must stay immutable, so the high-water mark is persisted.
const versionsFile = ".versions.json"

// Open creates dir if needed, runs an integrity scan over every record
// already present, and returns the registry. maxLoaded bounds how many
// decoded models stay in memory (≤ 0 selects DefaultMaxLoaded).
//
// The scan verifies each record's envelope (CRC64 for format-v2 files, a
// full model decode for legacy v1 files, which carry no checksum). Corrupt
// or foreign files are moved to <dir>/quarantine/ — never deleted — and
// reported via Skipped and Stats; their versions stay burned, so a
// quarantined wine-v3 can be restored byte-identical by a peer without any
// risk of a new model re-using its ID. A damaged file never prevents Open
// from succeeding and never loads as a model.
//
// A directory must be owned by exactly one Registry at a time: two
// instances over the same dir would fork the version counter and could
// issue the same rule ID twice. There is no cross-process lock yet.
func Open(dir string, maxLoaded int) (*Registry, error) {
	if maxLoaded <= 0 {
		maxLoaded = DefaultMaxLoaded
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
	}
	r := &Registry{
		dir:              dir,
		maxLoaded:        maxLoaded,
		metas:            make(map[string]Meta),
		versions:         make(map[string]int),
		cache:            make(map[string]*list.Element),
		lru:              list.New(),
		quar:             make(map[string]string),
		pending:          make(map[string]*pendingWrite),
		legacy:           make(map[string]bool),
		retryEvery:       defaultRetryInterval,
		retryMaxAttempts: defaultRetryMaxAttempts,
		stop:             make(chan struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") {
			// Leftover from an atomicWrite interrupted by a crash; the
			// rename never happened, so it is dead by construction.
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				r.tmpRemoved++
			}
			continue
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		// Bump the version counter from the filename alone, before trying
		// to parse the contents: even a corrupt wine-v3.json proves v3 was
		// issued, and re-issuing it would put a new model behind an old ID.
		if name, version, ok := parseID(strings.TrimSuffix(e.Name(), ".json")); ok && version > r.versions[name] {
			r.versions[name] = version
		}
		meta, format, err := readRecordMeta(filepath.Join(dir, e.Name()))
		if err != nil {
			// One damaged or foreign file must not take every healthy rule
			// offline. Structural corruption is quarantined (moved aside,
			// counted, repairable by a peer); an OS-level read error is
			// only recorded — the file may be fine once the disk recovers.
			if errors.Is(err, ErrCorrupt) {
				r.quarantineAtOpen(e.Name(), err)
			} else {
				r.skipped = append(r.skipped, fmt.Sprintf("%s: %v", e.Name(), err))
			}
			continue
		}
		if e.Name() != meta.ID+".json" {
			// A renamed or hand-copied file would be listed under an ID
			// whose path does not exist (or shadow a real rule).
			r.quarantineAtOpen(e.Name(), fmt.Errorf("%w: filename does not match rule id %q", ErrCorrupt, meta.ID))
			continue
		}
		r.metas[meta.ID] = meta
		if format == formatV1 {
			r.legacy[meta.ID] = true
		}
		if meta.Version > r.versions[meta.Name] {
			r.versions[meta.Name] = meta.Version
		}
	}
	// The persisted high-water marks win over the scan: a name whose
	// newest versions were deleted must not have its IDs re-issued. A
	// damaged control file is quarantined and the scan-derived marks stand
	// — strictly weaker information, but never a startup failure (and the
	// marks re-persist, checksummed, on the next Put or Sync).
	if raw, err := os.ReadFile(filepath.Join(dir, versionsFile)); err == nil {
		saved := make(map[string]int)
		payload, _, verr := openRecord(raw)
		if verr == nil {
			if uerr := json.Unmarshal(payload, &saved); uerr != nil {
				verr = fmt.Errorf("%w: %v", ErrCorrupt, uerr)
			}
		}
		if verr != nil {
			// Unlike a rule record, the control file is not repaired by a
			// peer — its content rebuilds from the scan — so it is moved
			// aside and counted but never sits in the awaiting-repair set,
			// and a fresh checksummed snapshot replaces it immediately.
			r.corruptTotal.Add(1)
			r.skipped = append(r.skipped, fmt.Sprintf("%s: quarantined: %v", versionsFile, verr))
			r.moveToQuarantine(versionsFile)
			if err := r.persistVersions(r.versions); err != nil {
				r.skipped = append(r.skipped, fmt.Sprintf("%s: rewrite after quarantine: %v", versionsFile, err))
			}
		} else {
			for name, v := range saved {
				if v > r.versions[name] {
					r.versions[name] = v
				}
			}
		}
	} else if !os.IsNotExist(err) {
		r.skipped = append(r.skipped, fmt.Sprintf("%s: %v", versionsFile, err))
	}
	return r, nil
}

// readRecordMeta verifies one record file and returns its metadata and
// envelope format. Format-v2 files are verified by checksum alone (the CRC
// proves the bytes are exactly what a writer persisted, and writers only
// persist validated models); legacy v1 files carry no checksum, so they
// are deep-verified by decoding the model payload. Corruption is reported
// as ErrCorrupt; other errors are OS-level read failures.
func readRecordMeta(path string) (Meta, recordFormat, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, 0, err
	}
	f, format, err := decodeRecord(raw)
	if err == nil && format == formatV1 {
		if _, lerr := core.Load(bytes.NewReader(f.Model)); lerr != nil {
			err = fmt.Errorf("%w: model payload: %v", ErrCorrupt, lerr)
		}
	}
	return f.Meta, format, err
}

// decodeRecord verifies a record's envelope and decodes its payload. Every
// failure is ErrCorrupt.
func decodeRecord(raw []byte) (fileJSON, recordFormat, error) {
	payload, format, err := openRecord(raw)
	if err != nil {
		return fileJSON{}, format, err
	}
	var f fileJSON
	if err := json.Unmarshal(payload, &f); err != nil {
		return fileJSON{}, format, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if f.Meta.ID == "" {
		return fileJSON{}, format, fmt.Errorf("%w: missing meta.id", ErrCorrupt)
	}
	return f, format, nil
}

// shapeOf returns meta with the fields its rule fixes — Dim, Degree, Alpha
// and Monotone — derived from m, and names the first stored value that
// disagreed ("" when all agreed).
func shapeOf(meta Meta, m *core.Model) (Meta, string) {
	dim, degree, monotone := m.Dim(), m.Curve.Degree(), m.StrictlyMonotone()
	var bad string
	switch {
	case meta.Dim != dim:
		bad = fmt.Sprintf("dim %d, rule has %d attributes", meta.Dim, dim)
	case meta.Degree != degree:
		bad = fmt.Sprintf("degree %d, rule has %d", meta.Degree, degree)
	case !slices.Equal(meta.Alpha, []float64(m.Alpha)):
		bad = fmt.Sprintf("alpha %v, rule has %v", meta.Alpha, m.Alpha)
	case meta.Monotone != monotone:
		bad = fmt.Sprintf("monotone %t, rule certifies %t", meta.Monotone, monotone)
	}
	meta.Dim, meta.Degree, meta.Monotone = dim, degree, monotone
	meta.Alpha = append([]float64{}, m.Alpha...)
	return meta, bad
}

// Dir returns the persistence directory.
func (r *Registry) Dir() string { return r.dir }

// Skipped lists files Open found in the directory but could not index
// (corrupt, truncated, or foreign — including files the integrity scan
// moved to quarantine), so callers can surface a warning.
func (r *Registry) Skipped() []string { return append([]string{}, r.skipped...) }

// Len returns the number of stored rules.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metas)
}

func (r *Registry) path(id string) string {
	return filepath.Join(r.dir, id+".json")
}

// Put stores m as the next version of name, persists it, and returns the
// assigned metadata, whose shape fields are derived from m. rows and
// explainedVariance describe the fit (pass 0 for rules whose training set
// is unknown). The record keeps m.FitDiag without its per-iteration trace.
// If a write fails the assigned version number is burned (never
// re-issued), leaving a gap rather than risking two models behind one ID.
func (r *Registry) Put(name string, m *core.Model, rows int, explainedVariance float64) (Meta, error) {
	if !ValidName(name) {
		return Meta{}, fmt.Errorf("registry: invalid rule name %q", name)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return Meta{}, fmt.Errorf("registry: serialising %s: %w", name, err)
	}
	meta, _ := shapeOf(Meta{
		Name:              name,
		Rows:              rows,
		ExplainedVariance: explainedVariance,
		CreatedAt:         time.Now().UTC(),
	}, m)
	if m.FitDiag != nil {
		fit := *m.FitDiag
		fit.Trace, fit.TraceTruncated = nil, false
		meta.Fit = &fit
	}
	meta, _, err := r.store(meta, buf.Bytes(), m)
	if err == nil && meta.Persisted == nil {
		// Amortised v1→v2 rewrite: each persisted Put upgrades a few
		// legacy files, so an old directory converges to checksummed
		// records without a stop-the-world migration.
		r.upgradeLegacy(4)
	}
	return meta, err
}

// store is the one write path of a rule record. A meta with Version 0 is
// a local Put and takes the name's next version; any other is a replicated
// install, a no-op (false) when its ID is already indexed. The
// version marks are reserved and snapshotted under the map lock; the disk
// I/O runs without it (under putMu), so scoring-path Gets never wait on a
// write. A failed write degrades to serving from memory.
func (r *Registry) store(meta Meta, rule json.RawMessage, m *core.Model) (Meta, bool, error) {
	r.putMu.Lock()
	defer r.putMu.Unlock()

	r.mu.Lock()
	if meta.Version == 0 {
		meta.Version = r.versions[meta.Name] + 1
		meta.ID = fmt.Sprintf("%s-v%d", meta.Name, meta.Version)
	} else if _, ok := r.metas[meta.ID]; ok {
		r.mu.Unlock()
		return meta, false, nil
	}
	r.versions[meta.Name] = max(r.versions[meta.Name], meta.Version)
	snapshot := maps.Clone(r.versions)
	r.mu.Unlock()

	payload, err := json.MarshalIndent(fileJSON{Meta: meta, Model: rule}, "", "  ")
	if err != nil {
		return Meta{}, false, fmt.Errorf("registry: encoding %s: %w", meta.ID, err)
	}
	werr := r.persistVersions(snapshot)
	if werr == nil {
		werr = atomicWrite(r.path(meta.ID), sealRecord(payload))
	}
	if werr != nil {
		// Degraded write mode: the model is valid, so a full disk or
		// failing device must not cost the caller the fit or the peer the
		// install. Serve from memory, flag the meta persisted:false, and
		// let the background retry land it.
		meta = r.degradeWrite(meta, payload)
	}

	// Cache a serving copy: a fitted model drags O(rows) training
	// diagnostics that scoring never reads, and the cache outlives the
	// request. A quarantined version re-installed from a peer is the
	// repair path completing: the same ID is back, byte-identical by
	// construction.
	r.mu.Lock()
	r.metas[meta.ID] = meta
	r.insertLocked(meta.ID, m.ServingCopy())
	r.markRepairedLocked(meta.ID)
	r.mu.Unlock()
	return meta, true, nil
}

// atomicWrite writes data to path via a temp file in the same directory and
// an os.Rename, so readers never observe a partial file.
func atomicWrite(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("registry: writing %s: %w", path, err)
	}
	// Sync before the rename: without it a power loss can persist the
	// rename but not the data, leaving a truncated rule behind.
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("registry: syncing %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("registry: closing %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("registry: installing %s: %w", path, err)
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// insertLocked adds (id, m) to the LRU cache, evicting the least recently
// used model if the cache is full. Caller holds r.mu.
func (r *Registry) insertLocked(id string, m *core.Model) {
	if el, ok := r.cache[id]; ok {
		r.lru.MoveToFront(el)
		el.Value = cached{id: id, model: m}
		return
	}
	r.cache[id] = r.lru.PushFront(cached{id: id, model: m})
	for r.lru.Len() > r.maxLoaded {
		oldest := r.lru.Back()
		r.lru.Remove(oldest)
		delete(r.cache, oldest.Value.(cached).id)
	}
}

// ErrNotFound is returned by Get and Delete for unknown rule IDs.
var ErrNotFound = fmt.Errorf("registry: rule not found")

// Get returns the rule with the given ID, loading it from disk if it is
// not resident. The returned model must be treated as read-only: it is
// shared between callers. A load checks the stored meta against the
// decoded model (see readRule): a wrong Dim quarantines the record, any
// other wrong shape field is replaced in the index by the derived value.
func (r *Registry) Get(id string) (*core.Model, Meta, error) {
	r.mu.Lock()
	meta, ok := r.metas[id]
	if !ok {
		r.mu.Unlock()
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if el, hit := r.cache[id]; hit {
		r.lru.MoveToFront(el)
		m := el.Value.(cached).model
		r.mu.Unlock()
		return m, meta, nil
	}
	r.mu.Unlock()

	// Load outside the lock: disk reads are slow and models are immutable,
	// so a racing duplicate load is harmless.
	_, m, err := r.readRule(id)
	if err != nil {
		return nil, Meta{}, err
	}
	shaped, bad := shapeOf(meta, m)
	r.mu.Lock()
	// Re-check the index: a Delete may have won the race while the file
	// was being read, and caching the model then would strand it in the
	// LRU (Delete's eviction already ran).
	if _, ok := r.metas[id]; !ok {
		r.mu.Unlock()
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if bad != "" {
		r.metas[id] = shaped
	}
	r.insertLocked(id, m)
	r.mu.Unlock()
	return m, shaped, nil
}

// readRule reads id's record and decodes its rule. A record whose rule no
// longer decodes, or whose meta.dim is not the rule's width, is quarantined
// and reported as ErrNotFound: the score path sizes rows by meta.Dim, so
// such a record could never score a row and never served one.
func (r *Registry) readRule(id string) (fileJSON, *core.Model, error) {
	f, err := r.readFileJSON(id)
	if err != nil {
		return fileJSON{}, nil, err
	}
	m, err := core.Load(bytes.NewReader(f.Model))
	if err != nil {
		err = fmt.Errorf("model payload: %v", err)
	} else if m.Dim() != f.Meta.Dim {
		err = fmt.Errorf("meta.dim %d, rule has %d attributes", f.Meta.Dim, m.Dim())
	}
	if err != nil {
		r.quarantineRecord(id, fmt.Errorf("%w: %v", ErrCorrupt, err))
		return fileJSON{}, nil, fmt.Errorf("%w: %q (quarantined: %v)", ErrNotFound, id, err)
	}
	return f, m, nil
}

// Resident returns the rule with the given ID if it is decoded in the LRU
// cache, and false otherwise. Unlike Get it never reads the disk and never
// promotes the entry, so asking leaves the eviction order as it was. The
// returned model is shared and read-only, as Get's is.
func (r *Registry) Resident(id string) (*core.Model, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.cache[id]; ok {
		return el.Value.(cached).model, true
	}
	return nil, false
}

// readFileJSON reads, verifies, and decodes a rule record after confirming
// the rule is still indexed. A rule in degraded write mode is served from
// its in-memory pending payload — the only copy there is. An ENOENT means
// Delete won the race since the index check, so it maps to ErrNotFound.
// A record that fails envelope verification or decoding is corrupt: it is
// quarantined on the spot (dropped from the index, moved aside, advertised
// as absent to peers so anti-entropy re-pulls it) and reported as
// ErrNotFound with the corruption detail attached — it must never load.
func (r *Registry) readFileJSON(id string) (fileJSON, error) {
	r.mu.Lock()
	_, ok := r.metas[id]
	pw := r.pending[id]
	r.mu.Unlock()
	if !ok {
		return fileJSON{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if pw != nil {
		// An unsealed payload decodes as a v1 record.
		f, _, err := decodeRecord(pw.payload)
		if err != nil {
			return fileJSON{}, fmt.Errorf("registry: decoding pending %s: %w", id, err)
		}
		return f, nil
	}
	if err := r.fireIOHook("read"); err != nil {
		return fileJSON{}, fmt.Errorf("registry: reading %s: %w", id, err)
	}
	raw, err := os.ReadFile(r.path(id))
	if os.IsNotExist(err) {
		return fileJSON{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if err != nil {
		return fileJSON{}, fmt.Errorf("registry: reading %s: %w", id, err)
	}
	f, _, err := decodeRecord(raw)
	if err != nil {
		r.quarantineRecord(id, err)
		return fileJSON{}, fmt.Errorf("%w: %q (quarantined: %v)", ErrNotFound, id, err)
	}
	return f, nil
}

// RuleDocument returns the raw saved-rule payload (the exact Model.Save
// bytes) of a rule, read straight from the file — no model decode, no
// cache churn. The document round-trips through core.Load and the
// install-rule path of the server.
func (r *Registry) RuleDocument(id string) (json.RawMessage, error) {
	f, err := r.readFileJSON(id)
	if err != nil {
		return nil, err
	}
	return f.Model, nil
}

// Export returns a rule's metadata and its raw saved-rule payload in one
// read — the transfer unit of replicated installs. The meta is the stored
// one with its shape fields derived from the rule, as Get derives them, so
// a peer's InstallVersion accepts it; a record whose Dim is wrong is
// quarantined instead of spread. An honest pair round-trips through
// InstallVersion on a peer registry to a byte-identical on-disk file (both
// sides marshal the same envelope the same way), including a record that
// still carries the fit trace.
func (r *Registry) Export(id string) (Meta, json.RawMessage, error) {
	f, m, err := r.readRule(id)
	if err != nil {
		return Meta{}, nil, err
	}
	meta, _ := shapeOf(f.Meta, m)
	return meta, f.Model, nil
}

// InstallVersion applies a replicated install: a rule whose identity —
// name, version, metadata — was assigned by another registry (a broadcast
// or an anti-entropy pull). A meta whose Dim, Degree, Alpha or Monotone
// disagrees with the rule is refused with an error naming the field. It is
// idempotent: an ID that is already indexed is a complete no-op, touching
// neither memory nor disk, so a duplicated broadcast leaves byte-for-byte
// identical state. It is ordered through the version high-water marks:
// installing name-vN raises the name's counter to at least N, so a later
// local Put can never re-issue a version this node first saw by
// replication, while an out-of-order older version (pulled after a newer
// one) still installs without regressing the counter. Returns
// installed=false for the no-op case.
func (r *Registry) InstallVersion(meta Meta, rule json.RawMessage) (bool, error) {
	if !ValidName(meta.Name) {
		return false, fmt.Errorf("registry: invalid rule name %q", meta.Name)
	}
	if meta.Version < 1 || meta.ID != fmt.Sprintf("%s-v%d", meta.Name, meta.Version) {
		return false, fmt.Errorf("registry: rule id %q does not match name %q version %d", meta.ID, meta.Name, meta.Version)
	}
	// Decode and check before taking any lock: a corrupt payload or a
	// meta that misstates its rule must not burn a version or touch state.
	m, err := core.Load(bytes.NewReader(rule))
	if err != nil {
		return false, fmt.Errorf("registry: installing %s: %w", meta.ID, err)
	}
	if _, bad := shapeOf(meta, m); bad != "" {
		return false, fmt.Errorf("registry: installing %s: meta %s", meta.ID, bad)
	}
	_, installed, err := r.store(meta, rule, m)
	return installed, err
}

// VersionDigest snapshots the per-name version high-water marks — the
// anti-entropy digest a peer compares against its own to find names it
// has fallen behind on.
func (r *Registry) VersionDigest() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.versions)
}

// IDs returns the IDs of every stored rule, unsorted.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metas))
	for id := range r.metas {
		out = append(out, id)
	}
	return out
}

// GetMeta returns the metadata of a rule without loading the model.
func (r *Registry) GetMeta(id string) (Meta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	meta, ok := r.metas[id]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return meta, nil
}

// List returns the metadata of every stored rule, sorted by name then
// version.
func (r *Registry) List() []Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Meta, 0, len(r.metas))
	for _, m := range r.metas {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Sync flushes the registry's durable state: the per-name version
// high-water marks re-persist with the same checksummed atomic-write
// discipline as Put, every degraded (memory-only) write is force-retried,
// and any remaining legacy v1 records rewrite to the checksummed envelope.
// A draining server calls it before exit so nothing accepted in degraded
// mode is lost to the shutdown if the disk has recovered. Returns the
// first write error if state is still unflushed (the in-memory registry
// remains intact either way).
func (r *Registry) Sync() error {
	remaining, err := r.flushPending(false)
	r.upgradeLegacy(-1)
	if err != nil {
		return err
	}
	if remaining > 0 {
		return fmt.Errorf("registry: %d degraded write(s) still unpersisted", remaining)
	}
	return nil
}

// Delete removes a rule from the registry and from disk. The in-memory
// index drops first and the file is unlinked outside the map lock, so a
// slow filesystem cannot stall the scoring path; if the unlink itself
// fails the rule is already unlisted and the error reports the orphaned
// file (a restart would re-index it).
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	if _, ok := r.metas[id]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r.forgetLocked(id)
	r.mu.Unlock()
	if err := os.Remove(r.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: deleting %s left an orphaned file: %w", id, err)
	}
	return nil
}

// forgetLocked drops id from the index, the cache and the pending and
// legacy sets; its version stays burned. Caller holds r.mu.
func (r *Registry) forgetLocked(id string) {
	delete(r.metas, id)
	delete(r.pending, id)
	delete(r.legacy, id)
	if el, ok := r.cache[id]; ok {
		r.lru.Remove(el)
		delete(r.cache, id)
	}
}
