package registry

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/order"
)

// fitTestModel fits a small deterministic RPC for store/reload tests.
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

var probeRows = [][]float64{
	{1.0, 1.5, 7.5}, {4.5, 4.4, 3.9}, {7.7, 7.5, 0.9},
}

func TestPutGetRoundTrip(t *testing.T) {
	reg, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "wine-v1" || meta.Version != 1 || meta.Dim != 3 {
		t.Errorf("unexpected meta: %+v", meta)
	}
	if !meta.Monotone {
		t.Errorf("cubic fit should be strictly monotone")
	}
	got, gotMeta, err := reg.Get("wine-v1")
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.ID != meta.ID {
		t.Errorf("meta mismatch: %q vs %q", gotMeta.ID, meta.ID)
	}
	for _, row := range probeRows {
		if got.Score(row) != m.Score(row) {
			t.Errorf("cached model scores differ for %v", row)
		}
	}
}

func TestVersionBumpAndList(t *testing.T) {
	reg, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	for i := 1; i <= 3; i++ {
		meta, err := reg.Put("wine", m, 8, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Version != i {
			t.Errorf("put %d assigned version %d", i, meta.Version)
		}
	}
	if _, err := reg.Put("beer", m, 8, 0.8); err != nil {
		t.Fatal(err)
	}
	list := reg.List()
	var ids []string
	for _, m := range list {
		ids = append(ids, m.ID)
	}
	want := "beer-v1 wine-v1 wine-v2 wine-v3"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("list order = %q, want %q", got, want)
	}
}

func TestReloadServesIdenticalScores(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	wantScores := make([]float64, len(probeRows))
	for i, row := range probeRows {
		wantScores[i] = m.Score(row)
	}

	// A second registry — a fresh process — must index the same rules and
	// serve byte-identical scores.
	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Len() != 1 {
		t.Fatalf("reloaded registry has %d rules, want 1", reg2.Len())
	}
	got, gotMeta, err := reg2.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.ExplainedVariance != meta.ExplainedVariance || !gotMeta.CreatedAt.Equal(meta.CreatedAt) {
		t.Errorf("reloaded meta differs: %+v vs %+v", gotMeta, meta)
	}
	for i, row := range probeRows {
		if s := got.Score(row); s != wantScores[i] {
			t.Errorf("row %d: reloaded score %v != original %v (diff %g)",
				i, s, wantScores[i], math.Abs(s-wantScores[i]))
		}
	}
	// Another version on the reloaded registry continues the sequence.
	meta2, err := reg2.Put("wine", m, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.ID != "wine-v2" {
		t.Errorf("post-reload version = %q, want wine-v2", meta2.ID)
	}
}

func TestDeletedVersionsNeverReissuedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	if _, err := reg.Put("wine", m, 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put("wine", m, 8, 0); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("wine-v2"); err != nil {
		t.Fatal(err)
	}
	// A restarted registry only sees wine-v1 on disk, but it must not hand
	// the retired ID wine-v2 to a different model.
	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg2.Put("wine", m, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "wine-v3" {
		t.Errorf("re-issued a deleted version: got %q, want wine-v3", meta.ID)
	}
}

func TestCorruptFileStillBurnsItsVersion(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	for i := 0; i < 2; i++ {
		if _, err := reg.Put("wine", m, 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a restore that lost the versions file and truncated the
	// newest rule: wine-v3 was issued, so it must never be re-minted.
	if err := os.WriteFile(filepath.Join(dir, "wine-v3.json"), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, versionsFile)); err != nil {
		t.Fatal(err)
	}
	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg2.Put("wine", m, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "wine-v4" {
		t.Errorf("corrupt wine-v3.json did not burn v3: new id %q, want wine-v4", meta.ID)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	if _, err := reg.Put("a", m, 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put("b", m, 8, 0); err != nil { // evicts a-v1
		t.Fatal(err)
	}
	if n := reg.lru.Len(); n != 1 {
		t.Fatalf("cache holds %d models, want 1", n)
	}
	// The evicted rule is still served — transparently reloaded from disk.
	got, _, err := reg.Get("a-v1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Score(probeRows[0]) != m.Score(probeRows[0]) {
		t.Errorf("evicted+reloaded model scores differ")
	}
}

// TestResidentLeavesEvictionOrder: Resident reports what the cache holds
// without reading the disk or promoting the entry, so the rule it was
// asked about is still the next one evicted; Get on the same rule would
// have saved it.
func TestResidentLeavesEvictionOrder(t *testing.T) {
	m := fitTestModel(t)
	for _, promote := range []bool{false, true} {
		reg, err := Open(t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b"} { // cache: b-v1, then a-v1
			if _, err := reg.Put(name, m, 8, 0); err != nil {
				t.Fatal(err)
			}
		}
		got, ok := reg.Resident("a-v1")
		if !ok || got.Score(probeRows[0]) != m.Score(probeRows[0]) {
			t.Fatalf("Resident(a-v1) = %v, %v; want the cached rule", got, ok)
		}
		if promote {
			if _, _, err := reg.Get("a-v1"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := reg.Put("c", m, 8, 0); err != nil { // evicts the back entry
			t.Fatal(err)
		}
		_, aKept := reg.Resident("a-v1")
		_, bKept := reg.Resident("b-v1")
		if aKept != promote || bKept == promote {
			t.Fatalf("promote=%v: after a third Put a-v1 resident %v, b-v1 resident %v", promote, aKept, bKept)
		}
		if _, ok := reg.Resident("nope-v1"); ok {
			t.Fatal("Resident reports an unknown rule")
		}
		if err := reg.Delete("c-v1"); err != nil {
			t.Fatal(err)
		}
		if _, ok := reg.Resident("c-v1"); ok {
			t.Fatal("Resident reports a deleted rule")
		}
	}
}

func TestInvalidNamesAndMissingRules(t *testing.T) {
	reg, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	// Uppercase is rejected too: on case-insensitive filesystems "Wine"
	// and "wine" would share one physical file.
	for _, bad := range []string{"", "../escape", "a b", strings.Repeat("x", 80), ".hidden", "Wine", "WINE-v1"} {
		if _, err := reg.Put(bad, m, 8, 0); err == nil {
			t.Errorf("Put(%q) should fail", bad)
		}
	}
	if _, _, err := reg.Get("nope-v1"); err == nil {
		t.Errorf("Get of unknown rule should fail")
	}
	if err := reg.Delete("nope-v1"); err == nil {
		t.Errorf("Delete of unknown rule should fail")
	}
}

func TestCorruptFileSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	if _, err := reg.Put("good", m, 8, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A renamed copy of a healthy rule must not be indexed under an ID
	// whose file path does not exist.
	orig, err := os.ReadFile(filepath.Join(dir, "good-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "backup.json"), orig, 0o644); err != nil {
		t.Fatal(err)
	}
	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("bad files must not fail Open: %v", err)
	}
	if reg2.Len() != 1 {
		t.Errorf("healthy rule not indexed (or stray file indexed): %d rules", reg2.Len())
	}
	skipped := strings.Join(reg2.Skipped(), "\n")
	if !strings.Contains(skipped, "junk.json") || !strings.Contains(skipped, "backup.json") {
		t.Errorf("skipped = %q, want junk.json and backup.json reported", skipped)
	}
	if _, _, err := reg2.Get("good-v1"); err != nil {
		t.Errorf("healthy rule unserveable: %v", err)
	}
}

func TestDeleteRemovesFile(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, meta.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("rule file still present after delete")
	}
	if reg.Len() != 0 {
		t.Errorf("registry still lists %d rules", reg.Len())
	}
	// No temp files left behind by the atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// diskState captures every file in a registry directory: name -> contents
// and modification time. Two captures being equal proves the directory was
// not rewritten between them, even with identical bytes.
func diskState(t *testing.T, dir string) map[string]struct {
	data  string
	mtime time.Time
} {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]struct {
		data  string
		mtime time.Time
	}, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = struct {
			data  string
			mtime time.Time
		}{string(raw), info.ModTime()}
	}
	return out
}

// TestInstallVersionDuplicateIsByteForByteNoOp pins the idempotency
// contract replication relies on: applying the same versioned install
// twice (a duplicated broadcast, or a broadcast racing an anti-entropy
// pull) must be a complete no-op the second time — same answer to every
// read, and the registry directory untouched down to file modification
// times.
func TestInstallVersionDuplicateIsByteForByteNoOp(t *testing.T) {
	src, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	meta, err := src.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	expMeta, rule, err := src.Export(meta.ID)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dst, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := dst.InstallVersion(expMeta, rule)
	if err != nil {
		t.Fatal(err)
	}
	if !installed {
		t.Fatal("first install reported no-op")
	}
	before := diskState(t, dir)
	digestBefore := dst.VersionDigest()

	// Give file mtimes room to differ if the duplicate were to rewrite
	// anything (mtime granularity can be coarse).
	time.Sleep(20 * time.Millisecond)

	installed, err = dst.InstallVersion(expMeta, rule)
	if err != nil {
		t.Fatalf("duplicate install: %v", err)
	}
	if installed {
		t.Fatal("duplicate install reported installed=true")
	}
	after := diskState(t, dir)
	if len(after) != len(before) {
		t.Fatalf("duplicate install changed the file set: %d -> %d files", len(before), len(after))
	}
	for name, b := range before {
		a, ok := after[name]
		if !ok {
			t.Fatalf("duplicate install removed %s", name)
		}
		if a.data != b.data {
			t.Errorf("duplicate install rewrote %s with different bytes", name)
		}
		if !a.mtime.Equal(b.mtime) {
			t.Errorf("duplicate install touched %s (mtime %v -> %v)", name, b.mtime, a.mtime)
		}
	}
	if got := dst.VersionDigest(); len(got) != len(digestBefore) || got["wine"] != digestBefore["wine"] {
		t.Errorf("duplicate install changed the version digest: %v -> %v", digestBefore, got)
	}

	// The served model still answers identically to the source.
	got, _, err := dst.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range probeRows {
		if got.Score(row) != m.Score(row) {
			t.Errorf("installed model scores differ for %v", row)
		}
	}
}

// TestInstallVersionRefusesMisstatedShape: a replicated meta whose Dim,
// Degree, Alpha or Monotone disagrees with its rule is refused with an
// error naming the field, and burns no version.
func TestInstallVersionRefusesMisstatedShape(t *testing.T) {
	src, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	meta, err := src.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	expMeta, rule, err := src.Export(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for field, edit := range map[string]func(m *Meta){
		"dim":      func(m *Meta) { m.Dim = 2 },
		"degree":   func(m *Meta) { m.Degree++ },
		"alpha":    func(m *Meta) { m.Alpha = []float64{1, 1, 1} },
		"monotone": func(m *Meta) { m.Monotone = !m.Monotone },
	} {
		lie := expMeta
		edit(&lie)
		if _, err := dst.InstallVersion(lie, rule); err == nil || !strings.Contains(err.Error(), "meta "+field) {
			t.Errorf("install with a wrong %s: err = %v, want one naming %s", field, err, field)
		}
	}
	if dst.Len() != 0 || dst.VersionDigest()["wine"] != 0 {
		t.Fatalf("refused installs left %d rules, mark %d", dst.Len(), dst.VersionDigest()["wine"])
	}
	if installed, err := dst.InstallVersion(expMeta, rule); err != nil || !installed {
		t.Fatalf("honest install: installed=%v err=%v", installed, err)
	}
}

// TestConcurrentPutRacingInstallVersion storms one name from both sides at
// once: local Puts minting new versions racing replicated installs of
// versions minted elsewhere. The contract under the race: the per-name
// high-water mark never regresses (sampled live), no version id is ever
// bound twice (a Put can never re-issue an installed version and an
// install of an id that exists is a no-op), and the final mark survives a
// reopen so a later Put cannot reuse anything either side issued.
func TestConcurrentPutRacingInstallVersion(t *testing.T) {
	const replicated = 12

	m := fitTestModel(t)
	src, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	type doc struct {
		meta Meta
		rule []byte
	}
	docs := make([]doc, 0, replicated)
	for i := 0; i < replicated; i++ {
		meta, err := src.Put("wine", m, 8, m.ExplainedVariance())
		if err != nil {
			t.Fatal(err)
		}
		expMeta, rule, err := src.Export(meta.ID)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc{meta: expMeta, rule: rule})
	}

	dir := t.TempDir()
	dst, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	var (
		wg       sync.WaitGroup
		putMetas = make([]Meta, 0, replicated)
		putMu    sync.Mutex
		stop     = make(chan struct{})
	)
	wg.Add(2)
	go func() { // local writer
		defer wg.Done()
		for i := 0; i < replicated; i++ {
			meta, err := dst.Put("wine", m, 8, m.ExplainedVariance())
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			putMu.Lock()
			putMetas = append(putMetas, meta)
			putMu.Unlock()
		}
	}()
	go func() { // replication applier, newest-first to force reordering
		defer wg.Done()
		for i := len(docs) - 1; i >= 0; i-- {
			if _, err := dst.InstallVersion(docs[i].meta, docs[i].rule); err != nil {
				t.Errorf("install %s: %v", docs[i].meta.ID, err)
				return
			}
		}
	}()
	// Live monotonicity sampler.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := dst.VersionDigest()["wine"]
			if v < last {
				t.Errorf("high-water mark regressed: %d -> %d", last, v)
				return
			}
			last = v
		}
	}()
	wg.Wait()
	close(stop)
	<-samplerDone

	// No version id issued twice by local Puts.
	seen := make(map[int]bool)
	final := dst.VersionDigest()["wine"]
	putMu.Lock()
	for _, pm := range putMetas {
		if seen[pm.Version] {
			t.Fatalf("version %d issued twice by Put", pm.Version)
		}
		seen[pm.Version] = true
		if pm.Version > final {
			t.Fatalf("Put issued v%d above the final mark %d", pm.Version, final)
		}
	}
	nPuts := len(putMetas)
	putMu.Unlock()
	if nPuts != replicated {
		t.Fatalf("only %d of %d Puts completed", nPuts, replicated)
	}
	// Both sides' versions fit under the final mark, and every version in
	// 1..final is bound to exactly one document on disk or pending none
	// (gaps are only legal above replicated when Puts interleaved early).
	if final < replicated {
		t.Fatalf("final mark %d below replicated count %d", final, replicated)
	}

	// The mark survives a reopen and the next Put mints a fresh version.
	dst.Close()
	reopened, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.VersionDigest()["wine"]; got != final {
		t.Fatalf("reopened mark = %d, want %d", got, final)
	}
	next, err := reopened.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != final+1 {
		t.Fatalf("post-reopen Put got v%d, want v%d", next.Version, final+1)
	}
}
