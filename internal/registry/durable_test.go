package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcrank/internal/core"
)

// corruptFile flips one byte in the middle of a file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenQuarantinesBitRot(t *testing.T) {
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
	if _, err := reg.Put("beer", m, 8, m.ExplainedVariance()); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	corruptFile(t, filepath.Join(dir, meta.ID+".json"))

	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("open over damaged dir: %v", err)
	}
	defer reg2.Close()
	// The damaged record must not load…
	if _, _, err := reg2.Get(meta.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt record loaded: err = %v", err)
	}
	// …the healthy one must…
	if _, _, err := reg2.Get("beer-v1"); err != nil {
		t.Fatalf("healthy record: %v", err)
	}
	// …the file moved to quarantine, not deleted…
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, meta.ID+".json")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, meta.ID+".json")); !os.IsNotExist(err) {
		t.Fatal("damaged file still in the registry dir")
	}
	// …its version stays burned…
	if got := reg2.VersionDigest()["wine"]; got != 1 {
		t.Fatalf("wine high-water mark = %d, want 1", got)
	}
	// …and the stats say so.
	st := reg2.Stats()
	if st.Quarantined != 1 || st.CorruptTotal != 1 || st.OK() {
		t.Fatalf("stats = %+v, want 1 quarantined, not OK", st)
	}
	if len(st.QuarantinedIDs) != 1 || st.QuarantinedIDs[0] != meta.ID {
		t.Fatalf("QuarantinedIDs = %v", st.QuarantinedIDs)
	}
	// A peer re-install of the same version repairs it.
	// (Re-fit deterministically: same seed, same rows.)
	srcDir := t.TempDir()
	src, err := Open(srcDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	srcMeta, err := src.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	expMeta, rule, err := src.Export(srcMeta.ID)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := reg2.InstallVersion(expMeta, rule)
	if err != nil || !installed {
		t.Fatalf("repair install: installed=%v err=%v", installed, err)
	}
	st = reg2.Stats()
	if st.Quarantined != 0 || st.RepairedTotal != 1 || !st.OK() {
		t.Fatalf("stats after repair = %+v", st)
	}
	// Byte-identical restoration: the repaired file matches the source's.
	want, err := os.ReadFile(filepath.Join(srcDir, srcMeta.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, meta.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatal("repaired file is not byte-identical to the source")
	}
}

func TestReadTimeCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	// Rot the file after Open, then force a disk read via RuleDocument
	// (which never serves from the model cache).
	corruptFile(t, filepath.Join(dir, meta.ID+".json"))
	if _, err := reg.RuleDocument(meta.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt read: err = %v, want ErrNotFound", err)
	}
	st := reg.Stats()
	if st.Quarantined != 1 || st.CorruptTotal != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, meta.ID+".json")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// The id is gone from the index — peers see it absent in IDs() and
	// anti-entropy will re-pull it.
	for _, id := range reg.IDs() {
		if id == meta.ID {
			t.Fatal("quarantined id still advertised")
		}
	}
	// The burned version survives: a new Put gets v2, never v1 again.
	meta2, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Version != 2 {
		t.Fatalf("post-quarantine Put got version %d, want 2", meta2.Version)
	}
}

func TestCorruptVersionsFileDoesNotPreventStartup(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	if _, err := reg.Put("wine", m, 8, m.ExplainedVariance()); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	corruptFile(t, filepath.Join(dir, versionsFile))

	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("open with corrupt control file: %v", err)
	}
	defer reg2.Close()
	// Marks fall back to the scan, the damaged control file is
	// quarantined, and the registry still serves.
	if got := reg2.VersionDigest()["wine"]; got != 1 {
		t.Fatalf("high-water mark = %d, want 1", got)
	}
	if _, _, err := reg2.Get("wine-v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, versionsFile)); err != nil {
		t.Fatalf("control file not quarantined: %v", err)
	}
	// The next Put re-persists checksummed marks and survives a reopen.
	if _, err := reg2.Put("wine", m, 8, m.ExplainedVariance()); err != nil {
		t.Fatal(err)
	}
	reg3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	if got := reg3.VersionDigest()["wine"]; got != 2 {
		t.Fatalf("reopened high-water mark = %d, want 2", got)
	}
}

func TestDegradedWriteServesFromMemoryAndFlushes(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	reg.retryEvery = time.Hour // keep the background loop out of the test

	var failing sync.Map
	failing.Store("on", true)
	reg.SetIOHook(func(op string) error {
		if _, on := failing.Load("on"); on && op == "write" {
			return fmt.Errorf("injected ENOSPC")
		}
		return nil
	})

	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatalf("degraded Put must succeed, got %v", err)
	}
	if meta.Persisted == nil || *meta.Persisted {
		t.Fatal("degraded Put did not flag persisted:false")
	}
	if _, err := os.Stat(filepath.Join(dir, meta.ID+".json")); !os.IsNotExist(err) {
		t.Fatal("degraded Put wrote a file")
	}
	st := reg.Stats()
	if st.DegradedWritesTotal != 1 || st.PendingWrites != 1 || st.OK() {
		t.Fatalf("stats = %+v", st)
	}

	// The rule serves from memory: Get, GetMeta, and the replication read
	// path (Export) all work, and Export hands out the clean meta.
	if _, _, err := reg.Get(meta.ID); err != nil {
		t.Fatalf("get degraded rule: %v", err)
	}
	expMeta, rule, err := reg.Export(meta.ID)
	if err != nil {
		t.Fatalf("export degraded rule: %v", err)
	}
	if expMeta.Persisted != nil {
		t.Fatal("exported meta carries the degraded marker")
	}
	if len(rule) == 0 {
		t.Fatal("exported empty rule")
	}

	// Sync with the fault still armed reports failure but keeps serving.
	if err := reg.Sync(); err == nil {
		t.Fatal("Sync with armed fault reported success")
	}

	// Disk recovers: FlushPending lands the bytes and clears the flag.
	failing.Delete("on")
	if remaining := reg.FlushPending(); remaining != 0 {
		t.Fatalf("FlushPending left %d pending", remaining)
	}
	st = reg.Stats()
	if st.PendingWrites != 0 || st.FlushedWritesTotal != 1 || !st.OK() {
		t.Fatalf("stats after flush = %+v", st)
	}
	gotMeta, err := reg.GetMeta(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Persisted != nil {
		t.Fatal("persisted flag not cleared after flush")
	}
	// The flushed file is a valid sealed record and survives reopen.
	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if _, _, err := reg2.Get(meta.ID); err != nil {
		t.Fatalf("reopened flushed rule: %v", err)
	}
}

func TestBackgroundRetryFlushesWithoutExplicitSync(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	reg.retryEvery = 5 * time.Millisecond

	var mu sync.Mutex
	armed := true
	reg.SetIOHook(func(op string) error {
		mu.Lock()
		defer mu.Unlock()
		if armed && op == "write" {
			return fmt.Errorf("injected EIO")
		}
		return nil
	})
	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	armed = false
	mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Stats().PendingWrites == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := reg.Stats(); st.PendingWrites != 0 {
		t.Fatalf("background retry never flushed: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, meta.ID+".json")); err != nil {
		t.Fatalf("flushed file missing: %v", err)
	}
}

func TestDegradedInstallVersionAnswersApplied(t *testing.T) {
	src, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	m := fitTestModel(t)
	srcMeta, err := src.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	expMeta, rule, err := src.Export(srcMeta.ID)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	dst.retryEvery = time.Hour
	dst.SetIOHook(func(op string) error {
		if op == "write" {
			return fmt.Errorf("injected ENOSPC")
		}
		return nil
	})
	installed, err := dst.InstallVersion(expMeta, rule)
	if err != nil || !installed {
		t.Fatalf("degraded install: installed=%v err=%v", installed, err)
	}
	gotMeta, err := dst.GetMeta(expMeta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Persisted == nil || *gotMeta.Persisted {
		t.Fatal("degraded install not flagged persisted:false")
	}
	// Idempotency holds across the degraded accept: a replayed broadcast
	// is still a no-op.
	if again, err := dst.InstallVersion(expMeta, rule); err != nil || again {
		t.Fatalf("replayed install: installed=%v err=%v", again, err)
	}
	// And the high-water mark took: a local Put on the same name gets v2.
	dst.SetIOHook(nil)
	putMeta, err := dst.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	if putMeta.Version != 2 {
		t.Fatalf("Put after degraded install got v%d, want v2", putMeta.Version)
	}
}

func TestOpenCountsAndRemovesTmpLeftovers(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(".tmp-crash%d", i)), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if got := reg.Stats().TmpFilesRemoved; got != 3 {
		t.Fatalf("TmpFilesRemoved = %d, want 3", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover %s survived Open", e.Name())
		}
	}
}

func TestDeleteDropsPendingWrite(t *testing.T) {
	reg, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	reg.retryEvery = time.Hour
	reg.SetIOHook(func(op string) error {
		if op == "write" {
			return fmt.Errorf("injected ENOSPC")
		}
		return nil
	})
	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	reg.SetIOHook(nil)
	if remaining := reg.FlushPending(); remaining != 0 {
		t.Fatalf("deleted pending write still queued: %d", remaining)
	}
	if _, err := os.Stat(filepath.Join(reg.Dir(), meta.ID+".json")); !os.IsNotExist(err) {
		t.Fatal("deleted pending rule reached disk anyway")
	}
}

// TestRecordWhoseRuleNoLongerLoads: a stored record whose rule core.Load
// now refuses — here one with 8 control points, past the degree cap —
// takes the corrupt-record path. A bare v1 record is deep-verified at Open
// and quarantined there; a checksummed v2 record is indexed on its CRC
// alone and quarantined on its first load, which answers ErrNotFound.
func TestRecordWhoseRuleNoLongerLoads(t *testing.T) {
	dir := t.TempDir()
	f, rule, meta := storedRecord(t, dir)
	points := make([][]float64, 8)
	for r := range points {
		v := float64(r) / 7
		points[r] = []float64{v, v, 1 - v}
	}
	rule["control_points"] = points
	var err error
	if f.Model, err = json.Marshal(rule); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Load(bytes.NewReader(f.Model)); err == nil {
		t.Fatal("core.Load accepts an 8-control-point rule; the test needs one it refuses")
	}
	record := func(name string) []byte {
		g := f
		g.Meta.ID, g.Meta.Name, g.Meta.Degree = name+"-v1", name, 7
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if err := os.WriteFile(filepath.Join(dir, "bare-v1.json"), record("bare"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sealed-v1.json"), sealRecord(record("sealed")), 0o644); err != nil {
		t.Fatal(err)
	}

	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("records whose rule no longer loads must not fail Open: %v", err)
	}
	defer reg.Close()
	if skipped := strings.Join(reg.Skipped(), "\n"); !strings.Contains(skipped, "bare-v1.json") || strings.Contains(skipped, "sealed-v1.json") {
		t.Errorf("Skipped() = %q, want bare-v1.json and not sealed-v1.json", skipped)
	}
	st := reg.Stats()
	if st.Quarantined != 1 || st.CorruptTotal != 1 || len(st.QuarantinedIDs) != 1 || st.QuarantinedIDs[0] != "bare-v1" {
		t.Fatalf("after Open: stats = %+v, want bare-v1 alone quarantined", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "bare-v1.json")); err != nil {
		t.Fatalf("bare-v1 not in quarantine: %v", err)
	}
	if _, err := reg.GetMeta("sealed-v1"); err != nil {
		t.Fatalf("sealed-v1 not indexed at Open: %v", err)
	}

	if _, _, err := reg.Get("sealed-v1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(sealed-v1): err = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "sealed-v1.json")); err != nil {
		t.Fatalf("sealed-v1 not in quarantine after its first load: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sealed-v1.json")); !os.IsNotExist(err) {
		t.Fatalf("sealed-v1.json still in the rule directory: %v", err)
	}
	if st := reg.Stats(); st.Quarantined != 2 || st.CorruptTotal != 2 {
		t.Fatalf("after Get: stats = %+v, want 2 quarantined, CorruptTotal 2", st)
	}
	if _, _, err := reg.Get(meta.ID); err != nil {
		t.Fatalf("healthy rule unserveable: %v", err)
	}
}

// TestRecordOfAcceptedRuleStaysLoadable: a rule core.Load accepts though
// no fit writes it — a control point off the unit box, which a client can
// install, or a normaliser range too small to invert, which FitNormalizer
// lets through — is indexed at Open and served on a cache-miss Get from a
// bare v1 record and from a sealed one alike, scoring as core.Load's model
// does; none is quarantined.
func TestRecordOfAcceptedRuleStaysLoadable(t *testing.T) {
	dir := t.TempDir()
	f, rule, meta := storedRecord(t, dir)
	points := rule["control_points"].([]any)
	edits := map[string]func(rule map[string]any){
		"offbox": func(rule map[string]any) {
			off := append([]any{}, points...)
			p := append([]any{}, off[1].([]any)...)
			p[1] = 7000.0
			off[1] = p
			rule["control_points"] = off
		},
		"subnormal": func(rule map[string]any) {
			rule["norm_min"] = []float64{0, 0, 0}
			rule["norm_max"] = []float64{1e-310, 1, 1}
		},
	}
	want := map[string]*core.Model{}
	for name, edit := range edits {
		g := f
		r := map[string]any{}
		for k, v := range rule {
			r[k] = v
		}
		edit(r)
		var err error
		if g.Model, err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		m, err := core.Load(bytes.NewReader(g.Model))
		if err != nil {
			t.Fatalf("core.Load refuses the %s rule: %v", name, err)
		}
		for _, sealed := range []bool{false, true} {
			id := name + "-v1"
			if sealed {
				id = name + "sealed-v1"
			}
			g.Meta.ID, g.Meta.Name = id, strings.TrimSuffix(id, "-v1")
			out, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			if sealed {
				out = sealRecord(out)
			}
			if err := os.WriteFile(filepath.Join(dir, id+".json"), out, 0o644); err != nil {
				t.Fatal(err)
			}
			want[id] = m
		}
	}

	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if skipped := reg.Skipped(); len(skipped) != 0 {
		t.Fatalf("Skipped() = %q, want none", skipped)
	}
	for id, m := range want {
		got, _, err := reg.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		for _, row := range probeRows {
			if s, w := got.Score(row), m.Score(row); s != w {
				t.Errorf("%s scores %v as %v, core.Load's model %v", id, row, s, w)
			}
		}
	}
	if st := reg.Stats(); st.Quarantined != 0 || st.CorruptTotal != 0 {
		t.Fatalf("stats = %+v, want nothing quarantined", st)
	}
	if _, _, err := reg.Get(meta.ID); err != nil {
		t.Fatalf("fitted rule unserveable: %v", err)
	}
}

// TestRecordWhoseMetaMisstatesItsRule: sealed records whose meta disagrees
// with the rule they carry pass Open's checksum scan, and the first load
// holds them to the rule. A wrong Dim could never score a row, so that
// record is quarantined and answers ErrNotFound; a wrong Monotone serves,
// and the index then reports the value the rule certifies.
func TestRecordWhoseMetaMisstatesItsRule(t *testing.T) {
	dir := t.TempDir()
	f, _, meta := storedRecord(t, dir)
	edits := map[string]func(m *Meta){
		"widthlie":    func(m *Meta) { m.Dim, m.Alpha = 2, []float64{1, 1} },
		"monotonelie": func(m *Meta) { m.Monotone = !m.Monotone },
	}
	for name, edit := range edits {
		g := f
		g.Meta.ID, g.Meta.Name = name+"-v1", name
		edit(&g.Meta)
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+"-v1.json"), sealRecord(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, _, err := reg.Get("widthlie-v1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(widthlie-v1): err = %v, want ErrNotFound", err)
	}
	if st := reg.Stats(); st.Quarantined != 1 || len(st.QuarantinedIDs) != 1 || st.QuarantinedIDs[0] != "widthlie-v1" {
		t.Fatalf("stats = %+v, want widthlie-v1 alone quarantined", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "widthlie-v1.json")); err != nil {
		t.Fatalf("widthlie-v1 not in quarantine: %v", err)
	}

	m, got, err := reg.Get("monotonelie-v1")
	if err != nil {
		t.Fatalf("Get(monotonelie-v1): %v", err)
	}
	if got.Monotone != meta.Monotone || got.Monotone != m.StrictlyMonotone() {
		t.Errorf("Get meta monotone = %v, rule certifies %v", got.Monotone, m.StrictlyMonotone())
	}
	if got, err := reg.GetMeta("monotonelie-v1"); err != nil || got.Monotone != meta.Monotone {
		t.Errorf("GetMeta(monotonelie-v1) = %+v, %v; want monotone %v", got, err, meta.Monotone)
	}
	if st := reg.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want monotonelie-v1 not quarantined", st)
	}

	// Export ships the derived shape, so a peer accepts the record.
	expMeta, rule, err := reg.Export("monotonelie-v1")
	if err != nil || expMeta.Monotone != meta.Monotone {
		t.Fatalf("Export(monotonelie-v1) = %+v, %v; want monotone %v", expMeta, err, meta.Monotone)
	}
	peer, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if _, err := peer.InstallVersion(expMeta, rule); err != nil {
		t.Fatalf("peer refuses the exported record: %v", err)
	}
}

// storedRecord puts a fitted rule into a registry on dir, closes it and
// returns the rule's record, the rule document decoded into a map, and
// its meta, so a test can write altered records next to it.
func storedRecord(t *testing.T, dir string) (fileJSON, map[string]any, Meta) {
	t.Helper()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	raw, err := os.ReadFile(filepath.Join(dir, meta.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := openRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	var f fileJSON
	if err := json.Unmarshal(payload, &f); err != nil {
		t.Fatal(err)
	}
	var rule map[string]any
	if err := json.Unmarshal(f.Model, &rule); err != nil {
		t.Fatal(err)
	}
	return f, rule, meta
}
