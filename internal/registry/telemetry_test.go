package registry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rpcrank/internal/core"
)

// TestFitDiagnosticsPersist pins the fit-telemetry envelope: diagnostics
// ride on Meta (not inside the rule document), survive a registry reopen
// without the per-iteration trace, and stay nil for rules installed from a
// saved document.
func TestFitDiagnosticsPersist(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	if m.FitDiag == nil {
		t.Fatal("fitted model carries no diagnostics")
	}
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Fit == nil {
		t.Fatal("Put dropped FitDiag from the metadata")
	}
	if meta.Fit.Iterations != m.FitDiag.Iterations || meta.Fit.FinalObjective != m.FitDiag.FinalObjective {
		t.Errorf("meta.Fit = %+v, model diag = %+v", meta.Fit, m.FitDiag)
	}

	// A model round-tripped through Save/Load is a pure serving artifact:
	// no diagnostics, so its registry entry has none either.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FitDiag != nil {
		t.Error("loaded model unexpectedly carries diagnostics")
	}
	metaLoaded, err := reg.Put("uploaded", loaded, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if metaLoaded.Fit != nil {
		t.Error("uploaded rule unexpectedly carries diagnostics")
	}

	// Reopen from disk: diagnostics must come back from the envelope.
	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg2.GetMeta("wine-v1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fit == nil {
		t.Fatal("diagnostics lost across registry reopen")
	}
	if got.Fit.Iterations != m.FitDiag.Iterations {
		t.Errorf("reloaded iterations %d, want %d", got.Fit.Iterations, m.FitDiag.Iterations)
	}
	if got.Fit.FinalObjective != m.FitDiag.FinalObjective {
		t.Errorf("reloaded final objective %v, want %v", got.Fit.FinalObjective, m.FitDiag.FinalObjective)
	}
	// The record keeps the fit summary; the per-iteration trace stays on
	// the fitted model, which the fit answer reports.
	if len(got.Fit.Trace) != 0 || got.Fit.TraceTruncated {
		t.Errorf("reloaded meta carries a trace of %d entries", len(got.Fit.Trace))
	}
	if len(meta.Fit.Trace) != 0 {
		t.Errorf("Put's meta carries a trace of %d entries", len(meta.Fit.Trace))
	}
	if len(m.FitDiag.Trace) == 0 {
		t.Errorf("Put cleared the fitted model's own trace (%d entries)", len(m.FitDiag.Trace))
	}
	if got.Fit.Stages.RefineNs != m.FitDiag.Stages.RefineNs {
		t.Errorf("reloaded refine ns %d, want %d", got.Fit.Stages.RefineNs, m.FitDiag.Stages.RefineNs)
	}
	got2, err := reg2.GetMeta("uploaded-v1")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Fit != nil {
		t.Error("uploaded rule gained diagnostics across reopen")
	}
}

// TestRecordWithTraceReplicatesByteIdentical: a record written before Put
// left the fit trace out still loads with its trace, and a replicated
// install of its export lands byte-identical on the peer's disk.
func TestRecordWithTraceReplicatesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	f, _, _ := storedRecord(t, dir)
	m := fitTestModel(t)
	f.Meta.ID, f.Meta.Name, f.Meta.Fit = "old-v1", "old", m.FitDiag
	payload, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := sealRecord(payload)
	if err := os.WriteFile(filepath.Join(dir, "old-v1.json"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	meta, rule, err := src.Export("old-v1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Fit == nil || len(meta.Fit.Trace) != len(m.FitDiag.Trace) {
		t.Fatalf("exported meta lost the stored trace: %+v", meta.Fit)
	}
	peerDir := t.TempDir()
	peer, err := Open(peerDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if installed, err := peer.InstallVersion(meta, rule); err != nil || !installed {
		t.Fatalf("install: installed=%v err=%v", installed, err)
	}
	got, err := os.ReadFile(filepath.Join(peerDir, "old-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replicated record differs from the source's (%d vs %d bytes)", len(got), len(want))
	}
}
