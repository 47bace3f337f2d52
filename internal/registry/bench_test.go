package registry

import (
	"os"
	"testing"

	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/order"
)

// BenchmarkRegistryMiss times a Get of a rule that is not resident: read
// the record, verify its checksum, decode the envelope and load the model.
// The rule is a degree-3 fit of a 393-row BezierCloud that runs all 200 of
// the default iterations without converging, so its fit diagnostics are as
// long as a default fit makes them. Two copies under maxLoaded 1 make
// every Get a miss; record-bytes is the size of one stored record.
func BenchmarkRegistryMiss(b *testing.B) {
	alpha := order.MustDirection(1, 1, -1)
	xs, _, _ := dataset.BezierCloud(alpha, 393, 0.08, 3)
	m, err := core.Fit(xs, core.Options{Alpha: alpha, Degree: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if m.Iterations != 200 || m.Converged {
		b.Fatalf("fit stopped after %d iterations (converged %v), want all 200 run", m.Iterations, m.Converged)
	}
	reg, err := Open(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	var ids [2]string
	for i := range ids {
		meta, err := reg.Put("miss", m, len(xs), m.ExplainedVariance())
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = meta.ID
	}
	info, err := os.Stat(reg.path(ids[0]))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reg.Get(ids[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(info.Size()), "record-bytes")
}
